"""No generated kernel reads or writes past a parameter buffer.

Parameter buffers carry no pad (see :class:`repro.codegen.ir.Buffer`),
so the C runtime hands caller arrays straight to the kernel.  This suite
is the standing proof that doing so is safe: every buffer a kernel takes
as a parameter is placed flush against an ``mmap`` page made
``PROT_NONE`` — after it in one run, before it in another — so a single
element of over- or under-read faults the process instead of reading
neighbouring memory.

* Inputs go through :meth:`CompiledPipeline.run`, so the real
  pass-through is what gets guarded.
* Outputs (and, for the multi-kernel baselines, every intermediate) are
  guarded by calling each kernel directly through the library's cached
  call plan.

Cases: every applicable zoo pair at vec 4 and vec 8 plus the three
Harris baselines, compiled under the same keys as the differential
matrix and the gcc integration tests, so no case costs another gcc run
but harris ``naive``.  The naive kernels with an ``omp simd`` loop run
again at two widths: one with an 8-lane vector body and a 5-element
scalar remainder, and one below a vector, so each path of the loop
ends flush against the guard page.
"""

import ctypes
import mmap

import numpy as np
import pytest

import repro
from repro.pipelines import registry
from tests.zoo.test_matrix import CHUNK, MATRIX, STRIP, VEC, VEC8_MATRIX

pytestmark = pytest.mark.requires_gcc

PAGE = mmap.PAGESIZE
PROT_NONE = 0  # <sys/mman.h>; the mmap module exports PROT_READ/WRITE only

_libc = ctypes.CDLL(None, use_errno=True)
_libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
_libc.mprotect.restype = ctypes.c_int

BASELINE_SIZES = {"n": 32, "m": 64}

#: Harris's baseline schedules and the grid the gcc integration tests
#: compile them with.
BASELINES = {
    "halide": {"chunk": 4, "vec": 4},
    "lift": {},
    "opencv": {},
}


def guarded(count: int, trailing: bool) -> np.ndarray:
    """A zeroed float32 array of ``count`` elements whose last element
    ends right before (``trailing``) or whose first element starts right
    after a ``PROT_NONE`` page."""
    nbytes = 4 * count
    data_pages = max(1, -(-nbytes // PAGE))
    region = np.frombuffer(mmap.mmap(-1, (data_pages + 1) * PAGE), dtype=np.uint8)
    if trailing:
        guard, start = data_pages * PAGE, data_pages * PAGE - nbytes
    else:
        guard, start = 0, PAGE
    if _libc.mprotect(region.ctypes.data + guard, PAGE, PROT_NONE) != 0:
        raise OSError(ctypes.get_errno(), "mprotect failed")
    # the mapping lives as long as any view of it; its guard page is
    # never touched again, so no cleanup is needed
    return region[start : start + nbytes].view(np.float32)


#: Naive kernels whose output loop the C printer marks ``omp simd``.
SIMD_NAIVE = ("harris", "gaussian-blur", "sobel-magnitude", "unsharp-mask", "box-blur")

#: Output widths: ``m % 8 == 5`` and ``m < 8``.
SIMD_WIDTHS = (13, 5)


def _zoo_case(pipeline: str, schedule: str, vec: int, m: int | None = None):
    spec = registry.get(pipeline)
    sizes = spec.concrete_sizes(CHUNK, vec, STRIP)
    if m is not None:
        sizes["m"] = m
    compiled = repro.compile(
        "zoo",
        options={
            "pipeline": pipeline,
            "schedule": schedule,
            "chunk": CHUNK,
            "vec": vec,
            "strip": STRIP,
        },
        backend="c",
        sizes=sizes,
    )
    return compiled, sizes


def _baseline_case(name: str):
    options = {"pipeline": "harris", "schedule": name, **BASELINES[name]}
    return repro.compile("zoo", options=options, backend="c"), BASELINE_SIZES


CASES = (
    [pytest.param(_zoo_case, (p, s, VEC), id=f"{p}-{s}-v{VEC}") for p, s in MATRIX]
    + [pytest.param(_zoo_case, (p, s, 8), id=f"{p}-{s}-v8") for p, s in VEC8_MATRIX]
    + [pytest.param(_baseline_case, (name,), id=f"harris-{name}") for name in BASELINES]
    + [
        pytest.param(_zoo_case, (p, "naive", VEC, m), id=f"{p}-naive-m{m}")
        for p in SIMD_NAIVE
        for m in SIMD_WIDTHS
    ]
)


def _caller_inputs(program, sizes, rng) -> dict[str, np.ndarray]:
    """Random data for every input buffer no earlier kernel produces."""
    produced: set[str] = set()
    inputs: dict[str, np.ndarray] = {}
    for fn in program.functions:
        for b in fn.inputs:
            if b.name not in produced:
                inputs[b.name] = rng.random(int(b.size.evaluate(sizes)), dtype=np.float32)
        produced |= {fn.name, fn.output.name}
    return inputs


@pytest.mark.parametrize("make,args", CASES)
def test_parameter_buffers_stay_inside_their_size(make, args):
    compiled, sizes = make(*args)
    inputs = _caller_inputs(compiled.program, sizes, np.random.default_rng(7))
    expected = compiled.run(sizes=sizes, threads=1, **inputs)

    for trailing in (True, False):
        fenced = {}
        for name, data in inputs.items():
            fenced[name] = guarded(data.size, trailing)
            fenced[name][:] = data
        out = compiled.run(sizes=sizes, threads=1, **fenced)
        np.testing.assert_array_equal(out, expected)
        for name, data in inputs.items():
            np.testing.assert_array_equal(fenced[name], data)  # never written

        # outputs and intermediates: each kernel called directly
        library = compiled._entry.library  # loaded by the C backend's run above
        plan = library._call_plan(compiled.program, sizes)
        buffers = dict(fenced)
        for call in plan.kernels:
            assert all(size == buffers[b.name].size for b, size in call.inputs)
            out = guarded(call.out_alloc, trailing)
            call.cfn(
                *call.size_args,
                *(buffers[b.name].ctypes.data for b, _ in call.inputs),
                out.ctypes.data,
            )
            buffers[call.name] = buffers[call.output] = out
        np.testing.assert_array_equal(out, expected)
