"""Execute imperative programs by compiling them to Python/numpy source.

This is the reference runtime of the reproduction: every compiled pipeline
(RISE schedules, mini-Halide, OpenCV baseline, LIFT preset) is executed
through it on real images and validated against the numpy reference — the
role the POCL OpenCL runtime plays in the paper's artifact.

Vector operations map onto numpy slices, so the generated code exercises
the same structure (strip loops, unaligned window loads, shuffles,
rotating registers) the C backend emits.
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np

from repro.codegen.ir import (
    AllocStmt,
    Assign,
    BinOp,
    Block,
    Buffer,
    Broadcast,
    Comment,
    DeclScalar,
    DeclVec,
    FConst,
    For,
    IConst,
    IExpr,
    ImpFunction,
    ImpProgram,
    Load,
    LoopKind,
    NatE,
    ScalarKind,
    Stmt,
    Store,
    UnOp,
    VLane,
    VLoad,
    VPack,
    VShuffle,
    VStore,
    Var,
)

__all__ = [
    "execute_program",
    "program_to_python",
    "function_to_python_strips",
    "strippable_parallel_loop",
    "count_parallel_loops",
    "strip_bounds",
]


def _kernel_input(
    buffer: Buffer,
    size: int,
    produced: Mapping[str, np.ndarray],
    inputs: Mapping[str, np.ndarray],
) -> np.ndarray:
    """The array one kernel reads as ``buffer`` (``size`` elements): the
    buffer rule both runtimes share.

    An earlier kernel's output wins over a caller input of the same name.
    A C-contiguous float32 array of exactly ``size`` elements is passed
    straight through when the IR declares no pad for the buffer; anything
    else (another dtype or layout, or a declared pad) is copied once into
    a zeroed ``buffer.alloc_size()`` array, counted in ``exec.copy_bytes``.
    Kernels never write their inputs, so caller memory is left untouched.
    """
    if buffer.name in produced:
        data = produced[buffer.name]
    elif buffer.name in inputs:
        data = np.asarray(inputs[buffer.name])
    else:
        raise KeyError(f"no input for buffer {buffer.name!r}")
    if data.size != size:
        raise ValueError(f"buffer {buffer.name!r} holds {size} elements, got {data.size}")
    if buffer.pad == 0 and data.dtype == np.float32 and data.flags.c_contiguous:
        return data.reshape(-1)
    from repro.observe.metrics import inc

    copy = np.zeros(size + buffer.pad, dtype=np.float32)
    copy[:size].reshape(data.shape)[...] = data
    inc("exec.copy_bytes", size * copy.itemsize)
    return copy


class _Emitter:
    def __init__(self, sizes: Mapping[str, int], strip_loop: For | None = None):
        self.sizes = dict(sizes)
        self.lines: list[str] = []
        self.indent = 1
        #: The one For statement (by identity) whose bounds are replaced by
        #: the ``_lo``/``_hi`` strip parameters of a strip-variant function.
        self.strip_loop = strip_loop

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def nat(self, n) -> int:
        return int(n.evaluate(self.sizes))

    def expr(self, e: IExpr) -> str:
        if isinstance(e, IConst):
            return str(e.value)
        if isinstance(e, FConst):
            return f"f32({e.value!r})"
        if isinstance(e, NatE):
            return str(self.nat(e.value))
        if isinstance(e, Var):
            return e.name
        if isinstance(e, Load):
            return f"{e.buffer}[{self.expr(e.index)}]"
        if isinstance(e, VLoad):
            i = self.expr(e.index)
            return f"{e.buffer}[{i}:{i}+{e.width}]"
        if isinstance(e, Broadcast):
            return f"np.full({e.width}, {self.expr(e.value)}, dtype=np.float32)"
        if isinstance(e, VShuffle):
            a, b = self.expr(e.a), self.expr(e.b)
            return f"np.concatenate(({a}, {b}))[{e.offset}:{e.offset}+{e.width}]"
        if isinstance(e, VPack):
            lanes = ", ".join(self.expr(l) for l in e.lanes)
            return f"np.array([{lanes}], dtype=np.float32)"
        if isinstance(e, VLane):
            return f"{self.expr(e.vec)}[{self.expr(e.lane)}]"
        if isinstance(e, BinOp):
            a, b = self.expr(e.a), self.expr(e.b)
            ops = {
                "add": f"({a} + {b})",
                "sub": f"({a} - {b})",
                "mul": f"({a} * {b})",
                "div": f"({a} / {b})",
                "min": f"np.minimum({a}, {b})",
                "max": f"np.maximum({a}, {b})",
                "mod": f"({a} % {b})",
                "idiv": f"({a} // {b})",
            }
            return ops[e.op]
        if isinstance(e, UnOp):
            a = self.expr(e.a)
            return {
                "neg": f"(-{a})",
                "abs": f"np.abs({a})",
                "sqrt": f"np.sqrt({a})",
            }[e.op]
        raise TypeError(f"cannot emit {type(e).__name__}")

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, Block):
            if not s.stmts:
                self.line("pass")
            for sub in s.stmts:
                self.stmt(sub)
            return
        if isinstance(s, Comment):
            self.line(f"# {s.text}")
            return
        if isinstance(s, AllocStmt):
            size = self.nat(s.buffer.alloc_size())
            self.line(f"{s.buffer.name} = np.zeros({size}, dtype=np.float32)")
            return
        if isinstance(s, For):
            if s is self.strip_loop:
                self.line(f"for {s.var} in range(_lo, _hi):  # parallel strip")
            else:
                if s.kind is LoopKind.PARALLEL:
                    # Surface the loop kind: this loop is semantically
                    # parallel (mapGlobal); the executor dispatches it as
                    # thread strips or falls back to a sequential run.
                    self.line(f"# LoopKind.PARALLEL over {s.var} (thread strips)")
                extent = self.expr(s.extent)
                self.line(f"for {s.var} in range({extent}):")
            self.indent += 1
            self.stmt(s.body)
            if isinstance(s.body, Block) and not s.body.stmts:
                pass
            self.indent -= 1
            return
        if isinstance(s, DeclScalar):
            init = self.expr(s.init) if s.init is not None else "f32(0.0)"
            if s.kind is ScalarKind.I32:
                self.line(f"{s.var} = int({init})")
            else:
                self.line(f"{s.var} = {init}")
            return
        if isinstance(s, DeclVec):
            init = (
                self.expr(s.init)
                if s.init is not None
                else f"np.zeros({s.width}, dtype=np.float32)"
            )
            self.line(f"{s.var} = _vinit({init}, {s.width})")
            return
        if isinstance(s, Assign):
            self.line(f"{s.var} = {self.expr(s.value)}")
            return
        if isinstance(s, Store):
            self.line(f"{s.buffer}[{self.expr(s.index)}] = {self.expr(s.value)}")
            return
        if isinstance(s, VStore):
            i = self.expr(s.index)
            self.line(
                f"{s.buffer}[{i}:{i}+{s.width}] = {self.expr(s.value)}"
            )
            return
        raise TypeError(f"cannot emit statement {type(s).__name__}")


def function_to_python(fn: ImpFunction, sizes: Mapping[str, int]) -> str:
    emitter = _Emitter(sizes)
    out_name = fn.output.name
    params = ", ".join(b.name for b in fn.inputs) + (", " if fn.inputs else "") + out_name
    emitter.lines.append(f"def {fn.name}({params}):")
    emitter.stmt(fn.body)
    emitter.line(f"return {out_name}")
    return "\n".join(emitter.lines)


def program_to_python(prog: ImpProgram, sizes: Mapping[str, int]) -> str:
    """Full program source (one Python function per kernel)."""
    return "\n\n".join(function_to_python(fn, sizes) for fn in prog.functions)


# -- parallel strip dispatch ------------------------------------------------


def strippable_parallel_loop(fn: ImpFunction) -> For | None:
    """The top-level ``LoopKind.PARALLEL`` loop of ``fn`` that can be
    dispatched as thread strips, or ``None``.

    Eligibility is deliberately conservative: the parallel loop must be a
    direct child of the function body and its last non-comment statement,
    so a strip variant can run any preamble (temporary allocations) per
    strip — safe because ``mapGlobal`` iterations are independent — and
    nothing downstream observes a partial iteration ordering.  Anything
    else (nested parallel loops, statements after the loop) falls back to
    a deterministic sequential run, counted in the metrics registry.
    """
    candidate: For | None = None
    for s in fn.body.stmts:
        if isinstance(s, Comment):
            continue
        candidate = s if isinstance(s, For) and s.kind is LoopKind.PARALLEL else None
    if candidate is None:
        return None
    top_level_parallel = sum(
        1
        for s in fn.body.stmts
        if isinstance(s, For) and s.kind is LoopKind.PARALLEL
    )
    return candidate if top_level_parallel == 1 else None


def count_parallel_loops(fn: ImpFunction) -> int:
    """Number of ``LoopKind.PARALLEL`` loops anywhere in ``fn``."""
    from repro.codegen.ir import walk_stmts

    return sum(
        1
        for s in walk_stmts(fn.body)
        if isinstance(s, For) and s.kind is LoopKind.PARALLEL
    )


def function_to_python_strips(fn: ImpFunction, sizes: Mapping[str, int]) -> str:
    """The strip variant of one kernel: ``<name>__strip(_lo, _hi, ...)``
    runs the top-level parallel loop over ``range(_lo, _hi)`` only.

    The caller partitions the loop's extent into contiguous strips (static
    scheduling, mirroring ``#pragma omp parallel for schedule(static)``)
    and runs one strip per worker thread; all strips share the input and
    output buffers and write disjoint regions, so the result is
    bit-identical to the sequential loop.
    """
    strip_loop = strippable_parallel_loop(fn)
    if strip_loop is None:
        raise ValueError(f"{fn.name} has no strippable parallel loop")
    emitter = _Emitter(sizes, strip_loop=strip_loop)
    out_name = fn.output.name
    params = ", ".join(b.name for b in fn.inputs) + (", " if fn.inputs else "") + out_name
    emitter.lines.append(f"def {fn.name}__strip(_lo, _hi, {params}):")
    emitter.stmt(fn.body)
    emitter.line(f"return {out_name}")
    return "\n".join(emitter.lines)


def strip_bounds(extent: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` strips of ``range(extent)`` for ``threads``
    workers — OpenMP static scheduling: sizes differ by at most one, and
    empty strips are dropped."""
    threads = max(1, min(threads, extent)) if extent > 0 else 1
    base, rem = divmod(extent, threads)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for t in range(threads):
        hi = lo + base + (1 if t < rem else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds


def _loop_extent(loop: For, sizes: Mapping[str, int]) -> int:
    from repro.codegen.ir import IConst, NatE

    if isinstance(loop.extent, IConst):
        return loop.extent.value
    if isinstance(loop.extent, NatE):
        return int(loop.extent.value.evaluate(sizes))
    raise ValueError(f"parallel loop extent must be sized: {loop.extent!r}")


def execute_program(
    prog: ImpProgram,
    sizes: Mapping[str, int],
    inputs: Mapping[str, np.ndarray],
    intermediates: Mapping[str, tuple] | None = None,
    threads: int | None = None,
) -> np.ndarray:
    """Execute a compiled program.

    ``inputs`` maps input buffer names to numpy arrays of any shape,
    bound under :func:`_kernel_input`'s rule (an element count that
    differs from the buffer's raises ``ValueError``).  Multi-kernel programs
    execute in order; a kernel whose input name matches an earlier
    kernel's name reads that kernel's output (the convention used by the
    library/LIFT baselines).

    ``threads`` controls ``LoopKind.PARALLEL`` loops: a strippable
    top-level parallel loop (see :func:`strippable_parallel_loop`) is
    partitioned into contiguous strips dispatched on a thread pool
    (numpy slice kernels release the GIL), bit-identical to the
    sequential order because strips write disjoint output regions.
    ``None`` resolves through :func:`repro.exec.parallel.effective_threads`
    (``$REPRO_THREADS``/``$OMP_NUM_THREADS``/CPU count, degraded to 1
    inside a batch worker); any non-strippable parallel loop falls back
    to a deterministic sequential run, counted in the metrics registry
    as ``exec.py.parallel.sequential``.

    Returns the final output buffer (flat, unpadded length), freshly
    allocated on every call.

    When :func:`repro.observe.observing` is active, each kernel records a
    ``run:<name>`` span with codegen/exec sub-spans; its meta carries the
    generated source size and the static op counts (``ops.<kind>``) of
    :func:`repro.codegen.ir.op_histogram`.
    """
    from repro.codegen.sizes import resolve_sizes
    from repro.exec.parallel import effective_threads
    from repro.observe.core import active, span
    from repro.observe.metrics import inc, observe_value

    sizes = resolve_sizes(prog, sizes)
    nthreads = effective_threads(threads)

    def _vinit(value, width):
        arr = np.asarray(value, dtype=np.float32)
        if arr.ndim == 0:
            return np.full(width, arr, dtype=np.float32)
        return arr.copy()

    namespace: dict = {"np": np, "f32": np.float32, "_vinit": _vinit}
    produced: dict[str, np.ndarray] = {}

    result: np.ndarray | None = None
    for fn in prog.functions:
        with span(f"run:{fn.name}", program=prog.name) as kernel_span:
            inc("exec.kernels", kernel=fn.name)
            par_loops = count_parallel_loops(fn)
            strip_loop = strippable_parallel_loop(fn) if par_loops else None
            extent = _loop_extent(strip_loop, sizes) if strip_loop is not None else 0
            use_strips = nthreads > 1 and strip_loop is not None and extent > 1
            with span("codegen-python"):
                source = function_to_python(fn, sizes)
                code = compile(source, f"<{fn.name}>", "exec")
                if use_strips:
                    strip_source = function_to_python_strips(fn, sizes)
                    strip_code = compile(strip_source, f"<{fn.name}__strip>", "exec")
            exec(code, namespace)
            if use_strips:
                exec(strip_code, namespace)
            args = [
                _kernel_input(b, int(b.size.evaluate(sizes)), produced, inputs)
                for b in fn.inputs
            ]
            out_size = int(fn.output.size.evaluate(sizes))
            out = np.zeros(int(fn.output.alloc_size().evaluate(sizes)), dtype=np.float32)
            if par_loops:
                inc("exec.py.parallel.loops", par_loops, kernel=fn.name)
            if use_strips:
                bounds = strip_bounds(extent, nthreads)
                with span(
                    "execute",
                    parallel="strips",
                    threads=len(bounds),
                    extent=extent,
                ):
                    from concurrent.futures import ThreadPoolExecutor

                    strip_fn = namespace[f"{fn.name}__strip"]
                    t0 = time.perf_counter()
                    with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
                        futures = [
                            pool.submit(strip_fn, lo, hi, *args, out)
                            for lo, hi in bounds
                        ]
                        for f in futures:
                            f.result()
                    observe_value(
                        "exec.py.parallel.span_ms",
                        (time.perf_counter() - t0) * 1e3,
                        kernel=fn.name,
                    )
                inc("exec.py.parallel.strips", len(bounds), kernel=fn.name)
            else:
                if par_loops:
                    # A parallel loop ran sequentially: either threads=1
                    # (configured or batch-degraded) or the loop shape is
                    # not strippable.  Surfaced so "silent" serialization
                    # is visible in every metrics snapshot.
                    inc(
                        "exec.py.parallel.sequential",
                        par_loops,
                        kernel=fn.name,
                        reason="threads" if strip_loop is not None else "shape",
                    )
                with span("execute"):
                    namespace[fn.name](*args, out)
            if active() is not None:
                from repro.codegen.ir import op_histogram

                kernel_span.meta["source_lines"] = source.count("\n") + 1
                kernel_span.meta["output_elems"] = out_size
                for key, value in op_histogram(fn).items():
                    kernel_span.meta[f"ops.{key}"] = value
            result = out[:out_size]
            produced[fn.name] = result
            produced[fn.output.name] = result
    assert result is not None
    return result


# -- the backend interface (see repro.exec.BACKEND_TABLE) --------------------

#: The generated Python holds the GIL, so a batch fans out across processes.
BATCH_POOL = "process"


def available() -> bool:
    """The Python backend runs wherever numpy does."""
    return True


def resolve_cflags(cflags: tuple[str, ...]) -> tuple[str, ...]:
    """No compiler runs, so no flag enters the cache key."""
    return ()


def build(entry, cflags: tuple[str, ...]) -> None:
    """Nothing to build: :func:`run` generates code per size binding."""


def source(entry, sizes: Mapping[str, int]) -> str:
    """The generated Python of ``entry.program``, specialized to ``sizes``."""
    from repro.codegen.sizes import resolve_sizes

    return program_to_python(entry.program, resolve_sizes(entry.program, sizes))


def run(entry, store, sizes, inputs, threads: int | None) -> np.ndarray:
    """Execute ``entry.program`` once (the store holds nothing for it)."""
    return execute_program(entry.program, sizes, inputs, threads=threads)
