"""Which loops the C printer marks ``#pragma omp simd`` (``cprint.simd_loop``).

The pragma asserts to gcc that a loop's iterations are independent, so
a wrongly marked loop is a silent wrong answer.  The table below pins
the predicate's verdict on hand-built loops; the census pins which
loops of the real kernels carry it; the last test checks that gcc does
vectorize the marked loop of harris ``naive``.
"""

import functools
import re

import pytest

from repro.codegen.cprint import _CPrinter, program_to_c, simd_loop
from repro.codegen.ir import (
    AllocStmt,
    Assign,
    BinOp,
    Block,
    Buffer,
    DeclScalar,
    FConst,
    For,
    IConst,
    Load,
    LoopKind,
    NatE,
    Store,
    Var,
    VLoad,
    VStore,
)
from repro.exec import cbridge
from repro.nat import nat
from repro.pipelines import registry

N = NatE(nat("n"))
I = Var("i")


def _plus(e, k: int):
    return BinOp("add", e, IConst(k))


def _loop(*body, extent=N, kind=LoopKind.SEQ) -> For:
    return For("i", extent, Block(list(body)), kind)


def _map(*extra, extent=N, kind=LoopKind.SEQ) -> For:
    """``out[i] = 2 * a[i] + a[i + 1] + b[0]``, then ``extra``."""
    value = BinOp(
        "add",
        BinOp("mul", FConst(2.0), Load("a", I)),
        BinOp("add", Load("a", _plus(I, 1)), Load("b", IConst(0))),
    )
    return _loop(DeclScalar("t", value), Store("out", I, Var("t")), *extra, extent=extent, kind=kind)


VERDICTS = {
    "unit-stride map": (_map(), True),
    "reduction": (_loop(Assign("acc", BinOp("add", Var("acc"), Load("a", I)))), False),
    "a[i+1] = a[i]": (_loop(Store("a", _plus(I, 1), Load("a", I))), False),
    "stride-2 load": (
        _loop(Store("out", I, Load("a", BinOp("mul", I, IConst(2))))),
        False,
    ),
    "two offsets of one buffer": (_map(Store("out", _plus(I, 1), FConst(0.0))), False),
    "% 4 tail": (_map(extent=NatE(nat("n") % 4)), False),
    "constant extent": (_map(extent=IConst(16)), False),
    "inner For": (_map(For("j", N, Block([Store("c", Var("j"), FConst(0.0))]))), False),
    "VStore": (_map(VStore("c", I, VLoad("a", I, 4), 4)), False),
    "AllocStmt": (_map(AllocStmt(Buffer("tmp", nat(4)))), False),
    "PARALLEL loop": (_map(kind=LoopKind.PARALLEL), False),
}


@pytest.mark.parametrize("case", VERDICTS)
def test_predicate_verdicts(case):
    loop, marked = VERDICTS[case]
    assert simd_loop(loop) is marked


def test_marked_loop_prints_the_pragma_right_before_it():
    printer = _CPrinter()
    printer.stmt(Block([_map(), _map(kind=LoopKind.PARALLEL)]))
    assert [line.strip() for line in printer.lines if line.strip().startswith(("#", "for"))] == [
        "#pragma omp simd",
        "for (int i = 0; i < (n); i++) {",
        "#pragma omp parallel for schedule(static)",
        "for (int i = 0; i < (n); i++) {",
    ]


@functools.lru_cache(maxsize=1)
def _program(name: str, schedule: str):
    """One program of the census (the last one kept: the gcc test
    and the first census case share harris naive)."""
    return registry.build_zoo_program(name, schedule)


@pytest.mark.requires_gcc
@pytest.mark.skipif(not cbridge.openmp_available(), reason="omp simd is inert without OpenMP")
def test_gcc_vectorizes_the_marked_loop(tmp_path):
    """Regression guard for the 6x of harris naive: a printer change
    that slips a construct gcc cannot vectorize into the marked body
    would otherwise give it back silently."""
    program = _program("harris", "naive")
    source = program_to_c(program)
    lines = source.splitlines()
    (pragma,) = [k for k, line in enumerate(lines) if line.strip() == "#pragma omp simd"]
    loop = lines[pragma + 1]
    end = lines.index(" " * (len(loop) - len(loop.lstrip())) + "}", pragma + 1)
    loop_lines = range(pragma + 2, end + 2)  # 1-based, the for to its brace

    report = tmp_path / "vec.txt"
    flags = cbridge.effective_cflags() + (f"-fopt-info-vec-optimized={report}",)
    cbridge.compile_c_library(program, tmp_path / "build", flags, source).close()
    vectorized = [
        int(m.group(1))
        for m in re.finditer(r"kernel\.c:(\d+):\d+: optimized: loop vectorized", report.read_text())
    ]
    assert any(line in loop_lines for line in vectorized), report.read_text()


#: ``#pragma omp simd`` lines per program: each naive kernel's output
#: loop but pyramid's (its stride-4 gathers), the line-copy loops of the
#: gaussian-blur and box-blur circular buffers, and one border copy of
#: harris's opencv baseline.  Every pair or baseline not listed carries none.
EXPECTED_SIMD = {
    **{(p, "naive"): 1 for p in ("harris", "gaussian-blur", "sobel-magnitude", "unsharp-mask", "box-blur")},
    **{("gaussian-blur", s): 5 for s in registry.SCHEDULE_NAMES if s != "naive"},
    **{("box-blur", s): 3 for s in registry.SCHEDULE_NAMES if s != "naive"},
    ("harris", "opencv"): 1,
}

#: Every pair of the family, then harris's baselines at the default grid.
CENSUS = [(p, s) for p in registry.names() for s in registry.SCHEDULE_NAMES] + [
    pytest.param("harris", b, id=f"harris-{b}-default") for b in registry.get("harris").baselines
]


@pytest.mark.parametrize("name, schedule", CENSUS)
def test_census(name, schedule):
    lines = program_to_c(_program(name, schedule)).splitlines()
    marked = [k for k, line in enumerate(lines) if line.strip() == "#pragma omp simd"]
    assert len(marked) == EXPECTED_SIMD.get((name, schedule), 0)
    assert all(lines[k + 1].lstrip().startswith("for (") for k in marked)
