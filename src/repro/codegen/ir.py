"""The imperative intermediate representation produced by code generation.

Low-level RISE programs are translated into this loop-nest IR, from which
the repository derives three things:

* readable C99 (``repro.codegen.cprint``) — compilable with a host C
  compiler for end-to-end integration tests;
* an executable Python function (``repro.exec``) used as the reference
  runtime for correctness/PSNR validation;
* an analytic cost estimate on a modeled ARM CPU (``repro.perf``).

Sizes stay *symbolic* (:class:`~repro.nat.Nat`): one compiled program is
instantiated for many image sizes by binding its size variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Optional, Union

from repro.nat import Nat, nat

__all__ = [
    "ScalarKind",
    "IExpr",
    "IConst",
    "FConst",
    "NatE",
    "Var",
    "Load",
    "VLoad",
    "Broadcast",
    "VShuffle",
    "VPack",
    "VLane",
    "BinOp",
    "UnOp",
    "Stmt",
    "Block",
    "For",
    "LoopKind",
    "DeclScalar",
    "DeclVec",
    "Assign",
    "Store",
    "VStore",
    "AllocStmt",
    "Comment",
    "Buffer",
    "ImpFunction",
    "ImpProgram",
    "walk_stmts",
    "walk_exprs",
    "count_ir_nodes",
    "op_histogram",
]


class ScalarKind(Enum):
    F32 = "float"
    I32 = "int"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class IExpr:
    """Base class of imperative expressions (scalar, index or vector)."""

    def children(self) -> list["IExpr"]:
        return []


@dataclass(frozen=True)
class IConst(IExpr):
    value: int


@dataclass(frozen=True)
class FConst(IExpr):
    value: float


@dataclass(frozen=True)
class NatE(IExpr):
    """A symbolic size used in index arithmetic; bound at instantiation."""

    value: Nat


@dataclass(frozen=True)
class Var(IExpr):
    """A loop variable, scalar temporary or vector register."""

    name: str


@dataclass(frozen=True)
class Load(IExpr):
    buffer: str
    index: IExpr

    def children(self) -> list[IExpr]:
        return [self.index]


@dataclass(frozen=True)
class VLoad(IExpr):
    """Load ``width`` consecutive floats starting at ``index``.

    ``aligned`` records whether the start is a multiple of the width —
    the distinction of paper fig. 7 that the cost model charges for.
    """

    buffer: str
    index: IExpr
    width: int
    aligned: bool = False

    def children(self) -> list[IExpr]:
        return [self.index]


@dataclass(frozen=True)
class Broadcast(IExpr):
    value: IExpr
    width: int

    def children(self) -> list[IExpr]:
        return [self.value]


@dataclass(frozen=True)
class VShuffle(IExpr):
    """Concatenate two width-lane vectors and take lanes
    [offset, offset+width) — the shuffle of paper fig. 7's optimized
    unaligned-load scheme and of vector register rotation."""

    a: IExpr
    b: IExpr
    offset: int
    width: int

    def children(self) -> list[IExpr]:
        return [self.a, self.b]


@dataclass(frozen=True)
class VPack(IExpr):
    """Build a vector from individual lane expressions (non-contiguous
    gather; more expensive than a VLoad)."""

    lanes: tuple[IExpr, ...]

    def children(self) -> list[IExpr]:
        return list(self.lanes)


@dataclass(frozen=True)
class VLane(IExpr):
    """Extract one lane of a vector value."""

    vec: IExpr
    lane: IExpr

    def children(self) -> list[IExpr]:
        return [self.vec, self.lane]


_BIN_OPS = ("add", "sub", "mul", "div", "min", "max", "mod", "idiv")
_UN_OPS = ("neg", "abs", "sqrt")


@dataclass(frozen=True)
class BinOp(IExpr):
    op: str
    a: IExpr
    b: IExpr

    def __post_init__(self) -> None:
        if self.op not in _BIN_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    def children(self) -> list[IExpr]:
        return [self.a, self.b]


@dataclass(frozen=True)
class UnOp(IExpr):
    op: str
    a: IExpr

    def __post_init__(self) -> None:
        if self.op not in _UN_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")

    def children(self) -> list[IExpr]:
        return [self.a]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class of imperative statements."""


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


class LoopKind(Enum):
    SEQ = "seq"
    PARALLEL = "parallel"
    VEC = "vec"  # a strip loop whose body computes on vectors
    UNROLLED = "unrolled"


@dataclass
class For(Stmt):
    var: str
    extent: IExpr
    body: Stmt
    kind: LoopKind = LoopKind.SEQ
    step: int = 1


@dataclass
class DeclScalar(Stmt):
    var: str
    init: Optional[IExpr] = None
    kind: ScalarKind = ScalarKind.F32


@dataclass
class DeclVec(Stmt):
    var: str
    width: int = 4
    init: Optional[IExpr] = None


@dataclass
class Assign(Stmt):
    var: str
    value: IExpr


@dataclass
class Store(Stmt):
    buffer: str
    index: IExpr
    value: IExpr


@dataclass
class VStore(Stmt):
    buffer: str
    index: IExpr
    value: IExpr
    width: int = 4
    aligned: bool = False


@dataclass
class Comment(Stmt):
    text: str


@dataclass(frozen=True)
class Buffer:
    """A flat float32 buffer with a (possibly symbolic) element count.

    ``pad`` extra elements are allocated beyond ``size`` so vector loads
    near the end of a line stay in bounds (the paper likewise rounds
    buffers up to vector-width multiples).  Only temporaries carry a
    pad: parameter buffers (kernel inputs and outputs) have pad 0, so the
    runtimes pass caller arrays straight to the kernel.  That no generated
    kernel reads past a parameter's ``size`` is checked by
    ``tests/exec/test_guard_pages.py``.  A runtime allocates
    :meth:`alloc_size` elements for any buffer it has to copy.
    """

    name: str
    size: Nat
    pad: int = 0
    addrspace: str = "global"

    def alloc_size(self) -> Nat:
        return self.size + self.pad


@dataclass
class AllocStmt(Stmt):
    buffer: Buffer


@dataclass
class ImpFunction(Stmt):
    """One generated kernel: parameters, local allocations and the body."""

    name: str
    inputs: list[Buffer]
    output: Buffer
    size_vars: list[str]
    body: Block
    temporaries: list[Buffer] = field(default_factory=list)


@dataclass
class ImpProgram:
    """A compiled pipeline: one or more kernels executed in sequence.

    The multi-kernel form models library baselines (OpenCV) and the LIFT
    per-operator compilation; the optimizing compilers produce a single
    kernel.  ``intermediates`` are the buffers written by one kernel and
    read by a later one.
    """

    name: str
    functions: list[ImpFunction]
    size_vars: list[str]
    launch_overheads: int = 1  # number of kernel launches charged

    def single(self) -> ImpFunction:
        if len(self.functions) != 1:
            raise ValueError(f"{self.name} has {len(self.functions)} kernels")
        return self.functions[0]


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def walk_stmts(stmt: Stmt) -> Iterator[Stmt]:
    yield stmt
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            yield from walk_stmts(s)
    elif isinstance(stmt, For):
        yield from walk_stmts(stmt.body)
    elif isinstance(stmt, ImpFunction):
        yield from walk_stmts(stmt.body)


def walk_exprs(stmt: Stmt) -> Iterator[IExpr]:
    def from_expr(e: IExpr) -> Iterator[IExpr]:
        yield e
        for c in e.children():
            yield from from_expr(c)

    for s in walk_stmts(stmt):
        if isinstance(s, For):
            yield from from_expr(s.extent)
        elif isinstance(s, (DeclScalar, DeclVec)):
            if s.init is not None:
                yield from from_expr(s.init)
        elif isinstance(s, Assign):
            yield from from_expr(s.value)
        elif isinstance(s, Store):
            yield from from_expr(s.index)
            yield from from_expr(s.value)
        elif isinstance(s, VStore):
            yield from from_expr(s.index)
            yield from from_expr(s.value)


def count_ir_nodes(obj: Union["ImpProgram", Stmt]) -> int:
    """Total number of IR nodes (statements + expressions) in a program or
    statement — the size metric the compile-phase profiler reports."""
    if isinstance(obj, ImpProgram):
        return sum(count_ir_nodes(f) for f in obj.functions)
    stmts = sum(1 for _ in walk_stmts(obj))
    exprs = sum(1 for _ in walk_exprs(obj))
    return stmts + exprs


def op_histogram(obj: Union["ImpProgram", Stmt]) -> dict[str, int]:
    """Static operation counts by node kind (``BinOp:add``, ``Load``,
    ``VStore``, ``For:parallel``, …) — the executor's op-count section."""
    if isinstance(obj, ImpProgram):
        out: dict[str, int] = {}
        for fn in obj.functions:
            for key, value in op_histogram(fn).items():
                out[key] = out.get(key, 0) + value
        return dict(sorted(out.items()))
    counts: dict[str, int] = {}

    def bump(key: str) -> None:
        counts[key] = counts.get(key, 0) + 1

    for s in walk_stmts(obj):
        if isinstance(s, For):
            bump(f"For:{s.kind.value}")
        elif not isinstance(s, (Block, ImpFunction)):
            bump(type(s).__name__)
    for e in walk_exprs(obj):
        if isinstance(e, BinOp):
            bump(f"BinOp:{e.op}")
        elif isinstance(e, UnOp):
            bump(f"UnOp:{e.op}")
        elif isinstance(e, (Load, VLoad, Broadcast, VShuffle, VPack, VLane)):
            bump(type(e).__name__)
    return dict(sorted(counts.items()))
