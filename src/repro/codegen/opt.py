"""Constant folding / algebraic simplification on the imperative IR.

Convolution weights contain zeros and ±1 (the sobel kernels), and unrolled
reductions start from a literal 0 — any real backend (the paper's OpenCL
compiler, or gcc on our emitted C) folds these.  Folding them in the IR
keeps the cost model's operation counts honest and the emitted code
readable.

Rules (applied bottom-up until fixpoint):
    0.0 * x -> 0.0        x * 1.0 -> x         x * -1.0 -> -x
    0.0 + x -> x          x - 0.0 -> x         c1 op c2 -> c
    broadcast/shuffle/pack of folded operands fold their children.
"""

from __future__ import annotations

from repro.codegen.ir import (
    AllocStmt,
    Assign,
    BinOp,
    Block,
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
    NatE,
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

__all__ = ["fold_program", "fold_expr", "cse_program"]


def _const(e: IExpr):
    if isinstance(e, FConst):
        return e.value
    return None


def fold_expr(e: IExpr) -> IExpr:
    if isinstance(e, BinOp):
        a = fold_expr(e.a)
        b = fold_expr(e.b)
        ca, cb = _const(a), _const(b)
        if e.op == "mul":
            if ca == 0.0 or cb == 0.0:
                return FConst(0.0)
            if ca == 1.0:
                return b
            if cb == 1.0:
                return a
            if ca == -1.0:
                return fold_expr(UnOp("neg", b))
            if cb == -1.0:
                return fold_expr(UnOp("neg", a))
            if ca is not None and cb is not None:
                import numpy as np

                return FConst(float(np.float32(ca) * np.float32(cb)))
        if e.op == "add":
            if ca == 0.0:
                return b
            if cb == 0.0:
                return a
            if ca is not None and cb is not None:
                import numpy as np

                return FConst(float(np.float32(ca) + np.float32(cb)))
            # x + (-y)  ->  x - y
            if isinstance(b, UnOp) and b.op == "neg":
                return BinOp("sub", a, b.a)
        if e.op == "sub":
            if cb == 0.0:
                return a
            if ca is not None and cb is not None:
                import numpy as np

                return FConst(float(np.float32(ca) - np.float32(cb)))
        return BinOp(e.op, a, b)
    if isinstance(e, UnOp):
        a = fold_expr(e.a)
        ca = _const(a)
        if e.op == "neg":
            if ca is not None:
                return FConst(-ca)
            if isinstance(a, UnOp) and a.op == "neg":
                return a.a
        return UnOp(e.op, a)
    if isinstance(e, Broadcast):
        return Broadcast(fold_expr(e.value), e.width)
    if isinstance(e, VShuffle):
        return VShuffle(fold_expr(e.a), fold_expr(e.b), e.offset, e.width)
    if isinstance(e, VPack):
        return VPack(tuple(fold_expr(l) for l in e.lanes))
    if isinstance(e, VLane):
        return VLane(fold_expr(e.vec), fold_expr(e.lane))
    if isinstance(e, Load):
        return Load(e.buffer, fold_expr(e.index))
    if isinstance(e, VLoad):
        return VLoad(e.buffer, fold_expr(e.index), e.width, e.aligned)
    return e


def _fold_stmt(s: Stmt) -> Stmt:
    if isinstance(s, Block):
        return Block([_fold_stmt(x) for x in s.stmts])
    if isinstance(s, For):
        return For(s.var, fold_expr(s.extent), _fold_stmt(s.body), s.kind, s.step)
    if isinstance(s, DeclScalar):
        return DeclScalar(s.var, fold_expr(s.init) if s.init else None, s.kind)
    if isinstance(s, DeclVec):
        return DeclVec(s.var, s.width, fold_expr(s.init) if s.init else None)
    if isinstance(s, Assign):
        return Assign(s.var, fold_expr(s.value))
    if isinstance(s, Store):
        return Store(s.buffer, fold_expr(s.index), fold_expr(s.value))
    if isinstance(s, VStore):
        return VStore(s.buffer, fold_expr(s.index), fold_expr(s.value), s.width, s.aligned)
    return s


def fold_program(prog: ImpProgram) -> ImpProgram:
    """Return a copy of the program with constant-folded expressions."""
    from repro.observe.core import active, span
    from repro.codegen.ir import count_ir_nodes

    with span("codegen.fold") as fold_span:
        functions = [
            ImpFunction(
                name=fn.name,
                inputs=fn.inputs,
                output=fn.output,
                size_vars=fn.size_vars,
                body=_fold_stmt(fn.body),
                temporaries=fn.temporaries,
            )
            for fn in prog.functions
        ]
        out = ImpProgram(
            name=prog.name,
            functions=functions,
            size_vars=prog.size_vars,
            launch_overheads=prog.launch_overheads,
        )
        out.vector_fallbacks = getattr(prog, "vector_fallbacks", [])
        out.size_constraints = getattr(prog, "size_constraints", [])
        if active() is not None:
            fold_span.meta["nodes_in"] = count_ir_nodes(prog)
            fold_span.meta["nodes_out"] = count_ir_nodes(out)
        return out


# ---------------------------------------------------------------------------
# Block-level common-subexpression elimination
# ---------------------------------------------------------------------------


def _is_vector_expr(e: IExpr, vector_vars) -> bool:
    if isinstance(e, (VLoad, Broadcast, VShuffle, VPack)):
        return True
    if isinstance(e, Var):
        return e.name in vector_vars
    if isinstance(e, (BinOp, UnOp)):
        return any(_is_vector_expr(c, vector_vars) for c in e.children())
    return False


def _vector_width(e: IExpr, vector_vars: dict) -> int:
    """Lane width of a vector-valued expression (hoisted temporaries must
    be declared at the width of the value they hold, not a default)."""
    if isinstance(e, (VLoad, Broadcast, VShuffle)):
        return e.width
    if isinstance(e, VPack):
        return len(e.lanes)
    if isinstance(e, Var):
        return vector_vars[e.name]
    if isinstance(e, (BinOp, UnOp)):
        for c in e.children():
            if _is_vector_expr(c, vector_vars):
                return _vector_width(c, vector_vars)
    raise TypeError(f"{type(e).__name__} is not vector-valued")


class _CseState:
    def __init__(self) -> None:
        self.counter = 0
        self.vector_vars: dict[str, int] = {}

    def fresh(self) -> str:
        self.counter += 1
        return f"cse{self.counter}"


_LEAVES = (Var, IConst, FConst, NatE)
_OPAQUE = (Load, VLoad, VLane)  # index expressions stay as they are (integer context)


class _SegmentCse:
    """CSE over a straight-line run of value statements.

    Subexpressions repeated across the segment are hoisted into
    temporaries — this models what any real backend (LLVM under Halide or
    the OpenCL compiler under RISE) does, and it is essential for fair
    operation counts: e.g. a structure-tensor sum referenced by both the
    determinant and the trace must be computed once.

    Expressions reading a buffer that the segment also writes are left
    untouched (stores act as barriers for them).

    Structurally equal subexpressions are given the same *value number*,
    built bottom-up from a node's type, its own fields and its children's
    numbers, so nothing here hashes or compares a whole tree; the size of
    a subexpression and whether it reads a stored buffer are derived in
    the same step.  One segment can be a single statement of 40,000
    nodes (harris naive).  The tables live and die with the instance.
    """

    def __init__(self, stmts: list[Stmt], state: _CseState) -> None:
        self.stmts = stmts
        self.state = state
        self.stored = {s.buffer for s in stmts if isinstance(s, (Store, VStore))}
        self.numbers: dict[tuple, int] = {}  # (type, own fields, child numbers)
        self.size: list[int] = []  # per value number: nodes in the subexpression
        self.reads_stored: list[bool] = []  # ... loads from a buffer in ``stored``
        self.counts: list[int] = []  # ... occurrences outside index expressions
        # id(node) -> value number of the nodes ``rewrite`` visits; all are
        # reachable from ``stmts``, so no id is reused while this table lives
        self.number_of: dict[int, int] = {}
        self.hoisted: dict[int, str] = {}  # value number -> temporary
        self.out: list[Stmt] = []

    def number(self, e: IExpr, counted: bool = True) -> int:
        """Value number of ``e``.  ``counted`` is false inside index
        expressions, whose nodes are numbered but never hoisted."""
        inner = counted and not isinstance(e, _OPAQUE)
        key: list = [type(e)]
        kids: list[int] = []
        for name in e.__dataclass_fields__:  # vars(e) would give every node a dict
            field = getattr(e, name)
            if isinstance(field, IExpr):
                field = self.number(field, inner)
                kids.append(field)
            elif isinstance(field, tuple):  # VPack lanes
                field = tuple(self.number(lane, inner) for lane in field)
                kids.extend(field)
            key.append(field)
        n = self.numbers.setdefault(tuple(key), len(self.size))
        if n == len(self.size):
            self.size.append(1 + sum(self.size[k] for k in kids))
            self.reads_stored.append(
                (isinstance(e, (Load, VLoad)) and e.buffer in self.stored)
                or any(self.reads_stored[k] for k in kids)
            )
            self.counts.append(0)
        if counted and not isinstance(e, _LEAVES):
            self.counts[n] += 1
            self.number_of[id(e)] = n
        return n

    def rewrite(self, e: IExpr) -> IExpr:
        if isinstance(e, _LEAVES):
            return e
        n = self.number_of[id(e)]
        if n in self.hoisted:
            return Var(self.hoisted[n])
        if isinstance(e, _OPAQUE):
            rebuilt: IExpr = e
        else:
            rebuilt = _rebuild_expr(e, [self.rewrite(c) for c in e.children()])
        worth = (
            self.counts[n] >= 2
            and self.size[n] >= 2
            and not isinstance(e, Broadcast)
            and not self.reads_stored[n]
        )
        if not worth:
            return rebuilt
        state = self.state
        name = state.fresh()
        if _is_vector_expr(rebuilt, state.vector_vars):
            width = _vector_width(rebuilt, state.vector_vars)
            state.vector_vars[name] = width
            self.out.append(DeclVec(name, width, rebuilt))
        else:
            self.out.append(DeclScalar(name, rebuilt))
        self.hoisted[n] = name
        return Var(name)

    def run(self) -> list[Stmt]:
        for s in self.stmts:
            value = s.init if isinstance(s, (DeclScalar, DeclVec)) else s.value
            if value is not None:
                self.number(value)

        out, rewrite = self.out, self.rewrite
        for s in self.stmts:
            if isinstance(s, Store):
                out.append(Store(s.buffer, s.index, rewrite(s.value)))
            elif isinstance(s, VStore):
                out.append(VStore(s.buffer, s.index, rewrite(s.value), s.width, s.aligned))
            elif isinstance(s, Assign):
                out.append(Assign(s.var, rewrite(s.value)))
            elif isinstance(s, DeclScalar) and s.init is not None:
                out.append(DeclScalar(s.var, rewrite(s.init), s.kind))
            elif isinstance(s, DeclVec) and s.init is not None:
                self.state.vector_vars[s.var] = s.width
                out.append(DeclVec(s.var, s.width, rewrite(s.init)))
            else:
                out.append(s)
        return out


def _cse_stmt(s: Stmt, state: _CseState) -> Stmt:
    if isinstance(s, Block):
        new: list[Stmt] = []
        run: list[Stmt] = []

        def flush() -> None:
            if run:
                new.extend(_SegmentCse(run, state).run())
                run.clear()

        for sub in s.stmts:
            if isinstance(sub, (Store, VStore, Assign, DeclScalar, DeclVec)):
                if isinstance(sub, DeclVec):
                    state.vector_vars[sub.var] = sub.width
                run.append(sub)
            else:
                flush()
                new.append(_cse_stmt(sub, state))
        flush()
        return Block(new)
    if isinstance(s, For):
        return For(s.var, s.extent, _cse_stmt(s.body, state), s.kind, s.step)
    return s


def _rebuild_expr(e: IExpr, kids: list[IExpr]) -> IExpr:
    if isinstance(e, BinOp):
        return BinOp(e.op, kids[0], kids[1])
    if isinstance(e, UnOp):
        return UnOp(e.op, kids[0])
    if isinstance(e, Load):
        return Load(e.buffer, kids[0])
    if isinstance(e, VLoad):
        return VLoad(e.buffer, kids[0], e.width, e.aligned)
    if isinstance(e, Broadcast):
        return Broadcast(kids[0], e.width)
    if isinstance(e, VShuffle):
        return VShuffle(kids[0], kids[1], e.offset, e.width)
    if isinstance(e, VPack):
        return VPack(tuple(kids))
    if isinstance(e, VLane):
        return VLane(kids[0], kids[1])
    return e


def cse_program(prog: ImpProgram) -> ImpProgram:
    """Apply block-level CSE to every kernel."""
    from repro.observe.core import active, span
    from repro.codegen.ir import count_ir_nodes

    with span("codegen.cse") as cse_span:
        state = _CseState()
        functions = [
            ImpFunction(
                name=fn.name,
                inputs=fn.inputs,
                output=fn.output,
                size_vars=fn.size_vars,
                body=_cse_stmt(fn.body, state),
                temporaries=fn.temporaries,
            )
            for fn in prog.functions
        ]
        out = ImpProgram(
            name=prog.name,
            functions=functions,
            size_vars=prog.size_vars,
            launch_overheads=prog.launch_overheads,
        )
        out.vector_fallbacks = getattr(prog, "vector_fallbacks", [])
        out.size_constraints = getattr(prog, "size_constraints", [])
        if active() is not None:
            cse_span.meta["nodes_in"] = count_ir_nodes(prog)
            cse_span.meta["nodes_out"] = count_ir_nodes(out)
        return out
