"""Translation of low-level RISE programs to the imperative IR.

The translation follows the acceptor/destination-passing style of the
formal translation the paper's code generator derives from: every
expression is generated *into* a destination.  View patterns (``zip``,
``transpose``, ``slide``, ``join``, projections, high-level ``map`` used
as a view) become index transformations and cost nothing; only the
low-level patterns drive loops, allocation and data movement:

* ``mapSeq`` / ``mapSeqUnroll``  -> sequential (unrolled) loops
* ``mapGlobal``                  -> a parallel loop over threads
* ``mapSeqVec``                  -> a strip-mined SIMD loop (+ scalar tail)
* ``reduceSeq(Unroll)``          -> accumulation loops / folded expressions
* ``toMem``                      -> explicit materialization
* ``circularBuffer``             -> streamed stages with modulo-indexed
                                    line buffers (prologue + steady state)
* ``rotateValues``               -> rotating scalar or vector registers,
                                    with fig.-7 style shuffles when the
                                    consumer is vectorized
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.nat import Nat, nat
from repro.rise import expr as E
from repro.rise.typecheck import Typing, infer_types
from repro.rise.types import (
    ArrayType,
    DataType,
    PairType,
    ScalarType,
    Type,
    VectorType,
)
from repro.rise.traverse import app_spine
from repro.codegen.ir import (
    AllocStmt,
    Assign,
    BinOp,
    Block,
    Broadcast,
    Buffer,
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
    Store,
    UnOp,
    VLane,
    VLoad,
    VPack,
    VShuffle,
    VStore,
    Var,
)
from repro.codegen.views import (
    ArrV,
    CodegenError,
    FunV,
    PairV,
    ScalarV,
    View,
    idx_add,
    idx_div,
    idx_mod,
    idx_mul,
    nat_expr,
)
from repro.codegen.opt import _is_vector_expr, _vector_width
from repro.codegen.vectorize import VectorizeError, vectorize_stmts

__all__ = ["compile_program", "CodegenError"]

#: Slack floats after each temporary and line-buffer row, so vector loads
#: at line ends stay in bounds.  Parameter buffers get none (see
#: :class:`~repro.codegen.ir.Buffer`).
BUFFER_PAD = 8

_OP_MAP = {"add": "add", "sub": "sub", "mul": "mul", "div": "div", "min": "min", "max": "max"}


# ---------------------------------------------------------------------------
# Destinations
# ---------------------------------------------------------------------------


class Dest:
    """Where generated values are written."""


@dataclass
class DCell(Dest):
    """A scalar cell in a flat buffer."""

    buffer: str
    index: IExpr


@dataclass
class DPair(Dest):
    fst: Dest
    snd: Dest


@dataclass
class DArr(Dest):
    size: Nat
    at_fn: Callable[[IExpr], Dest]

    def at(self, index: IExpr) -> Dest:
        return self.at_fn(index)


def dest_for_buffer(dtype: DataType, buffers: dict[tuple, str], offsets: dict[tuple, IExpr]) -> Dest:
    """Build a destination tree over per-leaf flat buffers (SoA layout for
    arrays of pairs)."""
    if isinstance(dtype, ScalarType):
        return DCell(buffers[()], offsets[()])
    if isinstance(dtype, VectorType):
        return DCell(buffers[()], offsets[()])  # vectors stored as width scalars
    if isinstance(dtype, PairType):
        return DPair(
            dest_for_buffer(
                dtype.fst,
                {p[1:]: b for p, b in buffers.items() if p and p[0] == 0},
                {p[1:]: o for p, o in offsets.items() if p and p[0] == 0},
            ),
            dest_for_buffer(
                dtype.snd,
                {p[1:]: b for p, b in buffers.items() if p and p[0] == 1},
                {p[1:]: o for p, o in offsets.items() if p and p[0] == 1},
            ),
        )
    if isinstance(dtype, ArrayType):
        elem = dtype.elem

        def at(i: IExpr) -> Dest:
            new_offsets = {
                p: idx_add(off, idx_mul(i, nat_expr(leaf_stride(elem, p))))
                for p, off in offsets.items()
            }
            return dest_for_buffer(elem, buffers, new_offsets)

        return DArr(dtype.size, at)
    raise CodegenError(f"cannot build destination for {dtype!r}")


def scalar_leaf_paths(dtype: DataType) -> list[tuple]:
    """Paths (through pairs) to the scalar leaves of a data type."""
    if isinstance(dtype, (ScalarType, VectorType)):
        return [()]
    if isinstance(dtype, PairType):
        return [(0,) + p for p in scalar_leaf_paths(dtype.fst)] + [
            (1,) + p for p in scalar_leaf_paths(dtype.snd)
        ]
    if isinstance(dtype, ArrayType):
        return scalar_leaf_paths(dtype.elem)
    raise CodegenError(f"no leaves for {dtype!r}")


def leaf_stride(dtype: DataType, path: tuple) -> Nat:
    """Scalars per element of ``dtype`` along the given leaf path."""
    if isinstance(dtype, ScalarType):
        return nat(1)
    if isinstance(dtype, VectorType):
        return dtype.size
    if isinstance(dtype, PairType):
        side = dtype.fst if path[0] == 0 else dtype.snd
        return leaf_stride(side, path[1:])
    if isinstance(dtype, ArrayType):
        return dtype.size * leaf_stride(dtype.elem, path)
    raise CodegenError(f"no stride for {dtype!r}")


def buffer_view(dtype: DataType, buffers: dict[tuple, str], offsets: dict[tuple, IExpr]) -> View:
    """The read view matching :func:`dest_for_buffer`'s layout."""
    if isinstance(dtype, ScalarType):
        return ScalarV(Load(buffers[()], offsets[()]))
    if isinstance(dtype, VectorType):
        width = dtype.size.constant_value()
        return ScalarV(VLoad(buffers[()], offsets[()], width, aligned=False))
    if isinstance(dtype, PairType):
        return PairV(
            buffer_view(
                dtype.fst,
                {p[1:]: b for p, b in buffers.items() if p and p[0] == 0},
                {p[1:]: o for p, o in offsets.items() if p and p[0] == 0},
            ),
            buffer_view(
                dtype.snd,
                {p[1:]: b for p, b in buffers.items() if p and p[0] == 1},
                {p[1:]: o for p, o in offsets.items() if p and p[0] == 1},
            ),
        )
    if isinstance(dtype, ArrayType):
        elem = dtype.elem

        def at(i: IExpr) -> View:
            new_offsets = {
                p: idx_add(off, idx_mul(i, nat_expr(leaf_stride(elem, p))))
                for p, off in offsets.items()
            }
            return buffer_view(elem, buffers, new_offsets)

        return ArrV(dtype.size, at)
    raise CodegenError(f"cannot view {dtype!r}")


# ---------------------------------------------------------------------------
# Codegen context
# ---------------------------------------------------------------------------


class Ctx:
    def __init__(self, typing: Typing):
        self.typing = typing
        self._blocks: list[list] = [[]]
        self._counter = itertools.count()
        self.all_buffers: list[Buffer] = []
        self.vector_fallbacks: list[str] = []
        self.vector_vars: dict[str, int] = {}

    # -- emission --------------------------------------------------------

    def emit(self, stmt) -> None:
        self._blocks[-1].append(stmt)

    def push(self) -> None:
        self._blocks.append([])

    def pop(self) -> Block:
        return Block(self._blocks.pop())

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self._counter)}"

    def alloc(self, prefix: str, size: Nat, addrspace: str = "global") -> str:
        name = self.fresh(prefix)
        buffer = Buffer(name, size, pad=BUFFER_PAD, addrspace=addrspace)
        self.all_buffers.append(buffer)
        self.emit(AllocStmt(buffer))
        return name

    def type_of(self, node: E.Expr) -> Type:
        return self.typing.of(node)

    def data_type_of(self, node: E.Expr) -> DataType:
        t = self.typing.of(node)
        if not isinstance(t, DataType):
            raise CodegenError(f"expected data type, found {t!r}")
        return t


def _nat_is_multiple(n_expr: IExpr, width: int) -> bool:
    """Conservative alignment oracle for index rest-expressions."""
    if isinstance(n_expr, IConst):
        return n_expr.value % width == 0
    if isinstance(n_expr, NatE):
        return n_expr.value.divide_exact(nat(width)) is not None
    if isinstance(n_expr, BinOp) and n_expr.op == "add":
        return _nat_is_multiple(n_expr.a, width) and _nat_is_multiple(n_expr.b, width)
    if isinstance(n_expr, BinOp) and n_expr.op == "mul":
        return _nat_is_multiple(n_expr.a, width) or _nat_is_multiple(n_expr.b, width)
    return False


# ---------------------------------------------------------------------------
# Expression evaluation (to views)
# ---------------------------------------------------------------------------


def ev(node: E.Expr, env: Mapping[str, View], ctx: Ctx) -> View:
    if isinstance(node, E.Identifier):
        try:
            return env[node.name]
        except KeyError:
            raise CodegenError(f"unbound identifier {node.name!r}") from None
    if isinstance(node, E.Literal):
        return ScalarV(FConst(float(node.value)))
    if isinstance(node, E.ArrayLiteral):
        def build(values) -> View:
            if isinstance(values, tuple):
                return ArrV(
                    nat(len(values)),
                    lambda i, vs=values: _const_index(vs, i, build),
                )
            return ScalarV(FConst(float(values)))

        return build(node.values)
    if isinstance(node, E.Lambda):
        captured = dict(env)

        def apply_fn(arg: View, _node=node, _env=captured) -> View:
            inner = dict(_env)
            inner[_node.param.name] = arg
            return ev(_node.body, inner, ctx)

        return FunV(apply_fn)
    if isinstance(node, E.Let):
        bound = _bind_let(node.ident.name, node.value, env, ctx)
        inner = dict(env)
        inner[node.ident.name] = bound
        return ev(node.body, inner, ctx)
    if isinstance(node, E.App):
        head, args = app_spine(node)
        if isinstance(head, E.Primitive):
            from repro.rise.expr import primitive_arity

            arity = primitive_arity(head)
            if len(args) == arity:
                return _apply_prim(head, args, node, env, ctx)
            if len(args) < arity:
                return _partial_prim(head, args, node, env, ctx)
            raise CodegenError(f"over-applied primitive {head.name}")
        fun_view = ev(node.fun, env, ctx)
        arg_view = ev(node.arg, env, ctx)
        if not isinstance(fun_view, FunV):
            raise CodegenError("applying a non-function value")
        return fun_view(arg_view)
    if isinstance(node, E.Primitive):
        return _partial_prim(node, [], node, env, ctx)
    raise CodegenError(f"cannot evaluate {type(node).__name__}")


def _const_index(values: tuple, index: IExpr, build) -> View:
    if isinstance(index, IConst):
        return build(values[index.value])
    raise CodegenError("array literal indexed with non-constant index")


def _bind_let(name: str, value_node: E.Expr, env: Mapping[str, View], ctx: Ctx) -> View:
    """Scalars are evaluated once into a temporary; everything else stays a
    (lazy) view.  A scalar-typed RISE value may still hold a *vector*
    expression when it is evaluated inside a vectorized context (rotation
    windows); the temporary's kind and lane width follow the expression."""
    vtype = ctx.type_of(value_node)
    value = ev(value_node, env, ctx)
    if isinstance(vtype, (ScalarType, VectorType)) and isinstance(value, ScalarV):
        if _is_vector_expr(value.expr, ctx.vector_vars):
            temp = ctx.fresh(f"{name.split('_')[0]}_v")
            width = _vector_width(value.expr, ctx.vector_vars)
            ctx.emit(DeclVec(temp, width, value.expr))
            ctx.vector_vars[temp] = width
            return ScalarV(Var(temp))
        temp = ctx.fresh(f"{name.split('_')[0]}_t")
        ctx.emit(DeclScalar(temp, value.expr))
        return ScalarV(Var(temp))
    return value


def _partial_prim(head: E.Primitive, args: list[E.Expr], node: E.Expr, env, ctx) -> View:
    from repro.rise.expr import primitive_arity

    arity = primitive_arity(head)
    collected = [ev(a, env, ctx) for a in args]

    def make(views: tuple) -> FunV:
        def apply_fn(arg: View) -> View:
            new = views + (arg,)
            if len(new) == arity:
                return _apply_prim_views(head, list(new), None, ctx)
            return make(new)

        return FunV(apply_fn)

    return make(tuple(collected))


def _apply_prim(head: E.Primitive, args: list[E.Expr], node: E.Expr, env, ctx) -> View:
    views = [ev(a, env, ctx) for a in args]
    return _apply_prim_views(head, views, node, ctx)


def _size_of_view(v: View) -> Nat:
    if isinstance(v, ArrV):
        return v.size
    raise CodegenError(f"expected array view, got {type(v).__name__}")


def _apply_prim_views(
    head: E.Primitive, views: list[View], node: Optional[E.Expr], ctx: Ctx
) -> View:
    # --- map family as lazy views -------------------------------------
    if isinstance(head, E.Map):
        f, xs = views
        assert isinstance(xs, ArrV)
        return ArrV(xs.size, lambda i: f(xs.at(i)))
    if isinstance(head, E.MapVec):
        f, v = views
        return f(v)
    # --- reductions ----------------------------------------------------
    if isinstance(head, (E.ReduceSeqUnroll,)) or (
        type(head) in (E.Reduce, E.ReduceSeq) and _const_size(views[2])
    ):
        op, init, xs = views
        assert isinstance(xs, ArrV)
        n = xs.size.constant_value()
        acc = init
        for k in range(n):
            acc = op(acc)(xs.at_const(k))
        return acc
    if isinstance(head, E.Reduce):  # reduceSeq / reduce with symbolic size
        op, init, xs = views
        assert isinstance(xs, ArrV)
        if not isinstance(init, ScalarV):
            raise CodegenError("loop reduction needs a scalar accumulator")
        acc = ctx.fresh("acc")
        ctx.emit(DeclScalar(acc, init.expr))
        loop_var = ctx.fresh("r")
        ctx.push()
        elem = xs.at(Var(loop_var))
        result = op(ScalarV(Var(acc)))(elem)
        if not isinstance(result, ScalarV):
            raise CodegenError("reduction operator must yield a scalar")
        ctx.emit(Assign(acc, result.expr))
        body = ctx.pop()
        ctx.emit(For(loop_var, nat_expr(xs.size), body, LoopKind.SEQ))
        return ScalarV(Var(acc))
    # --- tuples ---------------------------------------------------------
    if isinstance(head, E.Zip):
        a, b = views
        assert isinstance(a, ArrV) and isinstance(b, ArrV)
        return ArrV(a.size, lambda i: PairV(a.at(i), b.at(i)))
    if isinstance(head, E.Unzip):
        (ps,) = views
        assert isinstance(ps, ArrV)
        return PairV(
            ArrV(ps.size, lambda i: _fst(ps.at(i))),
            ArrV(ps.size, lambda i: _snd(ps.at(i))),
        )
    if isinstance(head, E.Fst):
        return _fst(views[0])
    if isinstance(head, E.Snd):
        return _snd(views[0])
    if isinstance(head, E.MakePair):
        return PairV(views[0], views[1])
    # --- index views ------------------------------------------------------
    if isinstance(head, E.Transpose):
        (xs,) = views
        assert isinstance(xs, ArrV)
        inner_size = _size_of_view(xs.at_const(0))
        return ArrV(
            inner_size, lambda i: ArrV(xs.size, lambda j: _arr(xs.at(j)).at(i))
        )
    if isinstance(head, E.Slide):
        (xs,) = views
        assert isinstance(xs, ArrV)
        sz, sp = head.size, head.step
        out = (xs.size - sz).divide_exact(sp)
        if out is None:
            out = (xs.size - sz) // sp
        out_size = out + 1
        return ArrV(
            out_size,
            lambda i: ArrV(sz, lambda j: xs.at(idx_add(idx_mul(i, nat_expr(sp)), j))),
        )
    if isinstance(head, E.Split):
        (xs,) = views
        assert isinstance(xs, ArrV)
        chunk = head.chunk
        out_size = xs.size.divide_exact(chunk)
        if out_size is None:
            out_size = xs.size // chunk
        return ArrV(
            out_size,
            lambda i: ArrV(
                chunk, lambda j: xs.at(idx_add(idx_mul(i, nat_expr(chunk)), j))
            ),
        )
    if isinstance(head, E.Join):
        (xs,) = views
        assert isinstance(xs, ArrV)
        inner = _size_of_view(xs.at_const(0))
        return ArrV(
            xs.size * inner,
            lambda i: _arr(xs.at(idx_div(i, nat_expr(inner)))).at(
                idx_mod(i, nat_expr(inner))
            ),
        )
    # --- scalar / vector arithmetic -----------------------------------
    if isinstance(head, E.ScalarOp):
        a, b = views
        if not (isinstance(a, ScalarV) and isinstance(b, ScalarV)):
            raise CodegenError(f"arithmetic on non-scalar views ({head.op})")
        return ScalarV(BinOp(_OP_MAP[head.op], a.expr, b.expr))
    if isinstance(head, E.UnaryOp):
        (a,) = views
        assert isinstance(a, ScalarV)
        return ScalarV(UnOp(head.op, a.expr))
    # --- vectors ----------------------------------------------------------
    if isinstance(head, E.AsVector):
        (xs,) = views
        assert isinstance(xs, ArrV)
        width = head.width.constant_value()
        out_size = xs.size.divide_exact(head.width) or (xs.size // head.width)

        def vec_at(i: IExpr) -> View:
            base = idx_mul(i, IConst(width))
            lanes = []
            for lane in range(width):
                v = xs.at(idx_add(base, IConst(lane)))
                if not isinstance(v, ScalarV):
                    raise CodegenError("asVector over non-scalar elements")
                lanes.append(v.expr)
            packed = _pack_lanes(lanes, width)
            return ScalarV(packed)

        return ArrV(out_size, vec_at)
    if isinstance(head, E.AsScalar):
        (vs,) = views
        assert isinstance(vs, ArrV)
        if node is not None:
            out_type = ctx.data_type_of(node)
            assert isinstance(out_type, ArrayType)
            out_size = out_type.size
            width_nat = out_size.divide_exact(vs.size)
            width = width_nat.constant_value() if width_nat else 4
        else:
            width = 4
            out_size = vs.size * 4

        def scalar_at(i: IExpr) -> View:
            v = vs.at(idx_div(i, IConst(width)))
            assert isinstance(v, ScalarV)
            return ScalarV(VLane(v.expr, idx_mod(i, IConst(width))))

        return ArrV(out_size, scalar_at)
    if isinstance(head, E.VectorFromScalar):
        (x,) = views
        assert isinstance(x, ScalarV)
        return ScalarV(Broadcast(x.expr, head.width.constant_value()))
    # --- memory -----------------------------------------------------------
    if isinstance(head, E.ToMem):
        (value,) = views
        if node is None:
            return value
        dtype = ctx.data_type_of(node)
        slot_buffers, slot_dest, slot_view = _alloc_slot(dtype, ctx, "tmem")
        store_view(value, slot_dest, ctx)
        return slot_view
    # --- streaming patterns used as plain values (fallback semantics) ---
    if isinstance(head, E.CircularBuffer):
        load, xs = views
        assert isinstance(xs, ArrV)
        m = head.size
        loaded = ArrV(xs.size, lambda i: load(xs.at(i)))
        out_size = xs.size - m + 1
        return ArrV(out_size, lambda i: ArrV(m, lambda j: loaded.at(idx_add(i, j))))
    if isinstance(head, E.RotateValues):
        (xs,) = views
        assert isinstance(xs, ArrV)
        m = head.size
        out_size = xs.size - m + 1
        return ArrV(out_size, lambda i: ArrV(m, lambda j: xs.at(idx_add(i, j))))
    raise CodegenError(f"no code generation for primitive {head.name}")


def _const_size(v: View) -> bool:
    return isinstance(v, ArrV) and v.size.is_constant() and v.size.constant_value() <= 16


def _fst(v: View) -> View:
    if isinstance(v, PairV):
        return v.fst
    raise CodegenError("fst of non-pair view")


def _snd(v: View) -> View:
    if isinstance(v, PairV):
        return v.snd
    raise CodegenError("snd of non-pair view")


def _arr(v: View) -> ArrV:
    if isinstance(v, ArrV):
        return v
    raise CodegenError("expected an array view")


def _pack_lanes(lanes: list[IExpr], width: int) -> IExpr:
    """Pack lane expressions, recognizing the contiguous-load case."""
    first = lanes[0]
    if isinstance(first, Load):
        contiguous = all(
            isinstance(l, Load)
            and l.buffer == first.buffer
            and l.index == idx_add(first.index, IConst(k))
            for k, l in enumerate(lanes)
        )
        if contiguous:
            return VLoad(first.buffer, first.index, width, aligned=False)
    return VPack(tuple(lanes))


def _alloc_slot(dtype: DataType, ctx: Ctx, prefix: str):
    """Allocate buffers for a value of ``dtype``; return (buffers, dest, view)."""
    paths = scalar_leaf_paths(dtype)
    buffers = {}
    offsets = {}
    for path in paths:
        size = _total_leaf_size(dtype, path)
        buffers[path] = ctx.alloc(prefix, size)
        offsets[path] = IConst(0)
    return buffers, dest_for_buffer(dtype, buffers, offsets), buffer_view(dtype, buffers, offsets)


def _total_leaf_size(dtype: DataType, path: tuple) -> Nat:
    if isinstance(dtype, (ScalarType,)):
        return nat(1)
    if isinstance(dtype, VectorType):
        return dtype.size
    if isinstance(dtype, PairType):
        side = dtype.fst if path[0] == 0 else dtype.snd
        return _total_leaf_size(side, path[1:])
    if isinstance(dtype, ArrayType):
        return dtype.size * _total_leaf_size(dtype.elem, path)
    raise CodegenError(f"no size for {dtype!r}")


# ---------------------------------------------------------------------------
# Statement generation into destinations
# ---------------------------------------------------------------------------


def store_view(view: View, dest: Dest, ctx: Ctx) -> None:
    if isinstance(dest, DCell):
        if not isinstance(view, ScalarV):
            raise CodegenError(f"storing {type(view).__name__} into a scalar cell")
        ctx.emit(Store(dest.buffer, dest.index, view.expr))
        return
    if isinstance(dest, DPair):
        store_view(_fst(view), dest.fst, ctx)
        store_view(_snd(view), dest.snd, ctx)
        return
    if isinstance(dest, DArr):
        arr = _arr(view)
        loop_var = ctx.fresh("c")
        ctx.push()
        store_view(arr.at(Var(loop_var)), dest.at(Var(loop_var)), ctx)
        body = ctx.pop()
        ctx.emit(For(loop_var, nat_expr(dest.size), body, LoopKind.SEQ))
        return
    raise CodegenError(f"unknown destination {type(dest).__name__}")


def gen_into(node: E.Expr, dest: Dest, env: Mapping[str, View], ctx: Ctx) -> None:
    """Generate statements computing ``node`` into ``dest``."""
    if isinstance(node, E.Let):
        bound = _bind_let(node.ident.name, node.value, env, ctx)
        inner = dict(env)
        inner[node.ident.name] = bound
        gen_into(node.body, dest, inner, ctx)
        return
    if isinstance(node, E.App) and isinstance(node.fun, E.Lambda):
        lam = node.fun
        bound = _bind_let(lam.param.name, node.arg, env, ctx)
        inner = dict(env)
        inner[lam.param.name] = bound
        gen_into(lam.body, dest, inner, ctx)
        return

    head, args = app_spine(node)

    if isinstance(head, E.MakePair) and len(args) == 2:
        if not isinstance(dest, DPair):
            raise CodegenError("pair produced into non-pair destination")
        gen_into(args[0], dest.fst, env, ctx)
        gen_into(args[1], dest.snd, env, ctx)
        return
    if isinstance(head, E.Join) and len(args) == 1:
        inner_type = ctx.data_type_of(args[0])
        assert isinstance(inner_type, ArrayType) and isinstance(
            inner_type.elem, ArrayType
        )
        outer_n, inner_n = inner_type.size, inner_type.elem.size
        assert isinstance(dest, DArr)
        regrouped = DArr(
            outer_n,
            lambda i: DArr(
                inner_n,
                lambda j: dest.at(idx_add(idx_mul(i, nat_expr(inner_n)), j)),
            ),
        )
        gen_into(args[0], regrouped, env, ctx)
        return
    if isinstance(head, E.ToMem) and len(args) == 1:
        gen_into(args[0], dest, env, ctx)
        return
    if isinstance(head, E.MapSeqVec) and len(args) == 2:
        _gen_map_vec(head, args[0], args[1], dest, env, ctx)
        return
    if isinstance(head, E.Map) and not isinstance(head, E.MapVec) and len(args) == 2:
        _gen_map(head, args[0], args[1], dest, env, ctx)
        return

    view = ev(node, env, ctx)
    store_view(view, dest, ctx)


def gen_apply_into(fn_node: E.Expr, arg: View, dest: Dest, env: Mapping[str, View], ctx: Ctx) -> None:
    if isinstance(fn_node, E.Lambda):
        inner = dict(env)
        inner[fn_node.param.name] = arg
        gen_into(fn_node.body, dest, inner, ctx)
        return
    # A partially-applied map used point-free (e.g. mapGlobal(mapSeqVec(f)))
    # must still drive a loop, not collapse into a lazy view copy.
    head, args = app_spine(fn_node)
    if isinstance(head, E.MapSeqVec) and len(args) == 1:
        _gen_map_vec_view(head, args[0], _arr(arg), dest, env, ctx)
        return
    if isinstance(head, E.Map) and not isinstance(head, E.MapVec) and len(args) == 1:
        _gen_map_view(head, args[0], _arr(arg), dest, env, ctx)
        return
    fn_view = ev(fn_node, env, ctx)
    if not isinstance(fn_view, FunV):
        raise CodegenError("applying non-function in destination context")
    store_view(fn_view(arg), dest, ctx)


# -- plain map loops ----------------------------------------------------


def _loop_kind(head: E.Map) -> LoopKind:
    if isinstance(head, E.MapGlobal):
        return LoopKind.PARALLEL
    if isinstance(head, E.MapSeqUnroll):
        return LoopKind.UNROLLED
    return LoopKind.SEQ


def _gen_map(head: E.Map, fn_node: E.Expr, src_node: E.Expr, dest: Dest, env, ctx: Ctx) -> None:
    src_head, src_args = app_spine(src_node)
    if isinstance(src_head, E.CircularBuffer) and len(src_args) == 2:
        _gen_stream_consumer(head, fn_node, src_node, dest, env, ctx, vec_width=None)
        return
    if isinstance(src_head, E.RotateValues) and len(src_args) == 1:
        _gen_rotate_consumer(head, fn_node, src_args[0], src_head, dest, env, ctx, vec_width=None)
        return
    src_view = _arr(ev(src_node, env, ctx))
    _gen_map_view(head, fn_node, src_view, dest, env, ctx)


def _gen_map_view(head: E.Map, fn_node: E.Expr, src_view: ArrV, dest: Dest, env, ctx: Ctx) -> None:
    assert isinstance(dest, DArr)
    kind = _loop_kind(head)
    if kind is LoopKind.UNROLLED and src_view.size.is_constant():
        for k in range(src_view.size.constant_value()):
            gen_apply_into(fn_node, src_view.at_const(k), dest.at(IConst(k)), env, ctx)
        return
    loop_var = ctx.fresh("i")
    ctx.push()
    gen_apply_into(fn_node, src_view.at(Var(loop_var)), dest.at(Var(loop_var)), env, ctx)
    body = ctx.pop()
    ctx.emit(For(loop_var, nat_expr(src_view.size), body, kind))


# -- vector strip loops ---------------------------------------------------


def _leaf_cells(dest: Dest) -> list[DCell]:
    if isinstance(dest, DCell):
        return [dest]
    if isinstance(dest, DPair):
        return _leaf_cells(dest.fst) + _leaf_cells(dest.snd)
    raise CodegenError("vector store into array-typed element")


def _leaf_exprs(view: View) -> list[IExpr]:
    if isinstance(view, ScalarV):
        return [view.expr]
    if isinstance(view, PairV):
        return _leaf_exprs(view.fst) + _leaf_exprs(view.snd)
    raise CodegenError("expected scalar/pair element value")


def _gen_map_vec(
    head: E.MapSeqVec, fn_node: E.Expr, src_node: E.Expr, dest: Dest, env, ctx: Ctx
) -> None:
    src_head, src_args = app_spine(src_node)
    width = head.width.constant_value()
    if isinstance(src_head, E.RotateValues) and len(src_args) == 1:
        _gen_rotate_consumer(head, fn_node, src_args[0], src_head, dest, env, ctx, vec_width=width)
        return
    if isinstance(src_head, E.CircularBuffer) and len(src_args) == 2:
        _gen_stream_consumer(head, fn_node, src_node, dest, env, ctx, vec_width=width)
        return

    src_view = _arr(ev(src_node, env, ctx))
    _gen_map_vec_view(head, fn_node, src_view, dest, env, ctx)


def _gen_map_vec_view(head: "E.MapSeqVec", fn_node: E.Expr, src_view: ArrV, dest: Dest, env, ctx: Ctx) -> None:
    width = head.width.constant_value()
    assert isinstance(dest, DArr)
    n = src_view.size
    try:
        _emit_vector_strips(
            fn_node, src_view, dest, n, width, env, ctx
        )
    except (VectorizeError, CodegenError) as err:
        ctx.vector_fallbacks.append(str(err))
        loop_var = ctx.fresh("i")
        ctx.push()
        gen_apply_into(fn_node, src_view.at(Var(loop_var)), dest.at(Var(loop_var)), env, ctx)
        body = ctx.pop()
        ctx.emit(For(loop_var, nat_expr(n), body, LoopKind.SEQ))


def _emit_vector_strips(fn_node, src_view: ArrV, dest: DArr, n: Nat, width: int, env, ctx: Ctx) -> None:
    xi = ctx.fresh("xi")
    # Evaluate the element computation symbolically at index xi, capturing
    # any statements (shared lets, unrolled reductions are pure).
    ctx.push()
    elem_view = src_view.at(Var(xi))
    fn_view = ev(fn_node, env, ctx) if not isinstance(fn_node, E.Lambda) else None
    if isinstance(fn_node, E.Lambda):
        inner = dict(env)
        inner[fn_node.param.name] = elem_view
        result = ev(fn_node.body, inner, ctx)
    else:
        result = fn_view(elem_view)
    scalar_block = ctx.pop()
    result_exprs = _leaf_exprs(result)
    cells = _leaf_cells(dest.at(Var(xi)))

    strip_var = ctx.fresh("vs")
    base = idx_mul(Var(strip_var), IConst(width))
    vec_stmts, vec_exprs = vectorize_stmts(
        scalar_block.stmts,
        result_exprs,
        xi,
        base,
        width,
        lambda rest: _nat_is_multiple(rest, width),
    )
    # vector stores: destination indices must be affine in xi with coeff 1
    from repro.codegen.vectorize import affine_coefficient

    stores = []
    for cell, value in zip(cells, vec_exprs):
        decomposed = affine_coefficient(cell.index, xi)
        if decomposed is None or decomposed[0] != 1:
            raise VectorizeError("non-unit-stride vector store")
        rest = decomposed[1]
        index = idx_add(base, rest)
        stores.append(
            VStore(cell.buffer, index, value, width, aligned=_nat_is_multiple(rest, width))
        )
    strips = n // nat(width)
    ctx.push()
    for s in vec_stmts:
        ctx.emit(s)
    for s in stores:
        ctx.emit(s)
    body = ctx.pop()
    ctx.emit(For(strip_var, nat_expr(strips), body, LoopKind.VEC))
    # scalar tail for n % width leftover elements
    tail = n % nat(width)
    if not (tail.is_constant() and tail.constant_value() == 0):
        tail_var = ctx.fresh("t")
        ctx.push()
        index = idx_add(idx_mul(nat_expr(strips), IConst(width)), Var(tail_var))
        gen_apply_into(fn_node, src_view.at(index), dest.at(index), env, ctx)
        tail_body = ctx.pop()
        ctx.emit(For(tail_var, nat_expr(tail), tail_body, LoopKind.SEQ))


# -- streaming: circular buffers -----------------------------------------


class _Stream:
    """Static streaming protocol: ``step`` emits per-iteration statements
    and returns the element view for a given index expression."""

    def __init__(self, size: Nat, step, prologue=None):
        self.size = size
        self._step = step
        self._prologue = prologue

    def emit_prologue(self, ctx: Ctx) -> None:
        if self._prologue is not None:
            self._prologue(ctx)

    def step(self, ctx: Ctx, index: IExpr) -> View:
        return self._step(ctx, index)


def _stream_of(node: E.Expr, env, ctx: Ctx) -> _Stream:
    head, args = app_spine(node)
    if isinstance(head, E.CircularBuffer) and len(args) == 2:
        return _cbuf_stream(head, args[0], args[1], node, env, ctx)
    view = _arr(ev(node, env, ctx))
    return _Stream(view.size, lambda _ctx, i: view.at(i))


def _cbuf_stream(
    head: E.CircularBuffer, load_node: E.Expr, src_node: E.Expr, node: E.Expr, env, ctx: Ctx
) -> _Stream:
    m = head.size.constant_value()
    out_type = ctx.data_type_of(node)  # [n][m]LineT
    assert isinstance(out_type, ArrayType) and isinstance(out_type.elem, ArrayType)
    out_size = out_type.size

    inner = _stream_of(src_node, env, ctx)
    plan = _CbufStorage(load_node, m, env, ctx)

    def prologue(c: Ctx) -> None:
        inner.emit_prologue(c)
        c.emit(Comment(f"circular buffer prologue: preload {m - 1} line(s)"))
        for r in range(m - 1):
            elem = inner.step(c, IConst(r))
            plan.fill(IConst(r), elem, c)

    def step(c: Ctx, i: IExpr) -> View:
        newest = idx_add(i, IConst(m - 1))
        elem = inner.step(c, newest)
        plan.fill(idx_mod(newest, IConst(m)), elem, c)
        return ArrV(
            nat(m),
            lambda r: plan.view_at(idx_mod(idx_add(i, r), IConst(m))),
        )

    return _Stream(out_size, step, prologue)


class _CbufStorage:
    """Line storage for one circular-buffer stage.

    The load function's result is analyzed structurally: pairs split into
    per-component storage and ``slide(sz, 1)`` wrappers are *stripped* —
    the underlying line is stored once and the windows are rebuilt as
    views at read time.  Without this, pre-windowed stage outputs would be
    materialized (tripling traffic) and read with stride 3, defeating the
    vectorizer.
    """

    def __init__(self, load_node: E.Expr, rows: int, env, ctx: Ctx):
        if not isinstance(load_node, E.Lambda):
            raise CodegenError("circularBuffer load must be a lambda")
        self.load = load_node
        self.env = dict(env)
        self.rows = rows
        self.tree = self._compress(load_node.body, ctx)

    # compress tree nodes:
    #   ("pair", left, right)
    #   ("slide", size Nat, step Nat, inner)
    #   ("let", name, value_expr, value_leaf-or-None, inner)
    #   ("alias", name)   — reads the storage of an enclosing let directly
    #   ("leaf", expr, dtype, buffers: dict[path -> name], stride: dict[path -> Nat])
    def _compress(self, body: E.Expr, ctx: Ctx, let_names: frozenset = frozenset()):
        if isinstance(body, E.Let):
            vtype = ctx.data_type_of(body.value)
            if isinstance(vtype, ArrayType):
                # Materialize the shared value once per buffered line; any
                # component that *is* the shared value aliases its storage
                # (this is what keeps e.g. the gray line computed and
                # stored exactly once even though three consumers view it).
                value_leaf = self._alloc_leaf(body.value, vtype, ctx)
                inner = self._compress(
                    body.body, ctx, let_names | {body.ident.name}
                )
                return ("let", body.ident.name, body.value, value_leaf, inner)
            # Scalar lets are handled by ordinary evaluation at fill time.
        if isinstance(body, E.Identifier) and body.name in let_names:
            return ("alias", body.name)
        head, args = app_spine(body)
        if (
            isinstance(head, E.Map)
            and len(args) == 2
            and isinstance(args[1], E.Identifier)
            and args[1].name in let_names
        ):
            path = _projection_path_of(args[0])
            if path is not None:
                return ("aliasproj", args[1].name, path)
        if isinstance(head, E.MakePair) and len(args) == 2:
            return (
                "pair",
                self._compress(args[0], ctx, let_names),
                self._compress(args[1], ctx, let_names),
            )
        if isinstance(head, E.Slide) and len(args) == 1 and head.step == nat(1):
            return (
                "slide",
                head.size,
                head.step,
                self._compress(args[0], ctx, let_names),
            )
        dtype = ctx.data_type_of(body)
        return ("leaf", body, dtype) + self._alloc_leaf(body, dtype, ctx)[3:]

    def _alloc_leaf(self, expr: E.Expr, dtype, ctx: Ctx):
        buffers = {}
        strides = {}
        for path in scalar_leaf_paths(dtype):
            stride = _total_leaf_size(dtype, path) + nat(BUFFER_PAD)
            strides[path] = stride
            buffers[path] = ctx.alloc("cbuf", stride * self.rows)
        return ("leaf", expr, dtype, buffers, strides)

    def fill(self, row: IExpr, elem: View, ctx: Ctx) -> None:
        inner_env = dict(self.env)
        inner_env[self.load.param.name] = elem
        self._fill_tree(self.tree, row, inner_env, ctx)

    def _fill_tree(self, tree, row: IExpr, env: dict, ctx: Ctx) -> None:
        if tree[0] == "pair":
            self._fill_tree(tree[1], row, env, ctx)
            self._fill_tree(tree[2], row, env, ctx)
        elif tree[0] == "slide":
            self._fill_tree(tree[3], row, env, ctx)
        elif tree[0] == "let":
            _tag, name, value_expr, value_leaf, inner = tree
            _lt, _e, dtype, buffers, strides = value_leaf
            offsets = {p: idx_mul(row, nat_expr(strides[p])) for p in buffers}
            gen_into(value_expr, dest_for_buffer(dtype, buffers, offsets), env, ctx)
            env = dict(env)
            env[name] = buffer_view(dtype, buffers, offsets)
            self._fill_tree(inner, row, env, ctx)
        elif tree[0] in ("alias", "aliasproj"):
            pass  # storage already written by the enclosing let
        else:
            _tag, expr, dtype, buffers, strides = tree
            offsets = {p: idx_mul(row, nat_expr(strides[p])) for p in buffers}
            gen_into(expr, dest_for_buffer(dtype, buffers, offsets), env, ctx)

    def view_at(self, row: IExpr) -> View:
        lets: dict[str, View] = {}

        def go(tree) -> View:
            if tree[0] == "pair":
                return PairV(go(tree[1]), go(tree[2]))
            if tree[0] == "aliasproj":
                _tag, name, path = tree
                base = _arr(lets[name])
                return ArrV(
                    base.size,
                    lambda i: _project_path(base.at(i), path),
                )
            if tree[0] == "slide":
                size = tree[1]
                arr = _arr(go(tree[3]))
                win_count = (arr.size - size) + 1
                return ArrV(
                    win_count,
                    lambda i: ArrV(size, lambda j: arr.at(idx_add(i, j))),
                )
            if tree[0] == "let":
                _tag, name, _value_expr, value_leaf, inner = tree
                _lt, _e, dtype, buffers, strides = value_leaf
                offsets = {
                    p: idx_mul(row, nat_expr(strides[p])) for p in buffers
                }
                lets[name] = buffer_view(dtype, buffers, offsets)
                return go(inner)
            if tree[0] == "alias":
                return lets[tree[1]]
            _tag, expr, dtype, buffers, strides = tree
            offsets = {p: idx_mul(row, nat_expr(strides[p])) for p in buffers}
            return buffer_view(dtype, buffers, offsets)

        return go(self.tree)


def _projection_path_of(f: E.Expr):
    """fst / snd / fun p. fst(snd(...(p))) -> component path, else None."""
    if isinstance(f, E.Fst):
        return (0,)
    if isinstance(f, E.Snd):
        return (1,)
    if isinstance(f, E.Lambda):
        path = []
        body = f.body
        while isinstance(body, E.App):
            if isinstance(body.fun, E.Fst):
                path.append(0)
            elif isinstance(body.fun, E.Snd):
                path.append(1)
            else:
                return None
            body = body.arg
        if isinstance(body, E.Identifier) and body.name == f.param.name:
            return tuple(reversed(path))
    return None


def _project_path(view: View, path) -> View:
    for step in path:
        view = _fst(view) if step == 0 else _snd(view)
    return view


def _gen_stream_consumer(
    head: E.Map, fn_node: E.Expr, src_node: E.Expr, dest: Dest, env, ctx: Ctx, vec_width
) -> None:
    stream = _stream_of(src_node, env, ctx)
    assert isinstance(dest, DArr)
    stream.emit_prologue(ctx)
    loop_var = ctx.fresh("line")
    ctx.push()
    window = stream.step(ctx, Var(loop_var))
    gen_apply_into(fn_node, window, dest.at(Var(loop_var)), env, ctx)
    body = ctx.pop()
    ctx.emit(For(loop_var, nat_expr(stream.size), body, LoopKind.SEQ))


# -- streaming: rotating registers ----------------------------------------


def _gen_rotate_consumer(
    head: E.Map,
    fn_node: E.Expr,
    values_node: E.Expr,
    rotate: E.RotateValues,
    dest: Dest,
    env,
    ctx: Ctx,
    vec_width,
) -> None:
    m = rotate.size.constant_value()
    assert isinstance(dest, DArr)
    n = dest.size

    # Fallback path: treat rotateValues as a plain sliding-window view.
    def fallback(reason: str) -> None:
        ctx.vector_fallbacks.append(f"rotate fallback: {reason}")
        values_view = _arr(ev(values_node, env, ctx))
        window_view = ArrV(
            n, lambda i: ArrV(nat(m), lambda j: values_view.at(idx_add(i, j)))
        )
        loop_var = ctx.fresh("i")
        ctx.push()
        gen_apply_into(fn_node, window_view.at(Var(loop_var)), dest.at(Var(loop_var)), env, ctx)
        body = ctx.pop()
        ctx.emit(For(loop_var, nat_expr(n), body, LoopKind.SEQ))

    values_view = _arr(ev(values_node, env, ctx))
    elem_type_leaves = None
    try:
        probe = values_view.at_const(0)
        leaf_count = len(_leaf_exprs(probe))
    except CodegenError as err:
        fallback(str(err))
        return

    if vec_width is None:
        _rotate_scalar(fn_node, values_view, m, leaf_count, dest, n, env, ctx, fallback)
    else:
        _rotate_vector(
            fn_node, values_view, m, leaf_count, dest, n, vec_width, env, ctx, fallback
        )


def _shape_of_leaves(view: View, exprs: list[IExpr]) -> View:
    """Rebuild a view with the same pair shape but given leaf expressions."""
    it = iter(exprs)

    def go(v: View) -> View:
        if isinstance(v, ScalarV):
            return ScalarV(next(it))
        if isinstance(v, PairV):
            return PairV(go(v.fst), go(v.snd))
        raise CodegenError("unexpected shape")

    return go(view)


def _rotate_scalar(fn_node, values_view: ArrV, m, leaf_count, dest, n, env, ctx, fallback) -> None:
    regs = [[ctx.fresh(f"rot{r}_") for _ in range(leaf_count)] for r in range(m)]
    for r in range(m):
        for name in regs[r]:
            ctx.emit(DeclScalar(name, FConst(0.0)))
    ctx.emit(Comment(f"register rotation: window {m} over computed values"))
    for r in range(m - 1):
        leaves = _leaf_exprs(values_view.at_const(r))
        for name, value in zip(regs[r], leaves):
            ctx.emit(Assign(name, value))
    loop_var = ctx.fresh("i")
    ctx.push()
    newest = _leaf_exprs(values_view.at(idx_add(Var(loop_var), IConst(m - 1))))
    for name, value in zip(regs[m - 1], newest):
        ctx.emit(Assign(name, value))
    shape_probe = values_view.at_const(0)
    window = ArrV(
        nat(m),
        lambda r: _reg_window(shape_probe, regs, r),
    )
    gen_apply_into(fn_node, window, dest.at(Var(loop_var)), env, ctx)
    for r in range(m - 1):
        for dst, src in zip(regs[r], regs[r + 1]):
            ctx.emit(Assign(dst, Var(src)))
    body = ctx.pop()
    ctx.emit(For(loop_var, nat_expr(n), body, LoopKind.SEQ))


def _reg_window(shape_probe: View, regs, r: IExpr | int) -> View:
    if isinstance(r, IConst):
        r = r.value
    if not isinstance(r, int):
        raise CodegenError("rotating registers accessed at non-constant index")
    return _shape_of_leaves(shape_probe, [Var(name) for name in regs[r]])


def _rotate_vector(
    fn_node, values_view: ArrV, m, leaf_count, dest, n, width, env, ctx, fallback
) -> None:
    """Vectorized register rotation: aligned chunks A/B per leaf, window
    elements as shuffles of (A, B) — fig. 6 'cbuf+rot' and fig. 7."""
    xi = ctx.fresh("xi")

    def chunk_exprs(base: IExpr, c: Ctx) -> list[IExpr]:
        c.push()
        leaves = _leaf_exprs(values_view.at(Var(xi)))
        scalar_block = c.pop()
        vec_stmts, vec_exprs = vectorize_stmts(
            scalar_block.stmts,
            leaves,
            xi,
            base,
            width,
            lambda rest: _nat_is_multiple(rest, width),
        )
        for s in vec_stmts:
            c.emit(s)
        return vec_exprs

    try:
        reg_a = [ctx.fresh("rotA_") for _ in range(leaf_count)]
        reg_b = [ctx.fresh("rotB_") for _ in range(leaf_count)]
        for name in reg_a + reg_b:
            ctx.emit(DeclVec(name, width, Broadcast(FConst(0.0), width)))
        init = chunk_exprs(IConst(0), ctx)
        for name, value in zip(reg_a, init):
            ctx.emit(Assign(name, value))

        strips = n // nat(width)
        strip_var = ctx.fresh("vs")
        ctx.push()
        base_next = idx_mul(idx_add(Var(strip_var), IConst(1)), IConst(width))
        nxt = chunk_exprs(base_next, ctx)
        for name, value in zip(reg_b, nxt):
            ctx.emit(Assign(name, value))

        shape_probe = values_view.at_const(0)

        def window_at(r) -> View:
            if isinstance(r, IConst):
                r = r.value
            if not isinstance(r, int):
                raise CodegenError("vector rotation window needs constant offsets")
            leaves = [
                VShuffle(Var(a), Var(b), r, width)
                for a, b in zip(reg_a, reg_b)
            ]
            return _shape_of_leaves(shape_probe, leaves)

        window = ArrV(nat(m), window_at)
        result = _apply_fn_view(fn_node, window, env, ctx)
        cells = _leaf_cells(dest.at(Var(xi)))
        from repro.codegen.vectorize import affine_coefficient

        base = idx_mul(Var(strip_var), IConst(width))
        for cell, value in zip(cells, _leaf_exprs(result)):
            decomposed = affine_coefficient(cell.index, xi)
            if decomposed is None or decomposed[0] != 1:
                raise VectorizeError("non-unit-stride store in rotation")
            rest = decomposed[1]
            ctx.emit(
                VStore(
                    cell.buffer,
                    idx_add(base, rest),
                    value,
                    width,
                    aligned=_nat_is_multiple(rest, width),
                )
            )
        for a, b in zip(reg_a, reg_b):
            ctx.emit(Assign(a, Var(b)))
        body = ctx.pop()
        ctx.emit(For(strip_var, nat_expr(strips), body, LoopKind.VEC))

        # scalar tail
        tail = n % nat(width)
        if not (tail.is_constant() and tail.constant_value() == 0):
            tail_var = ctx.fresh("t")
            ctx.push()
            index = idx_add(idx_mul(nat_expr(strips), IConst(width)), Var(tail_var))
            window_view = ArrV(
                nat(m), lambda j: values_view.at(idx_add(index, j))
            )
            gen_apply_into(fn_node, window_view, dest.at(index), env, ctx)
            tail_body = ctx.pop()
            ctx.emit(For(tail_var, nat_expr(tail), tail_body, LoopKind.SEQ))
    except (VectorizeError, CodegenError) as err:
        fallback(str(err))


def _apply_fn_view(fn_node: E.Expr, arg: View, env, ctx: Ctx) -> View:
    if isinstance(fn_node, E.Lambda):
        inner = dict(env)
        inner[fn_node.param.name] = arg
        return ev(fn_node.body, inner, ctx)
    fn_view = ev(fn_node, env, ctx)
    assert isinstance(fn_view, FunV)
    return fn_view(arg)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


def compile_program(
    program: E.Expr,
    type_env: Mapping[str, Type],
    name: str = "kernel",
) -> ImpProgram:
    """Compile a low-level RISE program to an imperative program.

    Free identifiers become input buffers (per scalar leaf); the program's
    result becomes the output buffer.  Sizes stay symbolic.

    Opens one ``codegen.lower`` span (``program=``, ``rise_nodes=``) with
    the phases ``rise.typecheck``, ``codegen.emit`` (nested
    ``codegen.vectorize``), ``codegen.fold`` and ``codegen.cse`` below
    it — node counts are computed only while an observer is active.
    """
    from repro.observe.core import active, span
    from repro.rise.traverse import count_nodes as count_rise_nodes
    from repro.codegen.ir import count_ir_nodes

    with span("codegen.lower", program=name) as lower_span:
        observed = active() is not None
        if observed:
            lower_span.meta["rise_nodes"] = count_rise_nodes(program)

        with span("rise.typecheck"):
            typing = infer_types(program, type_env, strict=False)
        ctx = Ctx(typing)

        with span("codegen.emit") as emit_span:
            env: dict[str, View] = {}
            inputs: list[Buffer] = []
            for ident, itype in type_env.items():
                if not isinstance(itype, DataType):
                    raise CodegenError(f"input {ident} must have a data type")
                paths = scalar_leaf_paths(itype)
                buffers = {}
                offsets = {}
                for p in paths:
                    suffix = "" if p == () else "_" + "".join(map(str, p))
                    bname = f"{ident}{suffix}"
                    size = _total_leaf_size(itype, p)
                    inputs.append(Buffer(bname, size))
                    buffers[p] = bname
                    offsets[p] = IConst(0)
                env[ident] = buffer_view(itype, buffers, offsets)

            out_type = typing.root_type
            if not isinstance(out_type, DataType):
                raise CodegenError(f"program result must be data, got {out_type!r}")
            out_paths = scalar_leaf_paths(out_type)
            if out_paths != [()]:
                raise CodegenError("pair-typed outputs are not supported at top level")
            out_buffer = Buffer("out", _total_leaf_size(out_type, ()))
            out_dest = dest_for_buffer(out_type, {(): "out"}, {(): IConst(0)})

            gen_into(program, out_dest, env, ctx)
            body = Block(ctx._blocks[0])

            size_vars: set[str] = set()
            for t in list(type_env.values()) + [out_type]:
                size_vars |= t.free_nat_vars()

            function = ImpFunction(
                name=name,
                inputs=inputs,
                output=out_buffer,
                size_vars=sorted(size_vars),
                body=body,
                temporaries=list(ctx.all_buffers),
            )
            program_out = ImpProgram(
                name=name, functions=[function], size_vars=sorted(size_vars)
            )
            program_out.vector_fallbacks = ctx.vector_fallbacks  # type: ignore[attr-defined]
            program_out.size_constraints = typing.pending_sizes  # type: ignore[attr-defined]
            if observed:
                emit_span.meta["ir_nodes"] = count_ir_nodes(program_out)

        from repro.codegen.opt import cse_program, fold_program

        return cse_program(fold_program(program_out))
