"""Scalar-expression vectorization for the ``mapSeqVec`` pattern.

Given the scalar statements/expression produced by evaluating a line
element function at a symbolic element index ``xi``, this pass rewrites
them to compute ``width`` consecutive elements at once:

* ``Load(buf, a)`` where ``a`` is affine in ``xi`` with coefficient 1
  becomes a (possibly unaligned) ``VLoad`` — the loads of paper fig. 7;
* ``xi``-independent subexpressions are broadcast across lanes;
* arithmetic becomes lane-wise vector arithmetic.

If any construct cannot be vectorized (strided loads, inner loops, index
arithmetic on values) the pass raises :class:`VectorizeError` and the
caller falls back to a scalar loop — a correct, slower implementation,
exactly like a compiler bailing out of SIMD codegen.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nat import Nat
from repro.codegen.ir import (
    Assign,
    BinOp,
    Broadcast,
    DeclScalar,
    DeclVec,
    FConst,
    IConst,
    IExpr,
    Load,
    NatE,
    Stmt,
    UnOp,
    VLoad,
    Var,
)
from repro.codegen.views import idx_add, idx_sub

__all__ = ["VectorizeError", "vectorize_stmts", "affine_coefficient"]


class VectorizeError(Exception):
    """The expression cannot be turned into vector code."""


def affine_coefficient(expr: IExpr, var: str) -> tuple[int, IExpr] | None:
    """Decompose ``expr`` as ``coeff * var + rest`` with ``var`` absent from
    ``rest``; returns None when the expression is not affine in ``var``."""
    if isinstance(expr, Var):
        if expr.name == var:
            return 1, IConst(0)
        return 0, expr
    if isinstance(expr, (IConst, NatE, FConst)):
        return 0, expr
    if isinstance(expr, BinOp):
        left = affine_coefficient(expr.a, var)
        right = affine_coefficient(expr.b, var)
        if left is None or right is None:
            return None
        (ca, ra), (cb, rb) = left, right
        if expr.op == "add":
            return ca + cb, idx_add(ra, rb)
        if expr.op == "sub":
            return ca - cb, idx_sub(ra, rb)
        if expr.op == "mul":
            if ca == 0 and isinstance(ra, IConst):
                return cb * ra.value, _mul_const(rb, ra.value)
            if cb == 0 and isinstance(rb, IConst):
                return ca * rb.value, _mul_const(ra, rb.value)
            if ca == 0 and cb == 0:
                from repro.codegen.views import idx_mul

                return 0, idx_mul(ra, rb)
            return None
        if expr.op in ("mod", "idiv"):
            if ca == 0 and cb == 0:
                return 0, expr
            return None
        return None
    if _mentions(expr, var):
        return None
    return 0, expr


def _mul_const(e: IExpr, c: int) -> IExpr:
    from repro.codegen.views import idx_mul

    return idx_mul(e, IConst(c))


def _mentions(expr: IExpr, var: str) -> bool:
    if isinstance(expr, Var):
        return expr.name == var
    return any(_mentions(c, var) for c in expr.children())


@dataclass
class _VecCtx:
    xi: str                  # the symbolic element-index variable
    base: IExpr              # expression for the first lane's element index
    width: int
    vector_vars: set[str]    # scalar temporaries that became vector temps
    nat_mod: "callable"      # divisibility oracle: Nat -> bool (multiple of width?)


def vectorize_stmts(
    stmts: list[Stmt],
    exprs: list[IExpr],
    xi: str,
    base: IExpr,
    width: int,
    is_width_multiple,
) -> tuple[list[Stmt], list[IExpr]]:
    """Vectorize statements + result expressions over the index ``xi``.

    ``base`` replaces ``xi`` as the first-lane index.  ``is_width_multiple``
    is a predicate on index *rest* expressions used to mark aligned loads.
    Returns vectorized (statements, expressions); raises VectorizeError on
    any unvectorizable construct.
    """
    from repro.observe.core import span

    with span("codegen.vectorize"):
        ctx = _VecCtx(xi, base, width, set(), is_width_multiple)
        out_stmts: list[Stmt] = []
        for stmt in stmts:
            out_stmts.append(_vec_stmt(stmt, ctx))
        out_exprs = [_ensure_vector(_vec_expr(e, ctx), ctx) for e in exprs]
        return out_stmts, out_exprs


def _vec_stmt(stmt: Stmt, ctx: _VecCtx) -> Stmt:
    if isinstance(stmt, DeclScalar):
        if stmt.init is None:
            raise VectorizeError("uninitialized scalar in vector context")
        value, is_vec = _vec_expr_tagged(stmt.init, ctx)
        if is_vec:
            ctx.vector_vars.add(stmt.var)
            return DeclVec(stmt.var, ctx.width, value)
        return DeclScalar(stmt.var, value)
    if isinstance(stmt, Assign):
        value, is_vec = _vec_expr_tagged(stmt.value, ctx)
        if stmt.var in ctx.vector_vars and not is_vec:
            value = Broadcast(value, ctx.width)
        elif is_vec and stmt.var not in ctx.vector_vars:
            raise VectorizeError(f"scalar {stmt.var} assigned a vector value")
        return Assign(stmt.var, value)
    raise VectorizeError(f"cannot vectorize statement {type(stmt).__name__}")


def _vec_expr(expr: IExpr, ctx: _VecCtx) -> IExpr:
    value, _ = _vec_expr_tagged(expr, ctx)
    return value


def _ensure_vector(expr: IExpr, ctx: _VecCtx) -> IExpr:
    # Result values must be vectors for the VStore.
    value, is_vec = _vec_expr_tagged(expr, ctx) if not isinstance(expr, (Broadcast, VLoad)) else (expr, True)
    if isinstance(expr, IExpr) and not is_vec:
        return Broadcast(value, ctx.width)
    return value


def _vec_expr_tagged(expr: IExpr, ctx: _VecCtx) -> tuple[IExpr, bool]:
    if isinstance(expr, (IConst, FConst, NatE)):
        return expr, False
    if isinstance(expr, Var):
        if expr.name == ctx.xi:
            raise VectorizeError("element index used as a value")
        return expr, expr.name in ctx.vector_vars
    if isinstance(expr, Load):
        decomposed = affine_coefficient(expr.index, ctx.xi)
        if decomposed is None:
            raise VectorizeError(f"non-affine load index in {expr.buffer}")
        coeff, rest = decomposed
        if coeff == 0:
            return Load(expr.buffer, rest), False
        if coeff == 1:
            index = idx_add(ctx.base, rest)
            aligned = ctx.nat_mod(rest)
            return VLoad(expr.buffer, index, ctx.width, aligned), True
        raise VectorizeError(f"strided ({coeff}) load in {expr.buffer}")
    if isinstance(expr, BinOp):
        if expr.op in ("mod", "idiv"):
            raise VectorizeError("integer division in vector value context")
        a, va = _vec_expr_tagged(expr.a, ctx)
        b, vb = _vec_expr_tagged(expr.b, ctx)
        if va and not vb:
            b = Broadcast(b, ctx.width)
        elif vb and not va:
            a = Broadcast(a, ctx.width)
        return BinOp(expr.op, a, b), va or vb
    if isinstance(expr, UnOp):
        a, va = _vec_expr_tagged(expr.a, ctx)
        return UnOp(expr.op, a), va
    if isinstance(expr, Broadcast):
        return expr, True
    if isinstance(expr, VLoad):
        return expr, True
    raise VectorizeError(f"cannot vectorize {type(expr).__name__}")
