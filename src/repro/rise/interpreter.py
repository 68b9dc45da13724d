"""A denotational interpreter for RISE expressions.

This is the semantic oracle of the reproduction: every rewrite rule and
every optimization strategy is validated by interpreting programs before
and after rewriting and comparing the results numerically (the in-process
analogue of the paper's PSNR check).

Value representation:

* scalars      -> ``np.float32`` (or ``np.int32`` / ``bool``)
* arrays       -> Python lists (nested)
* pairs        -> 2-tuples
* SIMD vectors -> 1-d ``np.ndarray``
* functions    -> Python callables

Primitive semantics live in a registry keyed by primitive class, so new
patterns (the paper's ``circularBuffer`` / ``rotateValues``) plug in their
meaning without modifying the evaluator — the domain-extensibility story.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.rise import expr as E
from repro.rise.types import TypeError_

__all__ = ["evaluate", "register_semantics", "EvalError", "from_numpy", "to_numpy"]


class EvalError(Exception):
    """Raised when an expression cannot be evaluated."""


# registry: primitive class -> (number of curried arguments, implementation)
_SEMANTICS: dict[type, tuple[int, Callable]] = {}


def register_semantics(prim_class: type, arity: int):
    """Register interpreter semantics for a primitive class."""

    def decorator(fn: Callable):
        _SEMANTICS[prim_class] = (arity, fn)
        return fn

    return decorator


def _lookup(prim: E.Primitive) -> tuple[int, Callable]:
    for klass in type(prim).__mro__:
        if klass in _SEMANTICS:
            return _SEMANTICS[klass]
    raise EvalError(f"no semantics registered for {type(prim).__name__}")


def _curry(prim: E.Primitive, arity: int, fn: Callable):
    # Partial applications must be persistent values: `map(f)` is applied
    # once per row by an enclosing map, so each application extends its own
    # copy of the collected arguments.
    def make(collected: tuple):
        def apply(arg):
            new = collected + (arg,)
            if len(new) == arity:
                return fn(prim, *new)
            return make(new)

        return apply

    return make(()) if arity > 0 else fn(prim)


def evaluate(expr: E.Expr, env: Mapping[str, object] | None = None):
    """Evaluate a RISE expression under an environment of free identifiers."""
    env = dict(env or {})
    return _eval(expr, env)


def _eval(expr: E.Expr, env: dict):
    if isinstance(expr, E.Identifier):
        try:
            return env[expr.name]
        except KeyError:
            raise EvalError(f"unbound identifier {expr.name!r}") from None
    if isinstance(expr, E.Literal):
        return np.float32(expr.value)
    if isinstance(expr, E.ArrayLiteral):
        def build(values):
            if isinstance(values, tuple):
                return [build(v) for v in values]
            return np.float32(values)

        return build(expr.values)
    if isinstance(expr, E.Lambda):
        captured = dict(env)

        def closure(arg, _body=expr.body, _param=expr.param.name, _env=captured):
            inner = dict(_env)
            inner[_param] = arg
            return _eval(_body, inner)

        return closure
    if isinstance(expr, E.Let):
        value = _eval(expr.value, env)
        inner = dict(env)
        inner[expr.ident.name] = value
        return _eval(expr.body, inner)
    if isinstance(expr, E.App):
        fun = _eval(expr.fun, env)
        arg = _eval(expr.arg, env)
        if not callable(fun):
            raise EvalError(f"applying non-function value {fun!r}")
        return fun(arg)
    if isinstance(expr, E.Primitive):
        arity, fn = _lookup(expr)
        return _curry(expr, arity, fn)
    raise EvalError(f"cannot evaluate {expr!r}")


def _nat_int(n) -> int:
    value = n.evaluate({})
    return int(value)


def _windows(xs: list, size: int, step: int) -> list:
    if (len(xs) - size) % step != 0:
        raise EvalError(
            f"slide mismatch: array of {len(xs)} with window {size} step {step}"
        )
    count = (len(xs) - size) // step + 1
    return [xs[i * step : i * step + size] for i in range(count)]


# ---------------------------------------------------------------------------
# Semantics of the built-in patterns
# ---------------------------------------------------------------------------


@register_semantics(E.Map, 2)
def _map(prim, f, xs):
    return [f(x) for x in xs]


@register_semantics(E.MapVec, 2)
def _map_vec(prim, f, v):
    # Scalar functions built from basic ops are numpy-elementwise, so they
    # apply to the whole lane array directly (matching the paper's remark
    # that mapVec supports functions made of basic operations).
    result = f(v)
    if not isinstance(result, np.ndarray):
        result = np.full_like(v, result)
    return result.astype(v.dtype, copy=False)


@register_semantics(E.Reduce, 3)
def _reduce(prim, op, init, xs):
    acc = init
    for x in xs:
        acc = op(acc)(x)
    return acc


@register_semantics(E.Zip, 2)
def _zip(prim, a, b):
    if len(a) != len(b):
        raise EvalError(f"zip length mismatch: {len(a)} vs {len(b)}")
    return [(x, y) for x, y in zip(a, b)]


@register_semantics(E.Unzip, 1)
def _unzip(prim, ps):
    return ([p[0] for p in ps], [p[1] for p in ps])


@register_semantics(E.Fst, 1)
def _fst(prim, p):
    return p[0]


@register_semantics(E.Snd, 1)
def _snd(prim, p):
    return p[1]


@register_semantics(E.MakePair, 2)
def _make_pair(prim, a, b):
    return (a, b)


@register_semantics(E.Transpose, 1)
def _transpose(prim, rows):
    if not rows:
        return []
    return [list(col) for col in zip(*rows)]


@register_semantics(E.Slide, 1)
def _slide(prim, xs):
    return _windows(xs, _nat_int(prim.size), _nat_int(prim.step))


@register_semantics(E.Split, 1)
def _split(prim, xs):
    chunk = _nat_int(prim.chunk)
    if len(xs) % chunk != 0:
        raise EvalError(f"split({chunk}) of array with {len(xs)} elements")
    return [xs[i : i + chunk] for i in range(0, len(xs), chunk)]


@register_semantics(E.Join, 1)
def _join(prim, xss):
    out: list = []
    for xs in xss:
        out.extend(xs)
    return out


_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "min": np.minimum,
    "max": np.maximum,
}

_UNOPS = {
    "neg": lambda a: -a,
    "abs": np.abs,
    "sqrt": np.sqrt,
}


@register_semantics(E.ScalarOp, 2)
def _scalar_op(prim, a, b):
    result = _BINOPS[prim.op](a, b)
    if isinstance(result, np.ndarray):
        return result.astype(np.float32, copy=False)
    return np.float32(result)


@register_semantics(E.UnaryOp, 1)
def _unary_op(prim, a):
    result = _UNOPS[prim.op](a)
    if isinstance(result, np.ndarray):
        return result.astype(np.float32, copy=False)
    return np.float32(result)


@register_semantics(E.ToMem, 1)
def _to_mem(prim, x):
    return x


@register_semantics(E.AsVector, 1)
def _as_vector(prim, xs):
    width = _nat_int(prim.width)
    if len(xs) % width != 0:
        raise EvalError(f"asVector({width}) of array with {len(xs)} elements")
    return [
        np.asarray(xs[i : i + width], dtype=np.float32)
        for i in range(0, len(xs), width)
    ]


@register_semantics(E.AsScalar, 1)
def _as_scalar(prim, vs):
    out: list = []
    for v in vs:
        out.extend(np.float32(x) for x in v)
    return out


@register_semantics(E.VectorFromScalar, 1)
def _vector_from_scalar(prim, x):
    return np.full(_nat_int(prim.width), x, dtype=np.float32)


@register_semantics(E.CircularBuffer, 2)
def _circular_buffer(prim, load, xs):
    loaded = [load(x) for x in xs]
    return _windows(loaded, _nat_int(prim.size), 1)


@register_semantics(E.RotateValues, 1)
def _rotate_values(prim, xs):
    return _windows(xs, _nat_int(prim.size), 1)


# ---------------------------------------------------------------------------
# numpy bridge
# ---------------------------------------------------------------------------


def from_numpy(a: np.ndarray):
    """Convert a numpy array into the interpreter's nested-list representation."""
    a = np.asarray(a, dtype=np.float32)
    if a.ndim == 0:
        return np.float32(a)
    return [from_numpy(sub) for sub in a]


def to_numpy(value) -> np.ndarray:
    """Convert a nested-list interpreter value back into a numpy array."""

    def build(v):
        if isinstance(v, list):
            return [build(x) for x in v]
        if isinstance(v, tuple):
            raise EvalError("cannot convert pair values to a numpy array")
        return np.float32(v)

    return np.asarray(build(value), dtype=np.float32)
