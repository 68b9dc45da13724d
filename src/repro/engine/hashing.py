"""Stable structural hashing: the content-addressing half of the engine.

A compiled artifact is reusable only if we can *name* it by what went in:
the RISE expression (up to alpha-renaming — the DSL generates fresh
binder names on every construction, so a nominal hash would never hit),
the identity of the optimization strategy, the execution backend, and
the symbolic-size signature of the inputs.  Everything here hashes with
:func:`hashlib.blake2b` over canonical byte strings, never with Python's
randomized ``hash()``, so keys are stable across processes and runs —
the property the on-disk artifact store depends on.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import Any, Mapping

from repro.rise.expr import (
    App,
    ArrayLiteral,
    Expr,
    Identifier,
    Lambda,
    Let,
    Literal,
    Primitive,
)

__all__ = [
    "ENGINE_VERSION",
    "structural_hash",
    "program_fingerprint",
    "strategy_identity",
    "size_signature",
    "type_env_signature",
    "cache_key",
]

#: Bumped whenever hashing, pickling or artifact layout changes shape,
#: or a key stops naming what it used to build; part of every cache key
#: so stale on-disk artifacts are never reused.  v2: a schedule whose
#: optimization does not fire fails instead of building a no-op kernel.
#: v3: lowering picks rotation by type (no dead probe code), and the
#: program fingerprint is ``repr`` alone (``size_constraints`` is a field).
ENGINE_VERSION = "repro.engine/v3"


def _hasher() -> "hashlib.blake2b":
    return hashlib.blake2b(digest_size=20)


# ---------------------------------------------------------------------------
# Expression hashing (alpha-invariant)
# ---------------------------------------------------------------------------


def _feed_expr(expr: Expr, binders: dict[str, list[int]], depth: int, h) -> None:
    """Feed a canonical serialization of ``expr`` into hasher ``h``.

    Bound identifiers are serialized as de Bruijn-style distances to their
    binder, so alpha-renamed expressions serialize identically; free
    identifiers (the program's inputs) keep their names.
    """
    if isinstance(expr, Identifier):
        stack = binders.get(expr.name)
        if stack:
            h.update(b"B%d;" % (depth - stack[-1]))
        else:
            h.update(b"F" + expr.name.encode() + b";")
        return
    if isinstance(expr, Lambda):
        h.update(b"L;")
        binders.setdefault(expr.param.name, []).append(depth)
        _feed_expr(expr.body, binders, depth + 1, h)
        binders[expr.param.name].pop()
        return
    if isinstance(expr, Let):
        h.update(b"D;")
        _feed_expr(expr.value, binders, depth, h)
        binders.setdefault(expr.ident.name, []).append(depth)
        _feed_expr(expr.body, binders, depth + 1, h)
        binders[expr.ident.name].pop()
        return
    if isinstance(expr, App):
        h.update(b"A;")
        _feed_expr(expr.fun, binders, depth, h)
        _feed_expr(expr.arg, binders, depth, h)
        return
    if isinstance(expr, Literal):
        h.update(f"l{expr.value!r}:{expr.dtype!r};".encode())
        return
    if isinstance(expr, ArrayLiteral):
        h.update(f"a{expr.values!r}:{expr.dtype!r};".encode())
        return
    if isinstance(expr, Primitive):
        h.update(b"P" + type(expr).__name__.encode())
        for f in fields(expr):
            h.update(f"|{f.name}={getattr(expr, f.name)!r}".encode())
        h.update(b";")
        return
    raise TypeError(f"cannot hash expression node {type(expr).__name__}")


def structural_hash(expr: Expr) -> str:
    """Hex digest of ``expr``'s structure, invariant under alpha-renaming.

    Two expressions built independently through the DSL (which generates
    fresh binder names each time) hash equal iff they are alpha-equivalent;
    the digest is identical across interpreter processes.
    """
    h = _hasher()
    _feed_expr(expr, {}, 0, h)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Key components beyond the expression
# ---------------------------------------------------------------------------


def program_fingerprint(prog) -> str:
    """Hex digest of an already-lowered :class:`~repro.codegen.ir.ImpProgram`.

    The imperative IR is plain frozen dataclasses with deterministic
    ``repr`` (symbolic :class:`~repro.nat.Nat` sizes print in normal
    form), so ``repr`` is a canonical serialization.
    """
    h = _hasher()
    h.update(repr(prog).encode())
    return h.hexdigest()


def strategy_identity(strategy) -> str:
    """A stable string naming an optimization strategy (or ``None``).

    Parametrized strategies embed their parameters in their names
    (``splitPipeline(32)``, ``vectorizeReductions(4)``), so for a
    :class:`~repro.strategies.schedules.Schedule` the step-name list
    distinguishes e.g. ``chunk=4`` from ``chunk=32`` even though the
    schedule name is the same.
    """
    if strategy is None:
        return "none"
    steps = getattr(strategy, "steps", None)
    if steps is not None:  # a Schedule: name + each step's name
        inner = ";".join(getattr(s, "name", repr(s)) for s in steps)
        return f"schedule:{strategy.name}[{inner}]"
    name = getattr(strategy, "name", None)
    if name is not None:
        return f"strategy:{name}"
    return repr(strategy)


def type_env_signature(type_env: Mapping[str, Any] | None) -> str:
    """Canonical string for the input typing environment."""
    if not type_env:
        return "{}"
    return "{" + ",".join(f"{k}:{type_env[k]!r}" for k in sorted(type_env)) + "}"


def size_signature(type_env: Mapping[str, Any] | None) -> str:
    """The *symbolic* size signature: the sorted free nat variables of the
    input types.  Concrete size bindings are applied at run time, not at
    compile time, so they deliberately do not enter the cache key."""
    if not type_env:
        return ""
    vars_: set[str] = set()
    for t in type_env.values():
        free = getattr(t, "free_nat_vars", None)
        if free is not None:
            vars_ |= set(free())
    return ",".join(sorted(vars_))


def cache_key(*parts: str) -> str:
    """Combine canonical key parts (plus :data:`ENGINE_VERSION`) into the
    final content-address used by the memory and disk caches."""
    h = _hasher()
    h.update(ENGINE_VERSION.encode())
    for part in parts:
        h.update(b"\x1f" + part.encode())
    return h.hexdigest()
