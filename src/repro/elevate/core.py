"""The ELEVATE strategy language (paper section II-C).

A *strategy* is a function from a RISE expression to a rewrite result: it
either succeeds with a transformed expression or fails.  Strategies compose:

* ``seq(s, t)``      — ``s ; t``   : perform ``t`` on the result of ``s``
* ``lchoice(s, t)``  — ``s <+ t``  : perform ``t`` if ``s`` fails
* ``try_(s)``        — do nothing when ``s`` fails
* ``repeat(s)``      — apply ``s`` until it fails

Operator sugar: ``s >> t`` is ``seq``, ``s | t`` is left choice.

Traversals control *where* a strategy applies:

* ``one(s)``      — first child where ``s`` succeeds
* ``all_(s)``     — every child (fails if any child fails)
* ``some(s)``     — every child where it succeeds (at least one)
* ``top_down(s)`` — depth-first, first location that succeeds (the paper's
  ``applyOnce``)
* ``bottom_up(s)``— innermost location first
* ``normalize(s)``— apply everywhere repeatedly until no location remains
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TypeVar

from repro.rise.expr import Expr
from repro.rise.traverse import children, count_nodes, rebuild
from repro.observe.trace import _TRACE

__all__ = [
    "RewriteResult",
    "Success",
    "Failure",
    "Strategy",
    "rule",
    "id_",
    "fail",
    "seq",
    "lchoice",
    "try_",
    "repeat",
    "one",
    "all_",
    "some",
    "top_down",
    "bottom_up",
    "all_top_down",
    "normalize",
    "apply_once",
    "body",
    "function",
    "argument",
    "StrategyError",
]

_MAX_REPEAT = 100_000

_T = TypeVar("_T")


class StrategyError(Exception):
    """Raised when a strategy that must succeed fails, or on runaway rewriting."""


@dataclass(frozen=True)
class RewriteResult:
    """Base class of rewrite outcomes (:class:`Success` / :class:`Failure`)."""


@dataclass(frozen=True)
class Success(RewriteResult):
    """A successful rewrite carrying the transformed expression."""

    expr: Expr


@dataclass(frozen=True)
class Failure(RewriteResult):
    """A failed rewrite: which strategy failed, why, and — when the
    failure was produced by a combinator — the inner :attr:`cause` it
    wraps, forming a chain down to the rule that did not match."""

    strategy: "Strategy"
    reason: str = ""
    cause: Optional["Failure"] = None

    def chain(self) -> list["Failure"]:
        """The failure and all its transitive causes, outermost first."""
        out: list[Failure] = []
        node: Optional[Failure] = self
        while node is not None:
            out.append(node)
            node = node.cause
        return out

    def deepest(self) -> "Failure":
        """The innermost failure — the actual point where rewriting
        stopped (e.g. the rule whose pattern did not match)."""
        return self.chain()[-1]

    def reason_chain(self) -> str:
        """A readable ``outer <- ... <- inner`` summary of the failure."""
        parts = [
            f"{f.strategy.name}: {f.reason}" for f in self.chain() if f.reason
        ]
        return " <- ".join(parts)


class Strategy:
    """A named rewrite strategy: ``Expr -> Success | Failure``.

    ``kind`` distinguishes leaf rewrite rules (``"rule"``, produced by the
    :func:`rule` decorator) from compositions (``"strategy"``): tracing
    records an event per rule attempt but only aggregate counters for
    combinators.
    """

    def __init__(
        self, fn: Callable[[Expr], RewriteResult], name: str, kind: str = "strategy"
    ):
        self._fn = fn
        self.name = name
        self.kind = kind

    def __call__(self, expr: Expr) -> RewriteResult:
        """Run the strategy; reports into the active trace collector (one
        context-variable read of overhead when tracing is off)."""
        collector = _TRACE.get()
        if collector is None:
            return self._fn(expr)
        start = time.perf_counter()
        result = self._fn(expr)
        wall_ms = (time.perf_counter() - start) * 1e3
        succeeded = isinstance(result, Success)
        before = after = None
        reason = ""
        if self.kind == "rule":
            if succeeded:
                before = count_nodes(expr)
                after = count_nodes(result.expr)
            else:
                assert isinstance(result, Failure)
                reason = result.reason
        collector.record_call(
            self.name, self.kind, succeeded, reason, wall_ms, before, after
        )
        return result

    def apply(self, expr: Expr) -> Expr:
        """Apply, raising :class:`StrategyError` on failure; the error
        message surfaces the deepest failure reason in the cause chain."""
        result = self(expr)
        if isinstance(result, Success):
            return result.expr
        assert isinstance(result, Failure)
        deepest = result.deepest()
        if deepest.reason:
            if deepest is result:
                detail = f" ({deepest.reason})"
            else:
                detail = f" ({deepest.strategy.name}: {deepest.reason})"
        else:
            detail = ""
        raise StrategyError(f"strategy {self.name!r} failed{detail}")

    # -- combinator sugar ------------------------------------------------

    def __rshift__(self, other: "Strategy") -> "Strategy":
        return seq(self, other)

    def __or__(self, other: "Strategy") -> "Strategy":
        return lchoice(self, other)

    def __repr__(self) -> str:
        return f"<strategy {self.name}>"


def rule(name: str):
    """Decorator turning ``Expr -> Expr | None`` into a rewrite-rule strategy."""

    def decorator(fn: Callable[[Expr], Optional[Expr]]) -> Strategy:
        def run(expr: Expr) -> RewriteResult:
            out = fn(expr)
            if out is None:
                return Failure(strategy, "pattern did not match")
            return Success(out)

        strategy = Strategy(run, name, kind="rule")
        return strategy

    return decorator


def _at(strategy: Callable[[Expr], _T], child: Expr, step) -> _T:
    """Apply ``strategy`` (or a traversal's own recursive step) to a child
    expression, pushing the traversal ``step`` (child index, or
    ``"body"``/``"fun"``/``"arg"``) onto the active trace collector's
    path so rule events report *where* in the expression they fired.  A
    plain call when tracing is off."""
    collector = _TRACE.get()
    if collector is None:
        return strategy(child)
    collector.push(step)
    try:
        return strategy(child)
    finally:
        collector.pop()


# ---------------------------------------------------------------------------
# Basic combinators
# ---------------------------------------------------------------------------

id_ = Strategy(lambda e: Success(e), "id")
fail = Strategy(lambda e: Failure(fail, "fail"), "fail")


def seq(first: Strategy, second: Strategy) -> Strategy:
    """``first ; second``: run ``second`` on the result of ``first``; fail
    if either fails, keeping the failing step as the failure's cause."""

    def run(expr: Expr) -> RewriteResult:
        result = first(expr)
        if isinstance(result, Failure):
            return Failure(wrapper, "first step failed", cause=result)
        inner = second(result.expr)
        if isinstance(inner, Failure):
            return Failure(wrapper, "second step failed", cause=inner)
        return inner

    wrapper = Strategy(run, f"({first.name} ; {second.name})")
    return wrapper


def lchoice(first: Strategy, second: Strategy) -> Strategy:
    """``first <+ second``: left-biased choice — try ``first``, fall back
    to ``second`` on the original expression when it fails."""

    def run(expr: Expr) -> RewriteResult:
        result = first(expr)
        if isinstance(result, Success):
            return result
        return second(expr)

    return Strategy(run, f"({first.name} <+ {second.name})")


def try_(strategy: Strategy) -> Strategy:
    """Apply the strategy but succeed unchanged when it fails."""
    return Strategy(lchoice(strategy, id_), f"try({strategy.name})")


def repeat(strategy: Strategy) -> Strategy:
    """Apply the strategy until it fails (or stops changing the term);
    reports the iteration count to the active trace collector and raises
    :class:`StrategyError` after ``_MAX_REPEAT`` runaway steps."""

    def run(expr: Expr) -> RewriteResult:
        iterations = 0
        for iterations in range(_MAX_REPEAT):
            result = strategy(expr)
            if isinstance(result, Failure):
                _note_iterations(wrapper.name, iterations)
                return Success(expr)
            if result.expr is expr:
                # Strategy succeeded without changing the term; stop rather
                # than loop forever.
                _note_iterations(wrapper.name, iterations)
                return Success(expr)
            expr = result.expr
        _note_iterations(wrapper.name, _MAX_REPEAT)
        raise StrategyError(f"repeat({strategy.name}) exceeded {_MAX_REPEAT} steps")

    wrapper = Strategy(run, f"repeat({strategy.name})")
    return wrapper


def _note_iterations(name: str, n: int) -> None:
    """Report a completed ``repeat`` iteration count to the active trace
    collector (no-op when tracing is off)."""
    collector = _TRACE.get()
    if collector is not None:
        collector.note_iterations(name, n)


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def one(strategy: Strategy) -> Strategy:
    """Apply to exactly one child — the first where the strategy succeeds."""

    def run(expr: Expr) -> RewriteResult:
        kids = children(expr)
        last_failure: Optional[Failure] = None
        for index, kid in enumerate(kids):
            result = _at(strategy, kid, index)
            if isinstance(result, Success):
                new_kids = list(kids)
                new_kids[index] = result.expr
                return Success(rebuild(expr, new_kids))
            last_failure = result
        return Failure(wrapper, "no child matched", cause=last_failure)

    wrapper = Strategy(run, f"one({strategy.name})")
    return wrapper


def all_(strategy: Strategy) -> Strategy:
    """Apply to all children; fail if it fails on any child."""

    def run(expr: Expr) -> RewriteResult:
        kids = children(expr)
        new_kids: list[Expr] = []
        for index, kid in enumerate(kids):
            result = _at(strategy, kid, index)
            if isinstance(result, Failure):
                return Failure(wrapper, f"child {index} failed", cause=result)
            new_kids.append(result.expr)
        return Success(rebuild(expr, new_kids))

    wrapper = Strategy(run, f"all({strategy.name})")
    return wrapper


def some(strategy: Strategy) -> Strategy:
    """Apply to every child where it succeeds; fail if none succeeds."""

    def run(expr: Expr) -> RewriteResult:
        kids = children(expr)
        new_kids: list[Expr] = []
        succeeded = False
        last_failure: Optional[Failure] = None
        for index, kid in enumerate(kids):
            result = _at(strategy, kid, index)
            if isinstance(result, Success):
                succeeded = True
                new_kids.append(result.expr)
            else:
                last_failure = result
                new_kids.append(kid)
        if not succeeded:
            return Failure(wrapper, "no child matched", cause=last_failure)
        return Success(rebuild(expr, new_kids))

    wrapper = Strategy(run, f"some({strategy.name})")
    return wrapper


def top_down(strategy: Strategy) -> Strategy:
    """Depth-first top-down (pre-order, children left to right): rewrite
    the first location where the strategy succeeds and nothing else.
    One call visits up to the whole term; use :func:`normalize` rather
    than ``repeat(top_down(s))`` to rewrite to a fixpoint."""

    def run(expr: Expr) -> RewriteResult:
        result = strategy(expr)
        if isinstance(result, Success):
            return result
        inner = descend(expr)
        if isinstance(inner, Failure):
            # keep the strategy's own failure (e.g. the rule's "pattern did
            # not match") as the cause: it is the informative reason, not
            # the traversal's "no child matched"
            return Failure(wrapper, "no location matched", cause=result)
        return inner

    wrapper = Strategy(run, f"topDown({strategy.name})")
    descend = one(wrapper)
    return wrapper


def bottom_up(strategy: Strategy) -> Strategy:
    """Innermost-first; rewrite the first location that matches."""

    def run(expr: Expr) -> RewriteResult:
        result = descend(expr)
        if isinstance(result, Success):
            return result
        return strategy(expr)

    wrapper = Strategy(run, f"bottomUp({strategy.name})")
    descend = one(wrapper)
    return wrapper


def all_top_down(strategy: Strategy) -> Strategy:
    """Try the strategy at every node in one pass (pre-order), keeping going
    whether or not it succeeds; succeeds always."""

    def run(expr: Expr) -> RewriteResult:
        result = strategy(expr)
        current = result.expr if isinstance(result, Success) else expr
        kids = children(current)
        if kids:
            new_kids = []
            for index, kid in enumerate(kids):
                kid_result = _at(run, kid, index)
                assert isinstance(kid_result, Success)
                new_kids.append(kid_result.expr)
            current = rebuild(current, new_kids)
        return Success(current)

    wrapper = Strategy(run, f"allTopDown({strategy.name})")
    return wrapper


def normalize(strategy: Strategy) -> Strategy:
    """Apply everywhere, repeatedly, until no location matches (paper §II-C:
    after ``normalize(s)`` the strategy ``s`` applies nowhere).

    Same normal form and same rewrite order as ``repeat(top_down(s))`` —
    each step rewrites the leftmost-outermost location where ``s``
    succeeds — with the same stop conditions: no location matches, ``s``
    succeeds without changing the term, or ``_MAX_REPEAT`` steps
    (:class:`StrategyError`).  Unlike that composition it does not walk
    the whole term again after every step: for the duration of one call
    it remembers the subtrees in which no location matches.  A rewrite
    only creates the replacement and the spine from the root down to it
    (:func:`~repro.rise.traverse.rebuild` keeps untouched children by
    identity), so one step costs O(depth + new nodes), not O(term).

    This relies on ``s`` deciding success or failure from the subterm it
    is offered alone: no ambient mutable state, no dependence on where
    the subterm sits.  The iteration count is reported to the trace
    collector as ``repeat(topDown(s))``, the composition this implements.
    """
    spec_name = f"repeat(topDown({strategy.name}))"

    def run(expr: Expr) -> RewriteResult:
        # id -> subtree with no matching location; holding the subtree
        # keeps its id from being reused while the entry is alive
        settled: dict[int, Expr] = {}

        def step(node: Expr) -> Optional[Expr]:
            """``node`` with its first matching location rewritten, or
            ``None`` (and ``node`` settled) when there is none."""
            if id(node) in settled:
                return None
            result = strategy(node)
            if isinstance(result, Success):
                return result.expr
            kids = children(node)
            for index, kid in enumerate(kids):
                new_kid = _at(step, kid, index)
                if new_kid is not None:
                    kids[index] = new_kid
                    return rebuild(node, kids)
            settled[id(node)] = node
            return None

        try:
            for iterations in range(_MAX_REPEAT):
                rewritten = step(expr)
                if rewritten is None or rewritten is expr:
                    _note_iterations(spec_name, iterations)
                    return Success(expr)
                expr = rewritten
            _note_iterations(spec_name, _MAX_REPEAT)
            raise StrategyError(f"{spec_name} exceeded {_MAX_REPEAT} steps")
        finally:
            # ``step`` refers to itself, a cycle only the collector frees:
            # do not let it keep every settled subtree alive until then
            settled.clear()

    return Strategy(run, f"normalize({strategy.name})")


def apply_once(strategy: Strategy) -> Strategy:
    """The paper's ``applyOnce``: depth-first top-down, first location."""
    wrapped = top_down(strategy)
    return Strategy(wrapped, f"applyOnce({strategy.name})")


# -- position-restricted traversals ------------------------------------


def body(strategy: Strategy) -> Strategy:
    """Apply inside a lambda body."""
    from repro.rise.expr import Lambda

    def run(expr: Expr) -> RewriteResult:
        if not isinstance(expr, Lambda):
            return Failure(wrapper, "not a lambda")
        result = _at(strategy, expr.body, "body")
        if isinstance(result, Failure):
            return result
        return Success(Lambda(expr.param, result.expr))

    wrapper = Strategy(run, f"body({strategy.name})")
    return wrapper


def function(strategy: Strategy) -> Strategy:
    """Apply to the function position of an application."""
    from repro.rise.expr import App

    def run(expr: Expr) -> RewriteResult:
        if not isinstance(expr, App):
            return Failure(wrapper, "not an application")
        result = _at(strategy, expr.fun, "fun")
        if isinstance(result, Failure):
            return result
        return Success(App(result.expr, expr.arg))

    wrapper = Strategy(run, f"function({strategy.name})")
    return wrapper


def argument(strategy: Strategy) -> Strategy:
    """Apply to the argument position of an application."""
    from repro.rise.expr import App

    def run(expr: Expr) -> RewriteResult:
        if not isinstance(expr, App):
            return Failure(wrapper, "not an application")
        result = _at(strategy, expr.arg, "arg")
        if isinstance(result, Failure):
            return result
        return Success(App(expr.fun, result.expr))

    wrapper = Strategy(run, f"argument({strategy.name})")
    return wrapper
