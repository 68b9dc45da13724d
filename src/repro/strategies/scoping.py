"""Scoped traversal combinators used by the pipeline-level strategies.

The pipeline transformations of section IV act at precise locations:
splitting propagates along the *argument chain* of the pipeline (never
into stage functions), and circular buffering rewrites the stage slides
inside the parallel chunk function.  These combinators express those
scopes on top of the generic ELEVATE traversals.
"""

from __future__ import annotations

from repro.elevate.core import Failure, RewriteResult, Strategy, Success
from repro.rise.expr import App, Expr, Lambda, MapGlobal, MapSeq, Primitive
from repro.rise.traverse import app_spine, from_spine

__all__ = ["down_arg", "in_chunk_function"]


def down_arg(strategy: Strategy) -> Strategy:
    """Try the strategy at the current node, else descend into the argument
    position only: ``s <+ argument(down_arg(s))``.

    This walks the pipeline spine ``x |> f |> g`` (which nests as
    ``g(f(x))``) without ever entering the stage functions ``f``/``g`` —
    the scope in which split propagation is valid.
    """

    def run(expr: Expr) -> RewriteResult:
        result = strategy(expr)
        if isinstance(result, Success):
            return result
        if isinstance(expr, App):
            inner = run(expr.arg)
            if isinstance(inner, Success):
                return Success(App(expr.fun, inner.expr))
        return Failure(wrapper, "no location on the argument chain matched")

    wrapper = Strategy(run, f"downArg({strategy.name})")
    return wrapper


def in_chunk_function(strategy: Strategy) -> Strategy:
    """Apply a strategy to the body of the chunk function — the lambda
    inside the (first) ``mapGlobal`` (or ``mapSeq`` for single-threaded
    ablation variants)."""

    def run(expr: Expr) -> RewriteResult:
        found: list[bool] = []

        def go(e: Expr) -> Expr | None:
            if found:
                return None
            head, args = app_spine(e)
            if isinstance(head, (MapGlobal, MapSeq)) and args and isinstance(args[0], Lambda):
                chunk = args[0]
                result = strategy(chunk.body)
                if isinstance(result, Failure):
                    return None
                found.append(True)
                new_chunk = Lambda(chunk.param, result.expr)
                return from_spine(head, [new_chunk] + args[1:])
            if isinstance(e, App):
                new_fun = go(e.fun)
                if new_fun is not None:
                    return App(new_fun, e.arg)
                new_arg = go(e.arg)
                if new_arg is not None:
                    return App(e.fun, new_arg)
            if isinstance(e, Lambda):
                new_body = go(e.body)
                if new_body is not None:
                    return Lambda(e.param, new_body)
            return None

        rewritten = go(expr)
        if rewritten is None:
            return Failure(wrapper, "no mapGlobal chunk found or strategy failed")
        return Success(rewritten)

    wrapper = Strategy(run, f"inChunkFunction({strategy.name})")
    return wrapper

