"""Shared test helpers (the promoted ``tests/helpers`` module).

Semantic-equivalence checking is the test-side analogue of the paper's
PSNR validation: a rewrite is correct iff interpreting the program
before and after on the same inputs gives (numerically) the same
outputs.  The flattening/comparison core lives in
:mod:`repro.verify.oracle` so the unit tests and the fuzzer share one
hardened definition of "semantically equal"; fixtures (small images,
``requires_gcc`` skipping, fresh metrics registries) live in
``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np

from repro.elevate.core import Strategy, Success
from repro.rise.expr import Expr
from repro.rise.interpreter import evaluate, from_numpy
from repro.rise.typecheck import infer_types
from repro.verify.oracle import equivalence_report, flatten_value, values_close

__all__ = [
    "flatten_value",
    "values_close",
    "assert_values_close",
    "apply_ok",
    "assert_semantics_preserved",
    "fallback_counts",
]


def assert_values_close(a, b, rtol: float = 1e-5, atol: float = 1e-6) -> None:
    """Assert two interpreter values are shape- and value-equivalent."""
    report = equivalence_report(a, b, rtol=rtol, atol=atol)
    assert report is None, f"values differ: {report}"


def apply_ok(strategy: Strategy, expr: Expr) -> Expr:
    """Apply a strategy, asserting success."""
    result = strategy(expr)
    assert isinstance(result, Success), f"{strategy.name} failed on {expr!r}"
    return result.expr


def assert_semantics_preserved(
    strategy: Strategy,
    expr: Expr,
    env_values: dict,
    type_env: dict | None = None,
    rtol: float = 1e-5,
) -> Expr:
    """Apply ``strategy`` to ``expr`` and check both type- and value-level
    equivalence under the given environment.  Returns the rewritten expr."""
    rewritten = apply_ok(strategy, expr)
    if type_env is not None:
        before = infer_types(expr, type_env).root_type
        after = infer_types(rewritten, type_env).root_type
        assert before == after, f"type changed: {before!r} -> {after!r}"
    value_env = {
        name: from_numpy(v) if isinstance(v, np.ndarray) else v
        for name, v in env_values.items()
    }
    before_value = evaluate(expr, value_env)
    after_value = evaluate(rewritten, value_env)
    assert_values_close(before_value, after_value, rtol=rtol)
    return rewritten


def fallback_counts() -> dict[str, float]:
    """The process-wide ``codegen.fallback.*`` counters: how often
    lowering chose a sliding window over rotating registers
    (``rotate_window``) and a scalar loop over vector strips
    (``scalar_loop``).  Subtract two readings to count one compile."""
    from repro.observe.metrics import registry

    names = ("codegen.fallback.rotate_window", "codegen.fallback.scalar_loop")
    return {name: registry().counter(name).value for name in names}
