"""Rewrite tracing: rule events, paths, repeat/normalize iteration counts
and the runaway-repeat path."""

import pytest

import repro.elevate.core as elevate_core
from repro.elevate import (
    StrategyError,
    Success,
    apply_once,
    normalize,
    one,
    repeat,
    rule,
    top_down,
)
from repro.observe import TraceCollector, trace_active, tracing
from repro.rise import Identifier, Literal
from repro.rise.dsl import arr, fun, lit, map_

xs = Identifier("xs")


@rule("incrementLiteral")
def increment_literal(expr):
    if isinstance(expr, Literal) and expr.value < 3.0:
        return Literal(expr.value + 1.0)
    return None


@rule("toggleLiteral")
def toggle_literal(expr):
    """Alternates between 0.0 and 1.0 forever — a runaway under repeat."""
    if isinstance(expr, Literal):
        return Literal(1.0 - expr.value)
    return None


class TestTracing:
    def test_inactive_by_default(self):
        assert trace_active() is None

    def test_rule_event_on_success(self):
        with tracing() as t:
            result = increment_literal(lit(1.0))
        assert isinstance(result, Success)
        events = [e for e in t.events if e.succeeded]
        assert len(events) == 1
        event = events[0]
        assert event.rule == "incrementLiteral"
        assert event.path == ()
        assert event.before_nodes == 1 and event.after_nodes == 1
        assert event.wall_ms >= 0.0
        assert t.rule_fired == {"incrementLiteral": 1}

    def test_rule_event_on_failure_keeps_reason(self):
        with tracing() as t:
            increment_literal(xs)
        [event] = t.events
        assert not event.succeeded
        assert event.reason == "pattern did not match"
        assert t.rule_failed == {"incrementLiteral": 1}

    def test_path_tracking_through_traversals(self):
        prog = map_(fun(lambda x: x * lit(2.0)), arr([1, 2]))
        with tracing() as t:
            apply_once(increment_literal)(prog)
        fired = [e for e in t.events if e.succeeded]
        assert len(fired) == 1
        # the literal sits below the root: traversal recorded a real path
        assert len(fired[0].path) >= 1
        assert all(isinstance(step, (int, str)) for step in fired[0].path)

    def test_combinators_counted_not_evented(self):
        with tracing() as t:
            top_down(increment_literal)(lit(1.0))
        # combinator invocations land in strategy_calls, not in events
        assert any(name.startswith("topDown") for name in t.strategy_calls)
        assert all(e.rule == "incrementLiteral" for e in t.events)

    def test_repeat_iteration_counts(self):
        with tracing() as t:
            result = repeat(increment_literal)(lit(0.0))
        assert result.expr.value == 3.0
        [(name, runs)] = t.iterations.items()
        assert name == "repeat(incrementLiteral)"
        assert runs == [3]

    def test_normalize_iterations_recorded(self):
        prog = lit(0.0) + lit(1.0)
        with tracing() as t:
            normalize(increment_literal)(prog)
        assert any(name.startswith("repeat(topDown") for name in t.iterations)
        total = sum(sum(runs) for runs in t.iterations.values())
        assert total == 5  # the two literals incremented to 3.0: 3 + 2 steps

    def test_runaway_repeat_is_traced(self, monkeypatch):
        monkeypatch.setattr(elevate_core, "_MAX_REPEAT", 50)
        with tracing() as t:
            with pytest.raises(StrategyError, match="exceeded 50 steps"):
                repeat(toggle_literal)(lit(0.0))
        assert t.rule_fired["toggleLiteral"] == 50
        assert t.iterations["repeat(toggleLiteral)"] == [50]

    def test_event_cap_keeps_counting(self):
        collector = TraceCollector(max_events=2)
        with tracing(collector):
            for _ in range(5):
                increment_literal(lit(0.0))
        assert len(collector.events) == 2
        assert collector.dropped_events == 3
        assert collector.rule_fired["incrementLiteral"] == 5

    def test_summary_shape(self):
        with tracing() as t:
            repeat(increment_literal)(lit(0.0))
        s = t.summary(k=3)
        assert set(s) == {
            "rule_applications", "rule_failures", "strategy_invocations",
            "distinct_rules", "rule_wall_ms", "events_retained",
            "events_dropped", "top_fired", "top_failed", "iterations",
        }
        assert s["top_fired"][0]["rule"] == "incrementLiteral"
        assert "incrementLiteral" in t.summary_text()


class TestFailureCauses:
    def test_seq_chains_to_deepest_rule_failure(self):
        strategy = apply_once(increment_literal) >> apply_once(increment_literal)
        result = strategy(xs)
        assert not isinstance(result, Success)
        chain = result.chain()
        assert chain[0].strategy is strategy
        deepest = result.deepest()
        assert deepest.strategy.name == "incrementLiteral"
        assert deepest.reason == "pattern did not match"
        assert result.reason_chain().endswith(
            "incrementLiteral: pattern did not match"
        )

    def test_apply_error_surfaces_deepest_reason(self):
        strategy = apply_once(increment_literal) >> apply_once(increment_literal)
        with pytest.raises(StrategyError, match="pattern did not match"):
            strategy.apply(xs)

    def test_one_and_all_wrap_child_failures(self):
        prog = map_(fun(lambda x: x), arr([9, 9]))  # no Literal < 3.0 anywhere
        failure = one(increment_literal)(prog)
        assert not isinstance(failure, Success)
        assert failure.reason == "no child matched"
        assert failure.deepest().reason == "pattern did not match"
        from repro.elevate import all_

        failure = all_(increment_literal)(prog)
        assert failure.reason.startswith("child ")
        assert failure.deepest().reason == "pattern did not match"
