"""``normalize(s)`` against its specification ``repeat(top_down(s))``.

``normalize`` skips subtrees it has already seen to be in normal form;
the composition of the public combinators below re-walks the whole term
after every rewrite and stays here, in the tests, as the oracle.  Both
must produce ``==`` results (gensym numbering included, so the counter is
pinned) and fire the same rules at the same paths in the same order.
"""

import copy
import inspect
import itertools

import pytest

import repro.elevate.core as elevate_core
from repro.elevate import Strategy, StrategyError, normalize, repeat, rule, top_down
from repro.observe import TraceCollector, tracing
from repro.pipelines import registry
from repro.rise import expr as expr_mod
from repro.rise.dsl import fun, lit, map_
from repro.rise.expr import App, Identifier, Lambda, Literal
from repro.strategies.harris import (
    _FUSION_RULES,
    _PROJECTION_CLEANUP,
    _SIMPLIFY_RULES,
)
from repro.verify.gen import generate_program


class _FiredOnly(TraceCollector):
    """Keeps the (rule, path) of every hit and nothing of the misses: the
    oracle misses 1.7 M times on one Harris step."""

    def __init__(self):
        super().__init__()
        self.fired = []

    def record_call(self, name, kind, succeeded, *rest):
        if kind == "rule" and succeeded:
            self.fired.append((name, self.current_path()))


def _traced(strategy, expr, gensym):
    """(outcome, fired events, iteration counts) of one traced run with
    the gensym counter restarted from a copy of ``gensym``."""
    expr_mod.Fresh._counter = copy.copy(gensym)
    with tracing(_FiredOnly()) as t:
        try:
            outcome = strategy(expr).expr
        except StrategyError as exc:
            outcome = str(exc)
    return outcome, t.fired, t.iterations


def assert_same_as_spec(inner, expr, gensym=None):
    """``normalize(inner)`` and the oracle agree on ``expr``; returns the
    normal form and the number of rewrites."""
    gensym = gensym if gensym is not None else itertools.count(1_000_000)
    spec = _traced(repeat(top_down(inner)), expr, gensym)
    new = _traced(normalize(inner), expr, gensym)
    assert new[0] == spec[0]
    assert new[1] == spec[1]
    assert new[2] == spec[2]
    return new[0], len(new[1])


def _inner_of(strategy):
    """The ``s`` of a strategy built by ``normalize(s)``, else ``None``."""
    fn = strategy._fn
    if getattr(fn, "__qualname__", "") != "normalize.<locals>.run":
        return None
    return inspect.getclosurevars(fn).nonlocals["strategy"]


@pytest.fixture
def checked_normalize(monkeypatch):
    """Every ``normalize`` invocation inside a composed strategy is
    compared with the oracle on the input it actually receives; yields
    the list of per-invocation rewrite counts."""
    plain_call = Strategy.__call__
    rewrites = []

    def call(self, expr):
        inner = _inner_of(self)
        if inner is None:
            return plain_call(self, expr)
        with monkeypatch.context() as m:
            m.setattr(Strategy, "__call__", plain_call)
            normal_form, n = assert_same_as_spec(inner, expr, expr_mod.Fresh._counter)
        rewrites.append(n)
        return elevate_core.Success(normal_form)

    monkeypatch.setattr(Strategy, "__call__", call)
    return rewrites


def _zoo_pairs():
    pairs = [
        (pipeline, schedule)
        for pipeline in registry.names()
        if pipeline != "harris"
        for schedule, report in registry.applicable_schedules(pipeline).items()
        if report.applies
    ]
    # the oracle needs ~6 s per Harris schedule: one of them, not five
    return pairs + [("harris", "cbuf-rot")]


class TestScheduleSteps:
    @pytest.mark.parametrize("pipeline,schedule", _zoo_pairs())
    def test_every_normalize_call_matches_spec(self, pipeline, schedule, checked_normalize):
        spec = registry.get(pipeline)
        program = spec.expr()
        for step in registry.make_schedule(schedule, spec.type_env()).steps:
            program = step.apply(program)
        assert checked_normalize, "sanity: the schedule normalizes somewhere"
        if schedule != "naive":
            assert sum(checked_normalize) > 0


class TestGeneratedPrograms:
    @pytest.mark.parametrize(
        "rules",
        [_SIMPLIFY_RULES, _FUSION_RULES, _PROJECTION_CLEANUP],
        ids=["simplify", "fusion", "projection-cleanup"],
    )
    def test_seeded_programs(self, rules):
        rewrites = 0
        for seed in range(200):
            generated = generate_program(seed)
            # one beta-redex per stage, so a reduction substitutes a term
            # that itself holds redexes (twice, where a stage zips its
            # input with itself)
            program = generated.base
            for i, stage in enumerate(generated.stages):
                x = Identifier(f"stage{i}")
                program = App(Lambda(x, stage.build(x)), program)
            _, n = assert_same_as_spec(rules, program)
            rewrites += n
        assert rewrites > 500, "sanity: the programs are not all normal forms"


@rule("touchLiteral")
def touch_literal(expr):
    """Succeeds on a literal without changing it."""
    return expr if isinstance(expr, Literal) else None


@rule("toggleLiteral")
def toggle_literal(expr):
    """Alternates between 0.0 and 1.0 forever."""
    return Literal(1.0 - expr.value) if isinstance(expr, Literal) else None


class TestStopConditions:
    PROGRAM = map_(fun(lambda x: x * lit(0.0)), Identifier("xs"))

    def test_success_without_change_stops(self):
        normal_form, n = assert_same_as_spec(touch_literal, self.PROGRAM)
        assert normal_form is self.PROGRAM
        assert n == 1

    def test_runaway_raises_after_max_repeat(self, monkeypatch):
        monkeypatch.setattr(elevate_core, "_MAX_REPEAT", 50)
        message, n = assert_same_as_spec(toggle_literal, self.PROGRAM)
        assert message == "repeat(topDown(toggleLiteral)) exceeded 50 steps"
        assert n == 50


class TestWorkBudget:
    def test_counted_pair_attempts(self):
        """The two derivations ``benchmarks/e2e`` counts rules on, at the
        zoo's default chunk and vector width: the hits are what the
        schedules do, the attempts what finding them costs (1,750,400
        when every rewrite re-walked the whole term)."""
        hits = attempts = 0
        for pipeline in ("harris", "gaussian-blur"):
            spec = registry.get(pipeline)
            schedule = registry.make_schedule("cbuf-rot", spec.type_env())
            with tracing() as t:
                schedule.apply(spec.expr())
            hits += sum(t.rule_fired.values())
            attempts += sum(t.rule_fired.values()) + sum(t.rule_failed.values())
        assert hits == 797
        assert attempts <= 150_000
