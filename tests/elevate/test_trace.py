"""Tests for rewrite tracing — the tooling for inspecting derivations."""

from repro.elevate import Success, apply_once
from repro.observe import tracing
from repro.rise import Identifier
from repro.rise.dsl import arr, dot
from repro.rules.algorithmic import reduce_map_fusion
from repro.strategies.schedules import Schedule, cbuf_version


class TestRewriteTrace:
    def test_records_successful_steps(self):
        prog = dot(arr([1, 2, 3]))(Identifier("xs"))
        with tracing() as t:
            result = apply_once(reduce_map_fusion)(prog)
        assert isinstance(result, Success)
        assert "reduceSeq" in repr(result.expr)
        fired = [e for e in t.events if e.succeeded]
        assert len(fired) == 1
        assert fired[0].rule == "reduceMapFusion"
        assert t.rule_fired == {"reduceMapFusion": 1}

    def test_failed_steps_not_recorded(self):
        with tracing() as t:
            apply_once(reduce_map_fusion)(Identifier("xs"))
        assert not any(e.succeeded for e in t.events)
        assert t.rule_fired == {}

    def test_schedule_derivation_steps(self):
        """apply_traced exposes the full listing-5 derivation: the program
        after each named strategy, usable to write out the derivation."""
        from repro.pipelines import harris, harris_input_type

        senv = {"rgb": harris_input_type()}
        schedule = cbuf_version(senv, chunk=4)
        trace = schedule.apply_traced(harris(Identifier("rgb")))
        names = [name for name, _ in trace]
        assert names[0] == "input"
        assert "fuseOperators" in names
        assert "harrisIxWithIy" in names
        # node counts change over the derivation
        from repro.rise.traverse import count_nodes

        sizes = [count_nodes(prog) for _, prog in trace]
        assert len(set(sizes)) > 3
