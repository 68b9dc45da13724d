"""Compile profiles: a per-program view over the observer's codegen spans."""

from repro.codegen import compile_program
from repro.codegen.cprint import program_to_c
from repro.observe import Observer, active, compile_profiles, observing, span
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq, reduce_seq, slide

SENV = {"xs": array("n", f32)}


def _sums():
    return map_seq(
        fun(lambda w: reduce_seq(fun(lambda a, b: a + b), lit(0.0), w)),
        slide(3, 1, Identifier("xs")),
    )


class TestPhase:
    def test_inactive_by_default(self):
        assert active() is None
        compile_program(_sums(), SENV, "sums")  # records nothing
        assert compile_profiles(Observer()) == []

    def test_phases_accumulate_by_name(self):
        with observing() as obs:
            with span("codegen.lower", program="p", rise_nodes=3):
                with span("codegen.fold"):
                    pass
                with span("codegen.fold") as s:
                    s.meta["nodes_out"] = 7
        [profile] = compile_profiles(obs)
        assert (profile["program"], profile["rise_nodes"]) == ("p", 3)
        [stat] = profile["phases"]
        assert (stat["name"], stat["calls"], stat["nodes_out"]) == ("codegen.fold", 2, 7)
        assert stat["wall_ms"] >= 0.0

    def test_unattributed_fallback(self):
        # phases outside any codegen.lower/print span, and other spans
        # that carry program= (kernel runs, batches), are not compiles
        with observing() as obs:
            with span("codegen.fold"), span("run:k", program="p"):
                pass
        assert compile_profiles(obs) == []


class TestCompilePipeline:
    def test_compile_program_yields_phase_profile(self):
        with observing() as obs:
            compile_program(_sums(), SENV, "sums")
        [profile] = compile_profiles(obs)
        phases = {p["name"]: p for p in profile["phases"]}
        assert set(phases) == {"rise.typecheck", "codegen.emit", "codegen.fold", "codegen.cse"}
        assert phases["codegen.emit"]["ir_nodes"] > 0
        assert profile["rise_nodes"] > 0
        fold = phases["codegen.fold"]
        assert fold["nodes_in"] >= fold["nodes_out"] > 0
        assert sum(p["wall_ms"] for p in profile["phases"]) > 0.0

    def test_cprint_phase(self):
        prog = compile_program(_sums(), SENV, "sums")
        with observing() as obs:
            program_to_c(prog)
        [profile] = compile_profiles(obs)
        [stat] = profile["phases"]
        assert (stat["name"], stat["calls"]) == ("codegen.print", 1)
        assert stat["chars"] > 0

    def test_to_dict_and_render(self):
        with observing() as obs:
            program_to_c(compile_program(_sums(), SENV, "sums"))
        [d] = compile_profiles(obs)
        assert d["program"] == "sums"
        assert {p["name"] for p in d["phases"]} >= {"codegen.emit", "codegen.print"}
        text = obs.render_text()
        assert "codegen.lower" in text and "program=sums" in text

    def test_shared_collector_across_programs(self):
        obs = Observer()
        for name in ("a", "b"):
            with observing(obs):
                compile_program(_sums(), SENV, name)
        assert [p["program"] for p in compile_profiles(obs)] == ["a", "b"]
