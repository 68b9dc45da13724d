"""Cache behavior: warm compiles must skip every compiler phase, and the
disk tier must warm-start a brand-new engine without recompiling."""

import numpy as np
import pytest

from repro.engine import Engine
from repro.image import synthetic_rgb, reference
from repro.observe import compile_profiles, observing
from repro.pipelines import harris, harris_input_type, registry
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq
from repro.strategies import cbuf_version

SENV = {"rgb": harris_input_type()}
SIZES = {"n": 12, "m": 16}


def compile_harris(engine):
    return engine.compile(
        harris(Identifier("rgb")),
        strategy=cbuf_version(SENV, chunk=4),
        type_env=SENV,
        sizes=SIZES,
        name="harris_cbuf",
    )


class TestWarmPath:
    def test_second_compile_hits_memory_without_any_compile_phase(self):
        eng = Engine()
        cold = compile_harris(eng)
        assert cold.cache_status == "miss"

        with observing() as obs:
            warm = compile_harris(eng)
        assert warm.cache_status == "hit-memory"
        # acceptance criterion: zero compiler-layer spans on the hit path
        names = [s.name for s in obs.flat_spans()]
        assert names == ["engine.compile"]
        assert compile_profiles(obs) == []
        # and at least 5x cheaper in wall time (observed: >1000x)
        assert warm.compile_ms * 5 < cold.compile_ms
        # same artifact either way
        assert warm.key == cold.key
        assert warm.program is cold.program

    def test_hit_miss_accounting(self):
        eng = Engine()
        compile_harris(eng)
        compile_harris(eng)
        compile_harris(eng)
        stats = eng.stats()
        assert stats["misses"] == 1
        assert stats["memory_hits"] == 2
        assert stats["hits"] == 2
        assert stats["stores"] == 1
        assert stats["memory_entries"] == 1

    def test_warm_output_matches_cold(self):
        eng = Engine()
        img = synthetic_rgb(16, 20, seed=5)
        cold_out = compile_harris(eng).run(rgb=img)
        warm_out = compile_harris(eng).run(rgb=img)
        np.testing.assert_array_equal(cold_out, warm_out)
        ref = reference.harris(img)
        np.testing.assert_allclose(
            cold_out.reshape(ref.shape), ref, rtol=1e-3, atol=1e-4
        )


class TestColdPath:
    @pytest.mark.requires_gcc
    def test_cold_c_compile_opens_one_span_per_layer(self):
        triple = map_seq(fun(lambda v: v * lit(3.0)), Identifier("xs"))
        with observing() as obs:
            Engine().compile(triple, type_env={"xs": array("n", f32)}, backend="c")
        assert [s.name for s in obs.spans] == ["engine.compile"]
        below = [s.name for s in obs.flat_spans()[1:]]
        for layer in ("codegen.lower", "codegen.print", "exec.gcc"):
            assert below.count(layer) == 1, below

    def test_zoo_compile_opens_the_same_spans_as_expr_plus_schedule(self):
        spec = registry.get("box-blur")
        schedule = spec.schedule("cbuf", chunk=4, vec=4)
        with observing() as by_expr:
            Engine().compile(spec.expr(), strategy=schedule, type_env=spec.type_env())
        with observing() as by_zoo:
            options = {"pipeline": "box-blur", "schedule": "cbuf", "chunk": 4, "vec": 4}
            Engine().compile("zoo", options=options)
        expr_names = [s.name for s in by_expr.flat_spans()]
        zoo_names = [s.name for s in by_zoo.flat_spans() if s.name != "engine.build"]
        assert expr_names[:2] == ["engine.compile", "elevate.rewrite"]
        assert zoo_names == expr_names


class TestDiskTier:
    def test_fresh_engine_warm_starts_from_disk(self, tmp_path):
        first = Engine(cache_dir=tmp_path)
        cold = compile_harris(first)
        assert cold.cache_status == "miss"
        assert first.stats()["disk_store"] == str(tmp_path)

        # a brand-new engine (think: new process) finds the artifact on disk
        second = Engine(cache_dir=tmp_path)
        warm = compile_harris(second)
        assert warm.cache_status == "hit-disk"
        assert warm.key == cold.key
        stats = second.stats()
        assert stats["disk_hits"] == 1 and stats["misses"] == 0

        img = synthetic_rgb(16, 20, seed=5)
        np.testing.assert_array_equal(cold.run(rgb=img), warm.run(rgb=img))

    def test_disk_artifact_layout(self, tmp_path):
        eng = Engine(cache_dir=tmp_path)
        pipeline = compile_harris(eng)
        adir = tmp_path / pipeline.key[:2] / pipeline.key
        assert (adir / "meta.json").is_file()
        assert (adir / "program.pkl").is_file()
        meta = (adir / "meta.json").read_text()
        assert pipeline.key in meta and "artifact_bytes" in meta


class TestEviction:
    def test_lru_respects_memory_slots(self):
        eng = Engine(memory_slots=1)
        halide = {"pipeline": "harris", "schedule": "halide", "chunk": 4, "vec": 4}
        opencv = {"pipeline": "harris", "schedule": "opencv", "chunk": 4, "vec": 4}
        a = eng.compile("zoo", options=halide)
        b = eng.compile("zoo", options=opencv)
        assert a.key != b.key
        assert eng.stats()["memory_entries"] == 1
        # the evicted builder recompiles: a second miss, not a hit
        eng.compile("zoo", options=halide)
        assert eng.stats()["misses"] == 3

    def test_unknown_builder_and_backend_are_rejected(self):
        eng = Engine()
        with pytest.raises(KeyError, match="no-such-builder"):
            eng.compile("no-such-builder")
        with pytest.raises(ValueError, match="backend"):
            eng.compile("zoo", backend="cuda")
