"""Thread configuration must enter the compile cache key and flow from
``Engine.compile`` through ``CompiledPipeline.run`` (no stale ``.so`` or
program reuse across thread configs, no silent sequential reuse)."""

import numpy as np
import pytest

from repro.engine import CompileRequest
from repro.engine.pipeline import Engine
from repro.exec import cbridge
from repro.image import reference, synthetic_rgb
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier
from repro.strategies import cbuf_par_version, cbuf_version

SENV = {"rgb": harris_input_type()}
SIZES = {"n": 16, "m": 16}


@pytest.fixture
def engine():
    return Engine(cache_dir=None)


def compile_par(engine, threads=None, backend="python"):
    return engine.compile(
        harris(Identifier("rgb")),
        strategy=cbuf_par_version(SENV, chunk=4, vec=4, strip=2),
        type_env=SENV,
        backend=backend,
        sizes=SIZES,
        name="harris_par",
        threads=threads,
    )


class TestCacheKey:
    def test_thread_configs_key_separately(self, engine):
        keys = {compile_par(engine, threads=t).key for t in (None, 1, 2, 4)}
        assert len(keys) == 4

    def test_same_thread_config_is_a_hit(self, engine):
        cold = compile_par(engine, threads=2)
        warm = compile_par(engine, threads=2)
        assert cold.cache_status == "miss"
        assert warm.cache_status == "hit-memory"
        assert warm.key == cold.key

    def test_effective_cflags_enter_c_key(self, engine):
        """A .so keyed under sequential flags must never be served to an
        OpenMP-capable flag set: the key is computed from *effective*
        flags, so toggling toolchain support changes the key."""
        high = harris(Identifier("rgb"))
        strategy = cbuf_version(SENV, chunk=4, vec=4)
        request = CompileRequest(
            source=high, strategy=strategy, backend="c", type_env=SENV, cflags=("-O2",)
        )
        key_for = lambda: engine._keyed(request)[1]
        cbridge.toolchain.cache_clear()
        try:
            import unittest.mock as mock

            with mock.patch.object(cbridge, "have_c_compiler", lambda: False):
                cbridge.toolchain.cache_clear()
                seq_key = key_for()
            cbridge.toolchain.cache_clear()
            omp_key = key_for()
        finally:
            cbridge.toolchain.cache_clear()
        if cbridge.openmp_available():
            assert seq_key != omp_key
        else:
            assert seq_key == omp_key

    def test_threads_recorded_in_entry_meta(self, engine):
        pipeline = compile_par(engine, threads=3)
        entry, _ = engine.cache.get(pipeline.key)
        assert entry.meta["threads"] == 3


class TestThreadFlow:
    def test_compile_time_default_used_at_run(self, engine, fresh_metrics_registry):
        img = synthetic_rgb(20, 20, seed=3)
        pipeline = compile_par(engine, threads=2)
        out = pipeline.run(rgb=img)
        np.testing.assert_allclose(
            out.reshape(16, 16), reference.harris(img), rtol=1e-3, atol=1e-4
        )
        snap = fresh_metrics_registry.snapshot()
        gauges = {k: v for k, v in snap["gauges"].items() if "engine.run.threads" in k}
        assert gauges and all(v == 2 for v in gauges.values())

    def test_per_run_override_beats_compile_default(
        self, engine, fresh_metrics_registry
    ):
        img = synthetic_rgb(20, 20, seed=3)
        pipeline = compile_par(engine, threads=4)
        a = pipeline.run(rgb=img, threads=1)
        b = pipeline.run(rgb=img, threads=4)
        assert np.array_equal(a, b)
        snap = fresh_metrics_registry.snapshot()
        gauges = {k: v for k, v in snap["gauges"].items() if "engine.run.threads" in k}
        assert gauges and set(gauges.values()) == {4}  # gauge keeps last value

    @pytest.mark.requires_gcc
    def test_c_backend_thread_configs_do_not_share_pipelines(self, engine):
        img = synthetic_rgb(20, 20, seed=3)
        one = compile_par(engine, threads=1, backend="c")
        four = compile_par(engine, threads=4, backend="c")
        assert one.key != four.key
        assert np.array_equal(one.run(rgb=img), four.run(rgb=img))
