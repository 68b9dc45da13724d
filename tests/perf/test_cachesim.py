"""Trace-driven cache simulation: validates the analytic memory model's
qualitative claims on small instances (DESIGN.md section 5)."""

import pytest

from repro.perf.cachesim import LRUCache, simulate_program, trace_accesses


class TestLRUCache:
    def test_cold_miss_then_hit(self):
        c = LRUCache(size_kb=1)
        assert not c.access(0)
        assert c.access(0)
        assert c.access(4)  # same line

    def test_eviction(self):
        c = LRUCache(size_kb=1, line_bytes=64, ways=1)
        sets = c.sets
        c.access(0)
        c.access(sets * 64)  # maps to the same set, evicts
        assert not c.access(0)

    def test_lru_order(self):
        c = LRUCache(size_kb=1, line_bytes=64, ways=2)
        stride = c.sets * 64
        c.access(0)
        c.access(stride)
        c.access(0)            # refresh line 0
        c.access(2 * stride)   # evicts the stale line (stride), not 0
        assert c.access(0)
        assert not c.access(stride)

    def test_stats(self):
        c = LRUCache(size_kb=4)
        for _ in range(10):
            c.access(128)
        assert c.stats.accesses == 10
        assert c.stats.misses == 1
        assert c.stats.hit_rate == 0.9


@pytest.fixture(scope="module")
def small_programs():
    import repro
    from repro.codegen import compile_program
    from repro.pipelines import harris, harris_input_type
    from repro.rise import Identifier
    from repro.strategies import cbuf_version

    senv = {"rgb": harris_input_type()}
    cbuf = compile_program(
        cbuf_version(senv, chunk=4).apply(harris(Identifier("rgb"))), senv, "cbuf"
    )
    lift = repro.compile("zoo", options={"pipeline": "harris", "schedule": "lift"}).program
    return cbuf, lift


class TestTraceValidation:
    def test_trace_is_nonempty_and_bounded(self, small_programs):
        from repro.codegen.sizes import resolve_sizes

        cbuf, _ = small_programs
        sizes = resolve_sizes(cbuf, {"n": 8, "m": 12})
        trace = list(trace_accesses(cbuf.functions[0], sizes))
        assert 1_000 < len(trace) < 2_000_000
        assert any(is_store for _, _, is_store in trace)

    def test_fused_pipeline_is_l1_friendly(self, small_programs):
        """The cbuf schedule streams through small line buffers: its L1 hit
        rate must be high — the claim behind charging its temporary
        traffic to L1/L2 in the analytic model."""
        cbuf, _ = small_programs
        result = simulate_program(cbuf, {"n": 8, "m": 12})
        assert result.l1.hit_rate > 0.85

    def test_multi_kernel_produces_more_dram_traffic(self, small_programs):
        """LIFT materializes every intermediate: with caches smaller than
        the intermediates it must push more traffic past L2 than the fused
        pipeline — the ordering the analytic model encodes."""
        cbuf, lift = small_programs
        sizes = {"n": 16, "m": 128}
        # caches sized so the fused pipeline's line buffers fit but the
        # multi-kernel full-size intermediates (16x128 floats) do not
        fused = simulate_program(cbuf, sizes, l1_kb=4, l2_kb=8)
        multi = simulate_program(lift, sizes, l1_kb=4, l2_kb=8)
        assert multi.dram_bytes > 1.3 * fused.dram_bytes
