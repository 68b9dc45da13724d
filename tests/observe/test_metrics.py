"""Metrics registry: instruments, quantiles, exporters, thread safety."""

import json
import random
import threading

import pytest

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    inc,
    observe_value,
    registry,
    reset_registry,
    set_gauge,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_decrease(self):
        c = Counter("hits")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge("depth")
        g.set(3)
        g.set(7.5)
        assert g.value == 7.5
        g.add(-2.5)
        assert g.value == 5.0

    def test_histogram_exact_aggregates(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["mean"] == 2.5

    def test_histogram_quantiles_on_known_distribution(self):
        # 1..1000 shuffled fits entirely in the default reservoir, so
        # the quantiles are exact up to linear interpolation
        values = list(range(1, 1001))
        random.Random(3).shuffle(values)
        h = Histogram("lat")
        for v in values:
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(500.5, abs=1.0)
        assert h.quantile(0.9) == pytest.approx(900, abs=2.0)
        assert h.quantile(0.99) == pytest.approx(990, abs=2.0)

    def test_histogram_reservoir_stays_bounded_and_representative(self):
        h = Histogram("lat", reservoir=256)
        for v in range(10_000):
            h.observe(float(v))
        assert len(h._samples) == 256
        assert h.count == 10_000
        # uniform 0..9999: reservoir-sampled p50 lands near the middle
        assert 3500 <= h.quantile(0.5) <= 6500

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.snapshot() == {"count": 0, "sum": 0.0}
        assert h.quantile(0.5) != h.quantile(0.5)  # NaN


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", tier="x") is not reg.counter("a", tier="y")
        assert len(reg) == 3

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_snapshot_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("hits", tier="memory").inc(3)
        reg.gauge("entries").set(5)
        reg.histogram("lat_ms").observe(1.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"] == {"hits{tier=memory}": 3}
        assert snap["gauges"] == {"entries": 5.0}
        assert snap["histograms"]["lat_ms"]["count"] == 1
        assert snap["histograms"]["lat_ms"]["p50"] == 1.5

    def test_reset_clears(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert len(reg) == 0


class TestModuleHelpers:
    def test_default_registry_helpers(self, fresh_metrics_registry):
        inc("t.hits")
        inc("t.hits", 2)
        set_gauge("t.depth", 4)
        observe_value("t.lat", 1.25)
        snap = fresh_metrics_registry.snapshot()
        assert snap["counters"]["t.hits"] == 3
        assert snap["gauges"]["t.depth"] == 4.0
        assert snap["histograms"]["t.lat"]["count"] == 1


class TestThreadSafety:
    def test_concurrent_counter_increments_are_exact(self):
        reg = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                reg.counter("hits").inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits").value == 8000

    def test_concurrent_histogram_observations_are_exact(self):
        reg = MetricsRegistry()

        def hammer():
            for i in range(500):
                reg.histogram("lat").observe(float(i))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        h = reg.histogram("lat")
        assert h.count == 2000
        assert h.min == 0.0
        assert h.max == 499.0
