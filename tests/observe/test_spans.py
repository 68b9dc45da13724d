"""Spans: nesting, timing, activation scoping."""

import time

from repro.observe import Observer, active, inc, observing, span


class TestSpans:
    def test_inactive_by_default(self):
        assert active() is None
        # the module-level helper is a no-op without an observer
        with span("nothing") as s:
            pass
        assert s.name == "<disabled>"

    def test_nested_spans(self):
        with observing() as obs:
            with span("outer") as outer:
                with span("inner-a"):
                    time.sleep(0.001)
                with span("inner-b"):
                    pass
        assert [s.name for s in obs.spans] == ["outer"]
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        # parent wall time covers its children
        assert outer.duration_ms >= outer.children[0].duration_ms
        assert outer.children[0].duration_ms >= 1.0

    def test_flat_spans_preorder(self):
        with observing() as obs:
            with span("a"):
                with span("b"):
                    pass
            with span("c"):
                pass
        assert [s.name for s in obs.flat_spans()] == ["a", "b", "c"]

    def test_counters(self, fresh_metrics_registry):
        # counts live only in the metrics registry, observed or not
        with observing() as obs:
            inc("x", 2)
        inc("x")
        assert fresh_metrics_registry.counter("x").value == 3
        assert not hasattr(obs, "counters") and "counters" not in obs.to_dict()

    def test_activation_is_scoped(self):
        with observing() as obs:
            assert active() is obs
        assert active() is None

    def test_span_meta_and_serialization(self):
        with observing() as obs:
            with span("k", program="p") as s:
                s.meta["extra"] = 1
        d = obs.to_dict()
        assert d["spans"][0]["name"] == "k"
        assert d["spans"][0]["meta"] == {"program": "p", "extra": 1}

    def test_render_text(self):
        with observing() as obs:
            with span("phase-x", things=4):
                pass
        text = obs.render_text()
        assert "phase-x" in text
        assert "things=4" in text
