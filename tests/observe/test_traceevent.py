"""Chrome trace-event export: event shape, timeline layout, file output."""

import json
import threading
import time

import pytest

from repro.observe import Observer, observing, span
from repro.observe.context import request_scope
from repro.observe.core import Span
from repro.observe.traceevent import (
    SYNTHETIC_TID_BASE,
    save_trace,
    to_chrome_trace,
    trace_events,
    validate_chrome_trace,
)


def _complete(events):
    return [e for e in events if e["ph"] == "X"]


def _pool_batch_events():
    """``(batch, items)`` events of a batch whose 3 items arrive as
    pre-timed spans with no t0, as process-pool items do."""
    obs = Observer()
    with observing(obs), span("engine.batch"):
        for i in range(3):
            meta = {"index": i, "mode": "process"}
            obs.attach(Span("engine.batch.item", duration_ms=5.0, meta=meta))
    events = _complete(trace_events(obs))
    batch = next(e for e in events if e["name"] == "engine.batch")
    return batch, [e for e in events if e["name"] == "engine.batch.item"]


class TestTraceEvents:
    def test_complete_events_with_microsecond_timeline(self):
        with observing() as obs:
            with span("outer", program="p"):
                time.sleep(0.002)
                with span("inner"):
                    time.sleep(0.001)
        events = _complete(trace_events(obs, pid=42))
        assert [e["name"] for e in events] == ["outer", "inner"]
        outer, inner = events
        for e in (outer, inner):
            assert e["ph"] == "X"
            assert e["pid"] == 42
            assert isinstance(e["tid"], int) and e["tid"] > 0
            assert e["dur"] > 0
        # the child starts after its parent and fits inside it
        assert outer["ts"] == 0.0
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1.0
        assert outer["args"]["program"] == "p"
        assert outer["args"]["span_id"]  # correlation id always present

    def test_thread_metadata_names_every_track(self):
        with observing() as obs:
            with span("main-work"):
                pass
        events = trace_events(obs)
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert {"process_name", "thread_name"} <= names
        thread_names = [e["args"]["name"] for e in meta if e["name"] == "thread_name"]
        assert "main" in thread_names

    def test_multi_thread_spans_land_on_distinct_tracks(self):
        obs = Observer()

        def worker():
            with obs.span("worker-span"):
                time.sleep(0.001)

        with observing(obs):
            with span("main-span"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        events = _complete(trace_events(obs))
        tids = {e["tid"]: e["name"] for e in events}
        assert len(tids) == 2

    def test_pretimed_spans_get_synthetic_tracks(self):
        batch, items = _pool_batch_events()
        assert len(items) == 3
        assert {e["tid"] for e in items} == {SYNTHETIC_TID_BASE + i for i in range(3)}
        assert all(e["ts"] >= batch["ts"] for e in items)


class TestTraceFile:
    def test_save_trace_writes_loadable_document(self, tmp_path):
        with observing() as obs:
            with span("work"):
                pass
        path = save_trace(obs, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        # every event has the fields (and types) the trace-event schema requires
        assert validate_chrome_trace(doc) == []

    def test_document_shape(self):
        with observing() as obs:
            with span("w"):
                pass
        doc = to_chrome_trace(obs, pid=1)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}


class TestRequestCorrelation:
    def test_span_args_carry_request_and_span_ids(self):
        with observing() as obs:
            with request_scope(request_id="req-trace"):
                with span("outer"):
                    with span("inner"):
                        pass
        events = _complete(trace_events(obs))
        outer = next(e for e in events if e["name"] == "outer")
        inner = next(e for e in events if e["name"] == "inner")
        assert outer["args"]["request_id"] == "req-trace"
        assert inner["args"]["request_id"] == "req-trace"
        assert inner["args"]["parent_span_id"] == outer["args"]["span_id"]
        assert "parent_span_id" not in outer["args"]

    def test_synthetic_pool_tracks_carry_request_ids(self):
        # pre-timed process-pool item spans: the attaching parent stamps
        # the request context, and the exporter must surface it per track
        with request_scope(request_id="req-pool"):
            batch, items = _pool_batch_events()
        assert {e["tid"] for e in items} == {SYNTHETIC_TID_BASE + i for i in range(3)}
        for e in items:
            assert e["args"]["request_id"] == "req-pool"
            assert e["args"]["parent_span_id"] == batch["args"]["span_id"]
            assert e["args"]["span_id"]


class TestValidator:
    def _doc(self):
        with observing() as obs:
            with request_scope(request_id="req-v"):
                with span("work", program="p"):
                    pass
        return to_chrome_trace(obs)

    def test_real_export_validates_clean(self):
        assert validate_chrome_trace(self._doc()) == []

    def test_non_dict_document(self):
        assert validate_chrome_trace([1, 2, 3])
        assert validate_chrome_trace({"nope": True})

    def test_bad_phase_is_flagged(self):
        doc = self._doc()
        doc["traceEvents"][0]["ph"] = "Z"
        assert any("ph" in p for p in validate_chrome_trace(doc))

    def test_missing_dur_on_complete_event(self):
        doc = self._doc()
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                del e["dur"]
        assert any("dur" in p for p in validate_chrome_trace(doc))

    def test_negative_ts_is_flagged(self):
        doc = self._doc()
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                e["ts"] = -5.0
        assert any("ts" in p for p in validate_chrome_trace(doc))

    def test_non_integer_tid_is_flagged(self):
        doc = self._doc()
        doc["traceEvents"][0]["tid"] = "main"
        assert any("tid" in p for p in validate_chrome_trace(doc))

    def test_unserializable_args_are_flagged(self):
        doc = self._doc()
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                e["args"] = {"bad": object()}
        assert any("args" in p for p in validate_chrome_trace(doc))

    def test_nameless_event_is_flagged(self):
        doc = self._doc()
        doc["traceEvents"][0]["name"] = ""
        assert any("name" in p for p in validate_chrome_trace(doc))


class TestRunReportRoundTrip:
    def test_trace_out_validates_as_chrome_trace(self, harness_report):
        # the harness's --trace-out export must round-trip through the
        # validator: process-pool tracks, metadata and args included
        _, trace_path = harness_report
        doc = json.loads(trace_path.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"engine.batch", "codegen.lower", "codegen.emit"} <= names
