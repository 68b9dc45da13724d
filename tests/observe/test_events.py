"""The structured event log: ring buffer, sinks, rotation, readers."""

import json

import pytest

from repro.observe.context import request_scope
from repro.observe.events import (
    EVENTS_SCHEMA,
    EventLog,
    emit,
    is_failure,
    read_events,
    request_timeline,
)


class TestEmit:
    def test_record_shape(self):
        log = EventLog()
        record = log.emit("serve.admit", key="k1", queue_depth=3)
        assert record["event"] == "serve.admit"
        assert record["key"] == "k1"
        assert record["attrs"] == {"queue_depth": 3}
        assert record["ts"] > 0
        assert record["seq"] == 0
        assert log.events() == [record]

    def test_seq_is_monotonic(self):
        log = EventLog()
        seqs = [log.emit("e")["seq"] for _ in range(5)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_request_context_is_stamped(self):
        log = EventLog()
        with request_scope(request_id="req-ev") as ctx:
            record = log.emit("engine.build.start")
        assert record["request_id"] == "req-ev"
        assert record["trace_id"] == ctx.trace_id

    def test_explicit_ids_win_over_context(self):
        log = EventLog()
        with request_scope(request_id="req-active"):
            record = log.emit("e", request_id="req-explicit")
        assert record["request_id"] == "req-explicit"

    def test_no_context_means_none(self):
        log = EventLog()
        record = log.emit("e")
        assert record["request_id"] is None
        assert record["trace_id"] is None

    def test_non_json_attrs_are_coerced(self):
        log = EventLog()
        record = log.emit("e", where=object())
        assert isinstance(record["attrs"]["where"], str)

    def test_ring_is_bounded(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("e", index=i)
        kept = [r["attrs"]["index"] for r in log.events()]
        assert kept == [6, 7, 8, 9]
        assert len(log) == 4

    def test_module_emit_uses_default_log(self, fresh_event_log):
        emit("serve.admit", queue_depth=1)
        assert len(fresh_event_log) == 1
        assert fresh_event_log.events()[0]["event"] == "serve.admit"


class TestFailures:
    def test_is_failure_classification(self):
        assert not is_failure({"attrs": {}})
        assert not is_failure({"attrs": {"outcome": "ok"}})
        assert not is_failure({})
        assert is_failure({"attrs": {"outcome": "error"}})
        assert is_failure({"attrs": {"outcome": "rejected"}})
        assert is_failure({"attrs": {"outcome": "deadline"}})

    def test_failures_returns_last_n(self):
        log = EventLog()
        log.emit("a", outcome="ok")
        log.emit("b", outcome="error")
        log.emit("c")
        log.emit("d", outcome="deadline")
        assert [r["event"] for r in log.failures()] == ["b", "d"]
        assert [r["event"] for r in log.failures(1)] == ["d"]
        assert [r["event"] for r in log.failures(5)] == ["b", "d"]
        assert log.failures(0) == []
        with pytest.raises(ValueError):
            log.failures(-1)


class TestSink:
    def test_sink_writes_header_and_records(self, tmp_path):
        log = EventLog()
        path = log.open_sink(tmp_path / "events.jsonl")
        log.emit("serve.admit", queue_depth=1)
        log.emit("serve.complete", outcome="ok")
        log.close_sink()
        lines = path.read_text().strip().splitlines()
        assert json.loads(lines[0]) == {"schema": EVENTS_SCHEMA}
        assert [json.loads(l)["event"] for l in lines[1:]] == [
            "serve.admit",
            "serve.complete",
        ]

    def test_reopening_existing_sink_appends_without_second_header(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.open_sink(path)
        log.emit("first")
        log.close_sink()
        log.open_sink(path)
        log.emit("second")
        log.close_sink()
        lines = path.read_text().strip().splitlines()
        headers = [l for l in lines if "schema" in json.loads(l) and "event" not in json.loads(l)]
        assert len(headers) == 1
        assert [json.loads(l)["event"] for l in lines[1:]] == ["first", "second"]

    def test_rotation_moves_full_file_aside(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.open_sink(path, max_bytes=600)
        for i in range(16):
            log.emit("fill", index=i, padding="x" * 64)
        log.close_sink()
        rotated = tmp_path / "events.jsonl.1"
        assert rotated.exists()
        # both generations parse, both start with a schema header
        for p in (path, rotated):
            first = json.loads(p.read_text().splitlines()[0])
            assert first == {"schema": EVENTS_SCHEMA}
            assert p.stat().st_size <= 600
        # rotation keeps one older generation; the newest record is always
        # in the live file
        current = list(read_events(path))
        assert current[-1]["attrs"]["index"] == 15
        assert list(read_events(rotated))

    def test_broken_sink_never_raises(self, tmp_path):
        log = EventLog()
        log.open_sink(tmp_path / "events.jsonl")
        log._fh.close()  # simulate the descriptor dying under us
        log.emit("still-works")  # must not raise
        assert log.sink_path is None  # sink detached itself
        assert len(log) == 1


class TestReadBack:
    def test_dump_and_read_round_trip(self, tmp_path):
        log = EventLog()
        with request_scope(request_id="req-rt"):
            log.emit("serve.admit")
            log.emit("serve.complete", outcome="ok", compile_ms=12.5)
        path = log.dump_jsonl(tmp_path / "dump.jsonl")
        records = list(read_events(path))
        assert [r["event"] for r in records] == ["serve.admit", "serve.complete"]
        assert all(r["request_id"] == "req-rt" for r in records)

    def test_read_events_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "someone.else/v9"}\n')
        with pytest.raises(ValueError, match="unknown event schema"):
            list(read_events(path))

    def test_read_events_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ValueError, match="not JSON"):
            list(read_events(path))

    def test_request_timeline_orders_and_offsets(self):
        records = [
            {"event": "b", "request_id": "r1", "ts": 10.002, "seq": 2},
            {"event": "a", "request_id": "r1", "ts": 10.000, "seq": 1},
            {"event": "x", "request_id": "r2", "ts": 10.001, "seq": 3},
        ]
        timeline = request_timeline(records, "r1")
        assert [r["event"] for r in timeline] == ["a", "b"]
        assert timeline[0]["dt_ms"] == 0.0
        assert timeline[1]["dt_ms"] == pytest.approx(2.0, abs=0.01)
        assert request_timeline(records, "nobody") == []
