"""The event-log query CLI (``tools/events.py``): filters, timelines, failures."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "events.py"

HEADER = {"schema": "repro.observe.events/v1"}


def _record(event, request_id, ts, seq, key=None, **attrs):
    return {
        "ts": ts,
        "seq": seq,
        "event": event,
        "request_id": request_id,
        "trace_id": "t" * 16,
        "key": key,
        "attrs": attrs,
    }


RECORDS = [
    _record("serve.admit", "req-aaa", 10.0, 0, queue_depth=1),
    _record("serve.dequeue", "req-aaa", 10.002, 1, wait_ms=2.0),
    _record("engine.build.done", "req-aaa", 10.500, 2, key="k1", outcome="ok"),
    _record("serve.complete", "req-aaa", 10.501, 3, outcome="ok", cache="miss"),
    _record("serve.admit", "req-bbb", 11.0, 4),
    _record("serve.error", "req-bbb", 11.1, 5, key="k2", outcome="error"),
    _record("serve.reject", "req-ccc", 12.0, 6, outcome="rejected"),
]


def _write_events(path, records=RECORDS):
    lines = [json.dumps(HEADER)] + [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run(*argv):
    return subprocess.run(
        [sys.executable, str(TOOL), *argv], capture_output=True, text=True
    )


class TestFilters:
    def test_dump_all(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_events(path)
        proc = _run(str(path))
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.strip().splitlines()) == len(RECORDS)
        assert "7 events" in proc.stderr

    def test_filter_by_request(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_events(path)
        proc = _run(str(path), "--request", "req-bbb", "--json")
        records = json.loads(proc.stdout)
        assert [r["event"] for r in records] == ["serve.admit", "serve.error"]

    def test_filter_by_key(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_events(path)
        proc = _run(str(path), "--key", "k1", "--json")
        records = json.loads(proc.stdout)
        assert [r["event"] for r in records] == ["engine.build.done"]

    def test_filter_by_outcome(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_events(path)
        proc = _run(str(path), "--outcome", "error", "--json")
        records = json.loads(proc.stdout)
        assert [r["request_id"] for r in records] == ["req-bbb"]

    def test_empty_match_still_exits_zero(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_events(path)
        proc = _run(str(path), "--request", "req-nobody")
        assert proc.returncode == 0
        assert proc.stdout.strip() == ""


class TestTimeline:
    def test_timeline_orders_and_offsets_one_request(self, tmp_path):
        path = tmp_path / "events.jsonl"
        # shuffled on disk: the timeline must re-order by (ts, seq)
        _write_events(path, list(reversed(RECORDS)))
        proc = _run(str(path), "--timeline", "req-aaa")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("+    0.000ms")
        assert "serve.admit" in lines[0]
        assert "serve.complete" in lines[-1]
        assert "+  501.000ms" in lines[-1]


class TestFailures:
    def test_last_n_failures(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_events(path)
        proc = _run(str(path), "--failures", "1", "--json")
        records = json.loads(proc.stdout)
        assert [r["event"] for r in records] == ["serve.reject"]
        proc = _run(str(path), "--failures", "10", "--json")
        records = json.loads(proc.stdout)
        assert [r["event"] for r in records] == ["serve.error", "serve.reject"]
        proc = _run(str(path), "--failures", "0", "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []
        proc = _run(str(path), "--failures", "-1")
        assert proc.returncode == 2
        assert "--failures" in proc.stderr


class TestErrors:
    def test_missing_file_exits_two(self, tmp_path):
        proc = _run(str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 2
        assert "no such file" in proc.stderr

    def test_unknown_schema_exits_two(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/v9"}\n')
        proc = _run(str(path))
        assert proc.returncode == 2
        assert "unknown event schema" in proc.stderr

    def test_non_json_line_exits_two(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(HEADER) + "\nnot json\n")
        proc = _run(str(path))
        assert proc.returncode == 2
        assert "not JSON" in proc.stderr
