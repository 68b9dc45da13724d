"""Chrome trace-event export: span trees on a Perfetto-loadable timeline.

Converts the span tree of an :class:`~repro.observe.core.Observer` into
the Chrome trace-event JSON format (the ``{"traceEvents": [...]}``
object form) accepted by Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``.  Every span becomes one *complete* event
(``"ph": "X"``) with microsecond start/duration, placed on the track of
the thread that recorded it — batch-executor workers therefore appear as
separate rows, which is what makes parallel batch runs visually
inspectable.  Spans with no measured start (pre-timed spans aggregated
from process-pool workers) are laid out sequentially on a synthetic
track so nothing is silently dropped.

    with observing() as obs:
        pipeline.run_batch(items, workers=4, mode="thread")
    save_trace(obs, "batch_trace.json")   # load in ui.perfetto.dev

Producers wired in: ``examples/harris_pipeline.py --trace-out`` and
``python -m repro.bench.harness run_report --trace-out``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.observe.core import Observer, Span
from repro.observe.events import _jsonable

__all__ = ["trace_events", "to_chrome_trace", "save_trace", "validate_chrome_trace"]

#: Synthetic tid base for spans recorded without a thread id (pre-timed
#: spans re-materialized from process-pool workers).
SYNTHETIC_TID_BASE = 1_000_000


def trace_events(observer: Observer, pid: int | None = None) -> list[dict]:
    """The observer's spans as a flat list of Chrome trace events.

    Emits one complete (``"ph": "X"``) event per span with ``ts``/``dur``
    in microseconds relative to the earliest recorded span, plus
    ``"M"`` metadata events naming the process and each thread track.
    """
    pid = pid if pid is not None else os.getpid()
    spans = observer.flat_spans()
    timed = [s for s in spans if s.t0 > 0.0]
    origin = min((s.t0 for s in timed), default=0.0)
    events: list[dict] = []
    synthetic_cursor = 0.0

    def emit(s: Span, parent: Span | None) -> None:
        nonlocal synthetic_cursor
        if s.t0 > 0.0:
            ts = (s.t0 - origin) * 1e6
            tid = s.tid or SYNTHETIC_TID_BASE
        elif parent is not None and parent.t0 > 0.0:
            # Pre-timed child (process-pool item): anchor at its parent's
            # start on a synthetic worker track.
            ts = (parent.t0 - origin) * 1e6 + synthetic_cursor
            synthetic_cursor += s.duration_ms * 1e3
            tid = SYNTHETIC_TID_BASE + int(s.meta.get("index", 0))
        else:
            ts = synthetic_cursor
            synthetic_cursor += s.duration_ms * 1e3
            tid = SYNTHETIC_TID_BASE
        event = {
            "name": s.name,
            "ph": "X",
            "ts": round(ts, 3),
            "dur": round(s.duration_ms * 1e3, 3),
            "pid": pid,
            "tid": tid,
        }
        args = {k: _jsonable(v) for k, v in s.meta.items()}
        # correlation identity (repro.observe.context) rides along so a
        # track selected in Perfetto names the exact request it served
        if s.request_id:
            args["request_id"] = s.request_id
        if s.span_id:
            args["span_id"] = s.span_id
        if s.parent_id:
            args["parent_span_id"] = s.parent_id
        if args:
            event["args"] = args
        events.append(event)
        for child in s.children:
            emit(child, s)

    for root in observer.spans:
        emit(root, None)

    events.extend(_metadata_events(events, pid))
    return events


def _metadata_events(events: list[dict], pid: int) -> list[dict]:
    """Process/thread naming metadata for every distinct track."""
    tids = sorted({e["tid"] for e in events if e.get("ph") == "X"})
    main_tid = threading.main_thread().ident
    meta: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tids[0] if tids else 0,
            "args": {"name": "repro"},
        }
    ]
    for tid in tids:
        if tid == main_tid:
            name = "main"
        elif tid >= SYNTHETIC_TID_BASE:
            name = f"pool-worker-{tid - SYNTHETIC_TID_BASE}"
        else:
            name = f"thread-{tid}"
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return meta


def to_chrome_trace(observer: Observer, pid: int | None = None) -> dict:
    """The full trace document: ``{"traceEvents": [...], ...}``."""
    return {
        "traceEvents": trace_events(observer, pid=pid),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.observe.traceevent"},
    }


def save_trace(observer: Observer, path, pid: int | None = None) -> Path:
    """Write the observer's trace to ``path`` and return it.

    The file loads directly in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.
    """
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(observer, pid=pid), indent=2))
    return path


#: Event phases the validator accepts (the subset this exporter emits).
_VALID_PHASES = {"X", "M", "I", "B", "E", "C"}


def validate_chrome_trace(doc) -> list[str]:
    """Structural problems of a Chrome-trace document (empty = valid).

    Checks the invariants Perfetto's JSON importer relies on: the
    ``{"traceEvents": [...]}`` object form, every event a dict with a
    string ``name`` and a known ``ph``, integer ``pid``/``tid`` on every
    event, non-negative numeric ``ts`` everywhere and ``dur`` on
    complete (``"X"``) events, and JSON-serializable ``args``.  Used by
    the tests to round-trip ``--trace-out`` files and by consumers that
    want to fail loudly instead of uploading a trace Perfetto will
    reject.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"trace document must be a dict, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["trace document has no 'traceEvents' list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing/empty 'name'")
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: '{field}' must be an int")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs non-negative 'dur'")
        args = event.get("args")
        if args is not None:
            if not isinstance(args, dict):
                problems.append(f"{where}: 'args' must be an object")
            else:
                try:
                    json.dumps(args)
                except (TypeError, ValueError):
                    problems.append(f"{where}: 'args' not JSON-serializable")
    return problems
