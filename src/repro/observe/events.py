"""The structured event log: a JSONL flight recorder for the serving path.

Spans measure *durations*; the event log records *decisions* — the
discrete things that happen to a request on its way through the serving
stack (admitted, queued, coalesced onto another build, expired at its
deadline, built, evicted, failed), each stamped with the request
context of :mod:`repro.observe.context`.  Metrics aggregate these away;
the event log is what lets ``tools/events.py`` answer "what exactly
happened to request ``req-1f3a...``" after the fact.

Two storage modes, both always-on and cheap:

* a **ring buffer** (bounded deque) keeps the last :data:`DEFAULT_CAPACITY`
  events in memory — the flight recorder that can be dumped on a crash
  (:meth:`EventLog.dump_jsonl`);
* an optional **file sink** appends every event as one JSON line,
  rotating ``path`` -> ``path.1`` when it exceeds ``max_bytes`` so a
  long-running server cannot fill the disk.

Records are schema-versioned (:data:`EVENTS_SCHEMA`): a sink file opens
with one header line ``{"schema": ...}`` and every record carries
``ts`` (epoch seconds), ``seq`` (process-monotonic), ``event`` (dotted
name), ``request_id``/``trace_id`` (from the active context), ``key``
(cache key, when known) and free-form ``attrs``.  By convention
``attrs["outcome"]`` classifies terminal events (``"ok"``, ``"error"``,
``"rejected"``, ``"deadline"``, ``"salvaged"``); anything not ``ok``/
absent counts as a failure for :meth:`EventLog.failures`.

    from repro.observe.events import emit, event_log

    emit("serve.admit", queue_depth=3)
    emit("engine.build.done", key=key, outcome="ok", build_ms=812.4)
    event_log().dump_jsonl("events.jsonl")
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

from repro.observe.context import current_request

__all__ = [
    "EVENTS_SCHEMA",
    "DEFAULT_CAPACITY",
    "DEFAULT_MAX_BYTES",
    "EventLog",
    "event_log",
    "reset_event_log",
    "emit",
    "read_events",
    "is_failure",
    "last_failures",
    "request_timeline",
]

#: Schema identifier written as the first line of every sink file.
EVENTS_SCHEMA = "repro.observe.events/v1"

#: Ring-buffer depth of the in-memory flight recorder.
DEFAULT_CAPACITY = 2048

#: Default file-sink rotation threshold (bytes).
DEFAULT_MAX_BYTES = 4 * 1024 * 1024


def is_failure(record: Mapping) -> bool:
    """Whether a record's ``outcome`` classifies it as a failure.

    Terminal events carry ``attrs["outcome"]``; anything other than
    ``"ok"`` (or no outcome at all — purely informational events) is a
    failure: ``error``, ``rejected``, ``deadline``, ...
    """
    outcome = (record.get("attrs") or {}).get("outcome")
    return outcome is not None and outcome != "ok"


def last_failures(records: Iterable[Mapping], n: int | None = None) -> list:
    """The last ``n`` failure records of ``records`` (all when ``n`` is
    None, none when it is 0); a negative ``n`` raises ``ValueError``."""
    bad = [r for r in records if is_failure(r)]
    if n is None:
        return bad
    if n < 0:
        raise ValueError(f"failure count must be >= 0, got {n}")
    return bad[max(len(bad) - n, 0) :]


class EventLog:
    """A thread-safe ring buffer of structured events + optional file sink.

    One instance is process-global (see :func:`event_log`); tests create
    private instances.  Every mutation happens under one lock — events
    are small dicts and emission is rare relative to span/metric writes,
    so contention is negligible.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        path: Path | str | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=max(1, int(capacity)))
        self._seq = itertools.count()
        self._path: Path | None = None
        self._fh = None
        self._max_bytes = max_bytes
        if path is not None:
            self.open_sink(path, max_bytes=max_bytes)

    # -- recording -------------------------------------------------------

    def emit(
        self,
        event: str,
        key: str | None = None,
        request_id: str | None = None,
        trace_id: str | None = None,
        **attrs,
    ) -> dict:
        """Record one event; returns the stored record.

        ``request_id``/``trace_id`` default to the active
        :class:`~repro.observe.context.RequestContext` — emitters inside
        the engine or server never pass them explicitly.
        """
        if request_id is None or trace_id is None:
            ctx = current_request()
            if ctx is not None:
                request_id = request_id if request_id is not None else ctx.request_id
                trace_id = trace_id if trace_id is not None else ctx.trace_id
        record = {
            "ts": round(time.time(), 6),
            "seq": next(self._seq),
            "event": event,
            "request_id": request_id,
            "trace_id": trace_id,
            "key": key,
            "attrs": {k: _jsonable(v) for k, v in attrs.items()},
        }
        with self._lock:
            self._ring.append(record)
            if self._fh is not None:
                self._write_locked(record)
        return record

    def _write_locked(self, record: dict) -> None:
        # caller holds self._lock
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            if self._fh.tell() + len(line) > self._max_bytes:
                self._rotate_locked()
            self._fh.write(line)
            self._fh.flush()
        except (OSError, ValueError):
            # a broken sink must never take the serving path down
            self._close_sink_locked()

    def _rotate_locked(self) -> None:
        # caller holds self._lock; path -> path.1 (one rotation level)
        self._fh.close()
        rotated = self._path.with_name(self._path.name + ".1")
        os.replace(self._path, rotated)
        self._fh = open(self._path, "a", encoding="utf-8")
        self._write_header_locked()

    def _write_header_locked(self) -> None:
        self._fh.write(json.dumps({"schema": EVENTS_SCHEMA}) + "\n")
        self._fh.flush()

    # -- the file sink ---------------------------------------------------

    @property
    def sink_path(self) -> Path | None:
        """The active sink file, or ``None`` when only the ring records."""
        return self._path

    def open_sink(
        self, path: Path | str, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> Path:
        """Start appending every future event to ``path`` (JSONL).

        A fresh file gets the schema header line; an existing file is
        appended to (the header is only written at creation).  Returns
        the sink path.
        """
        with self._lock:
            self._close_sink_locked()
            self._path = Path(path)
            self._max_bytes = int(max_bytes)
            self._path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self._path.exists() or self._path.stat().st_size == 0
            self._fh = open(self._path, "a", encoding="utf-8")
            if fresh:
                self._write_header_locked()
        return self._path

    def close_sink(self) -> None:
        """Stop writing to the sink file (the ring keeps recording)."""
        with self._lock:
            self._close_sink_locked()

    def _close_sink_locked(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
        self._fh = None
        self._path = None

    # -- reading ---------------------------------------------------------

    def events(self) -> list[dict]:
        """A snapshot of the ring buffer, oldest first."""
        with self._lock:
            return list(self._ring)

    def failures(self, n: int | None = None) -> list[dict]:
        """The last ``n`` failure records (all of them when ``n`` is None)."""
        return last_failures(self.events(), n)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def to_jsonl(self) -> str:
        """The ring serialized as JSONL (header line first)."""
        lines = [json.dumps({"schema": EVENTS_SCHEMA})]
        lines.extend(json.dumps(r, sort_keys=True) for r in self.events())
        return "\n".join(lines) + "\n"

    def dump_jsonl(self, path: Path | str) -> Path:
        """Write the ring to ``path`` (the crash/flight-recorder dump)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    def clear(self) -> None:
        """Drop every buffered event (tests, fresh runs)."""
        with self._lock:
            self._ring.clear()


# ---------------------------------------------------------------------------
# The process-wide default log + write helper
# ---------------------------------------------------------------------------

_LOG = EventLog()


def event_log() -> EventLog:
    """The process-wide default event log (always on, ring only by default)."""
    return _LOG


def reset_event_log() -> None:
    """Clear the default log and detach its sink (tests, fresh runs)."""
    _LOG.close_sink()
    _LOG.clear()


def emit(event: str, key: str | None = None, **attrs) -> dict:
    """Record one event on the default log (request context auto-stamped)."""
    return _LOG.emit(event, key=key, **attrs)


# ---------------------------------------------------------------------------
# Reading event files back (tools/events.py, tests)
# ---------------------------------------------------------------------------


def read_events(path: Path | str) -> Iterator[dict]:
    """Yield the records of a JSONL event file, skipping header lines.

    Raises ``ValueError`` when a header line declares an unknown schema
    (a file from a future incompatible version must fail loudly, not
    parse as garbage).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
            if "schema" in record and "event" not in record:
                if record["schema"] != EVENTS_SCHEMA:
                    raise ValueError(
                        f"{path}:{lineno}: unknown event schema "
                        f"{record['schema']!r} (expected {EVENTS_SCHEMA!r})"
                    )
                continue
            yield record


def request_timeline(records: Iterable[Mapping], request_id: str) -> list[dict]:
    """The ordered event timeline of one request.

    Filters ``records`` to the request, orders by ``(ts, seq)`` and adds
    a ``dt_ms`` field (milliseconds since the request's first event) —
    the reconstruction ``tools/events.py --timeline`` prints.
    """
    mine = sorted(
        (dict(r) for r in records if r.get("request_id") == request_id),
        key=lambda r: (r.get("ts", 0.0), r.get("seq", 0)),
    )
    if not mine:
        return []
    t0 = mine[0].get("ts", 0.0)
    for r in mine:
        r["dt_ms"] = round((r.get("ts", t0) - t0) * 1e3, 3)
    return mine


def _jsonable(value):
    """Coerce one event attr (or span meta value, for
    :mod:`repro.observe.traceevent`) into a JSON-safe value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
