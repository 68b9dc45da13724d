#!/usr/bin/env python3
"""Query a structured event log (``repro.observe.events/v1`` JSONL).

Reads an event file produced by a sink configured via
:meth:`repro.observe.events.EventLog.open_sink` or a flight-recorder
dump (:meth:`repro.observe.events.EventLog.dump_jsonl`), and answers the debugging questions the raw
JSONL makes tedious:

* filter by request (``--request``), cache key (``--key``) or outcome
  (``--outcome error``);
* reconstruct one request's ordered timeline with millisecond offsets
  (``--timeline req-...``);
* show the last N failures (``--failures 20``) — the post-mortem view
  of a crashed or misbehaving server.

Exit codes: 0 success (even when the filter matches nothing),
2 usage / malformed-input errors.

Usage:  python tools/events.py EVENTS.jsonl [--request REQ] [--key KEY]
                                            [--outcome OUTCOME]
                                            [--timeline REQ]
                                            [--failures N] [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _format_record(record: dict) -> str:
    """One human-readable line per event record."""
    attrs = record.get("attrs") or {}
    extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    rid = record.get("request_id") or "-"
    key = record.get("key")
    parts = [
        f"{record.get('ts', 0.0):.6f}",
        f"#{record.get('seq', 0):<5}",
        f"{record.get('event', '?'):<26}",
        f"{rid:<18}",
    ]
    if key:
        parts.append(f"key={key[:16]}")
    if extra:
        parts.append(extra)
    return " ".join(parts)


def main() -> int:
    """Filter, timeline, or failure-dump one event file."""
    from repro.observe.events import last_failures, read_events, request_timeline

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="JSONL event file to query")
    parser.add_argument(
        "--request", default=None, help="only events of this request_id"
    )
    parser.add_argument("--key", default=None, help="only events of this cache key")
    parser.add_argument(
        "--outcome",
        default=None,
        help="only events with this attrs.outcome (ok/error/rejected/...)",
    )
    parser.add_argument(
        "--timeline",
        default=None,
        metavar="REQUEST_ID",
        help="print the ordered timeline of one request (dt_ms offsets)",
    )
    parser.add_argument(
        "--failures",
        type=int,
        default=None,
        metavar="N",
        help="print only the last N failure events",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit matching records as JSON"
    )
    args = parser.parse_args()
    if args.failures is not None and args.failures < 0:
        parser.error(f"--failures N must be >= 0, got {args.failures}")

    path = Path(args.file)
    if not path.is_file():
        print(f"events: no such file: {path}", file=sys.stderr)
        return 2
    try:
        records = list(read_events(path))
    except ValueError as exc:
        print(f"events: {exc}", file=sys.stderr)
        return 2

    if args.timeline is not None:
        records = request_timeline(records, args.timeline)
    else:
        if args.request is not None:
            records = [r for r in records if r.get("request_id") == args.request]
        if args.key is not None:
            records = [r for r in records if r.get("key") == args.key]
        if args.outcome is not None:
            records = [
                r
                for r in records
                if (r.get("attrs") or {}).get("outcome") == args.outcome
            ]
        if args.failures is not None:
            records = last_failures(records, args.failures)

    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    for record in records:
        line = _format_record(record)
        if args.timeline is not None:
            line = f"+{record.get('dt_ms', 0.0):9.3f}ms  {line}"
        print(line)
    label = "timeline events" if args.timeline else "events"
    print(f"events: {len(records)} {label} from {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
