#!/usr/bin/env python3
"""Render a static HTML dashboard from the benchmark ledger and metrics.

Zero dependencies, zero network: the input is ``BENCH_trajectory.json``
(plus, optionally, a metrics snapshot JSON) and the output is one
self-contained HTML file — inline CSS, inline SVG sparklines, no
scripts, no external fonts — suitable for publishing as a CI artifact
and opening offline.

Sections rendered:

* **Cache behaviour** — hit/miss/coalesce/eviction counters and derived
  rates from the metrics snapshot;
* **Trajectory ledger** — per-cell history sparklines (min over history
  vs newest) for every cell of the ledger.

The metrics snapshot defaults to the newest trajectory sample that
embeds one; ``--metrics FILE`` points at an explicit snapshot JSON
(e.g. the one a future exporter writes).  Malformed inputs fail loudly
(exit 2) — CI uses that as the schema check.

Exit codes: 0 rendered, 2 usage / malformed-input errors.

Usage:  python tools/dashboard.py [--trajectory BENCH_trajectory.json]
                                  [--metrics snapshot.json]
                                  [--out dashboard.html] [--title TITLE]
"""

from __future__ import annotations

import argparse
import html
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


# -- tiny HTML helpers -------------------------------------------------------


def _esc(value) -> str:
    """HTML-escape one value."""
    return html.escape(str(value))


def _sparkline(values: list[float], width: int = 120, height: int = 24) -> str:
    """An inline SVG sparkline of a value series (empty string if < 2)."""
    if len(values) < 2:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{round(i * step, 1)},{round(height - 2 - (v - lo) / span * (height - 4), 1)}"
        for i, v in enumerate(values)
    )
    last_x = round((len(values) - 1) * step, 1)
    last_y = round(height - 2 - (values[-1] - lo) / span * (height - 4), 1)
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#4c78a8" stroke-width="1.5" '
        f'points="{points}"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="2.2" fill="#e45756"/>'
        "</svg>"
    )


def _table(headers: list[str], rows: list[list[str]]) -> str:
    """A plain HTML table from pre-escaped cell fragments."""
    head = "".join(f"<th>{h}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; padding: 0 1rem; color: #1a1a2e; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #4c78a8; padding-bottom: .3rem; }
h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; margin: .8rem 0; }
th, td { text-align: left; padding: .3rem .6rem; border-bottom: 1px solid #e2e2ea;
         font-variant-numeric: tabular-nums; vertical-align: middle; }
th { background: #f4f4f8; font-weight: 600; }
code { background: #f4f4f8; padding: .05rem .3rem; border-radius: 3px; }
.meta { color: #6b6b7b; font-size: .85rem; }
.bad { color: #e45756; font-weight: 600; }
.spark { vertical-align: middle; }
"""


# -- metrics snapshot helpers ------------------------------------------------


def parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a snapshot key ``name{k=v,...}`` into ``(name, labels)``."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if not part:
            continue
        k, _, v = part.partition("=")
        labels[k] = v
    return name, labels


def counter_total(snapshot: dict, name: str, **label_filter: str) -> float:
    """Sum all counter series named ``name`` whose labels match the filter."""
    total = 0.0
    for key, value in (snapshot.get("counters") or {}).items():
        base, labels = parse_metric_key(key)
        if base != name:
            continue
        if all(labels.get(k) == str(v) for k, v in label_filter.items()):
            total += float(value)
    return total


# -- section renderers -------------------------------------------------------


def render_cache_section(snapshot: dict) -> str:
    """Cache hit/coalesce/eviction counters and derived rates."""
    hits_mem = counter_total(snapshot, "engine.cache.hits", tier="memory")
    hits_disk = counter_total(snapshot, "engine.cache.hits", tier="disk")
    misses = counter_total(snapshot, "engine.cache.misses")
    coalesced = counter_total(snapshot, "engine.compile.coalesced")
    evict_mem = counter_total(snapshot, "engine.cache.evictions", tier="memory")
    evict_disk = counter_total(snapshot, "engine.cache.evictions", tier="disk")
    stores = counter_total(snapshot, "engine.cache.stores")
    lookups = hits_mem + hits_disk + misses
    compiles = lookups + coalesced
    rows = [
        ["cache hits (memory / disk)", f"{int(hits_mem)} / {int(hits_disk)}"],
        ["cache misses", f"{int(misses)}"],
        ["hit rate", f"{(hits_mem + hits_disk) / lookups:.2%}" if lookups else "—"],
        ["coalesced followers", f"{int(coalesced)}"],
        ["coalesce rate", f"{coalesced / compiles:.2%}" if compiles else "—"],
        ["stores", f"{int(stores)}"],
        ["evictions (memory / disk)", f"{int(evict_mem)} / {int(evict_disk)}"],
    ]
    return "<h2>Cache behaviour</h2>" + _table(
        ["metric", "value"], [[_esc(k), v] for k, v in rows]
    )


def render_trajectory_section(samples: list[dict]) -> str:
    """Per-cell history sparklines over the whole ledger."""
    history: dict[str, list[float]] = {}
    for sample in samples:
        for cell, ms in (sample.get("cells") or {}).items():
            history.setdefault(cell, []).append(float(ms))
    rows = []
    for cell in sorted(history):
        values = history[cell]
        newest, best = values[-1], min(values)
        ratio = newest / best if best > 0 else float("inf")
        flag = "" if ratio <= 1.10 else ' class="bad"'
        rows.append(
            [
                f"<code>{_esc(cell)}</code>",
                f"{len(values)}",
                f"{best:,.4f}",
                f"<span{flag}>{newest:,.4f}</span>",
                f"<span{flag}>{ratio:.2f}×</span>",
                _sparkline(values),
            ]
        )
    return (
        "<h2>Trajectory ledger</h2>"
        '<p class="meta">min over history vs newest; red = newest &gt; 110% '
        "of the best (the bench_compare gate threshold)</p>"
        + _table(["cell", "samples", "best (ms)", "newest (ms)", "ratio", "history"],
                 rows)
    )


def render_dashboard(trajectory: dict, snapshot: dict, title: str) -> str:
    """The full self-contained HTML document."""
    samples = list(trajectory.get("samples", []))
    newest_sha = samples[-1].get("git_sha", "unknown") if samples else "none"
    stamp = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    header = (
        f"<h1>{_esc(title)}</h1>"
        f'<p class="meta">{len(samples)} trajectory sample(s), newest git '
        f"<code>{_esc(newest_sha)}</code> · generated {stamp} · "
        f"schema <code>{_esc(trajectory.get('schema', '?'))}</code></p>"
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>"
        + header
        + render_cache_section(snapshot)
        + render_trajectory_section(samples)
        + "</body></html>"
    )


def newest_metrics(samples: list[dict]) -> dict:
    """The newest sample's embedded metrics snapshot (``{}`` when none)."""
    for sample in reversed(samples):
        metrics = sample.get("metrics")
        if metrics:
            return metrics
    return {}


def main() -> int:
    """Load inputs, render, write the HTML artifact."""
    from repro.bench.regress import DEFAULT_TRAJECTORY, load_trajectory

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trajectory",
        default=DEFAULT_TRAJECTORY,
        help="trajectory ledger path (default: %(default)s)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        help="metrics snapshot JSON (default: the newest trajectory "
        "sample's embedded snapshot)",
    )
    parser.add_argument(
        "--out", default="dashboard.html", help="output HTML path (default: %(default)s)"
    )
    parser.add_argument(
        "--title", default="repro benchmark dashboard", help="page title"
    )
    args = parser.parse_args()

    trajectory_path = Path(args.trajectory)
    if not trajectory_path.is_file():
        print(f"dashboard: no trajectory at {trajectory_path}", file=sys.stderr)
        return 2
    try:
        trajectory = load_trajectory(trajectory_path)
        if args.metrics is not None:
            snapshot = json.loads(Path(args.metrics).read_text(encoding="utf-8"))
            if not isinstance(snapshot, dict):
                raise ValueError(f"{args.metrics}: snapshot must be a JSON object")
        else:
            snapshot = newest_metrics(trajectory.get("samples", []))
    except (OSError, ValueError) as exc:
        print(f"dashboard: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.write_text(render_dashboard(trajectory, snapshot, args.title), encoding="utf-8")
    print(f"dashboard: wrote {out} ({out.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
