"""Benchmark regression tracking: the ``BENCH_trajectory.json`` ledger.

Every observed bench run can append one schema-versioned *sample* to a
trajectory file: the min-of-k runtime of every fig. 8 cell (machine x
image x implementation, from the analytic cost model), the batch
summary, a metrics-registry snapshot and the producing git SHA.  The
ledger holds modeled cells only; measured wall clock lives in
``benchmarks/e2e``.  ``tools/bench_compare.py`` then replays the trajectory and
flags any cell of the newest sample that is more than a configurable
relative threshold slower than the best previously recorded value —
min-of-k against a min-over-history baseline, the robust-statistics
recipe the paper's own evaluation uses (median-of-min runtimes), so
one noisy run cannot mask or fabricate a regression.

    sample = collect_sample(k=3)
    append_sample("BENCH_trajectory.json", sample)
    regressions = compare_trajectory(load_trajectory("BENCH_trajectory.json"))

Produced by ``python -m repro.bench.harness run_report`` and
``python -m repro.bench.zoo append``, and consumed in CI by the
``bench-regress`` job.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "TRAJECTORY_SCHEMA",
    "SAMPLE_SCHEMA",
    "DEFAULT_TRAJECTORY",
    "DEFAULT_THRESHOLD",
    "ZOO_CELL_PREFIX",
    "Regression",
    "git_sha",
    "collect_sample",
    "new_trajectory",
    "load_trajectory",
    "append_sample",
    "compare_cells",
    "compare_trajectory",
    "format_regressions",
]

#: Schema identifier of the trajectory file; bump when its shape changes.
TRAJECTORY_SCHEMA = "repro.bench.trajectory/v1"

#: Schema identifier of one sample inside the trajectory.
SAMPLE_SCHEMA = "repro.bench.sample/v1"

#: Default ledger location at the repository root.
DEFAULT_TRAJECTORY = "BENCH_trajectory.json"

#: Default relative slowdown (10%) before a cell counts as a regression.
DEFAULT_THRESHOLD = 0.10


def git_sha(short: bool = True) -> str:
    """The current git commit SHA, or ``"unknown"`` outside a checkout."""
    cmd = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def collect_sample(
    chunk: int | None = None,
    vec: int | None = None,
    k: int = 3,
    metrics: dict | None = None,
    extra: dict | None = None,
    cells: dict | None = None,
) -> dict:
    """One schema-versioned trajectory sample for the current tree.

    The sample's ``cells`` map ``"machine|image|implementation"`` to the
    min-of-``k`` modeled runtime in ms (the cost model is deterministic,
    so k > 1 guards only against nondeterminism creeping into it);
    ``metrics`` embeds a metrics-registry snapshot and ``extra``
    free-form run context (batch throughput, report paths, ...).

    ``cells`` merges further modeled cells into the same map: the
    pipeline-zoo cost cells (``"zoo|..."``, see
    :func:`repro.bench.zoo.zoo_cells`).
    """
    from repro.bench.harness import DEFAULT_CHUNK, DEFAULT_VEC, fig8_grid

    chunk = chunk if chunk is not None else DEFAULT_CHUNK
    vec = vec if vec is not None else DEFAULT_VEC
    k = max(1, int(k))
    runs: list[dict[str, float]] = []
    for _ in range(k):
        runs.append(
            {
                f"{cell.machine}|{cell.image}|{cell.implementation}": float(
                    cell.runtime_ms
                )
                for cell in fig8_grid(chunk=chunk, vec=vec)
            }
        )
    min_of_k = {
        key: round(min(run[key] for run in runs), 6) for key in sorted(runs[0])
    }
    if cells:
        min_of_k.update({key: round(float(ms), 6) for key, ms in cells.items()})
    sample = {
        "schema": SAMPLE_SCHEMA,
        "timestamp": round(time.time(), 3),
        "git_sha": git_sha(),
        "k": k,
        "environment": {"chunk": chunk, "vec": vec},
        "cells": min_of_k,
        "metrics": metrics or {},
    }
    if extra:
        sample.update(extra)
    return sample


def new_trajectory() -> dict:
    """An empty trajectory document."""
    return {"schema": TRAJECTORY_SCHEMA, "samples": []}


def load_trajectory(path) -> dict:
    """Read a trajectory file, validating its schema identifier."""
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    schema = doc.get("schema")
    if schema != TRAJECTORY_SCHEMA:
        raise ValueError(
            f"{path}: unknown trajectory schema {schema!r} "
            f"(expected {TRAJECTORY_SCHEMA!r})"
        )
    if not isinstance(doc.get("samples"), list):
        raise ValueError(f"{path}: trajectory has no sample list")
    return doc


def append_sample(path, sample: dict) -> dict:
    """Append ``sample`` to the trajectory at ``path`` (created if absent);
    returns the updated document."""
    path = Path(path)
    doc = load_trajectory(path) if path.is_file() else new_trajectory()
    doc["samples"].append(sample)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return doc


@dataclass
class Regression:
    """One cell of the candidate sample that breached the threshold."""

    cell: str
    baseline_ms: float
    current_ms: float

    @property
    def ratio(self) -> float:
        """Slowdown factor (current / baseline)."""
        if self.baseline_ms <= 0:
            return float("inf")
        return self.current_ms / self.baseline_ms

    def to_dict(self) -> dict:
        """JSON-ready representation for ``--json`` tool output."""
        return {
            "cell": self.cell,
            "baseline_ms": self.baseline_ms,
            "current_ms": self.current_ms,
            "ratio": round(self.ratio, 4),
        }


def compare_cells(
    baseline: dict, current: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[Regression]:
    """Cells of ``current`` more than ``threshold`` slower than ``baseline``.

    Cells present on only one side are ignored — adding a machine or an
    implementation must not fail the comparison.
    """
    regressions: list[Regression] = []
    for cell, base_ms in baseline.items():
        cur_ms = current.get(cell)
        if cur_ms is None:
            continue
        if float(cur_ms) > float(base_ms) * (1.0 + threshold):
            regressions.append(Regression(cell, float(base_ms), float(cur_ms)))
    regressions.sort(key=lambda r: r.ratio, reverse=True)
    return regressions


#: Prefix of pipeline-zoo cells: ``zoo|<pipeline>|<schedule>|<machine>``
#: from :func:`repro.bench.zoo.zoo_cells`.  Deterministic cost-model
#: outputs like the fig. 8 cells, and gated like them.
ZOO_CELL_PREFIX = "zoo|"


def compare_trajectory(
    trajectory: dict,
    candidate: dict | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[Regression], dict]:
    """Compare a candidate sample against the trajectory's history.

    ``candidate`` defaults to the trajectory's newest sample, compared
    against all *earlier* ones; an explicit candidate is compared against
    the whole trajectory.  The per-cell baseline is the minimum over the
    history — min-of-k samples against a min-over-history baseline keeps
    one slow CI machine from drowning a real regression in noise.  Every
    cell is gated: the ledger holds modeled cells only.

    Returns ``(regressions, info)``; ``info["cells"]`` counts the cells
    the candidate shares with the history, i.e. the cells actually
    compared.  Zero compared cells against a non-empty history means the
    candidate gates nothing, which callers must treat as an error rather
    than as "no regressions".  With no baseline sample there is nothing
    to compare and the result is empty.
    """
    samples = list(trajectory.get("samples", []))
    if candidate is None:
        if len(samples) < 2:
            return [], {"baseline_samples": max(0, len(samples) - 1), "cells": 0}
        candidate, history = samples[-1], samples[:-1]
    else:
        history = samples
        if not history:
            return [], {"baseline_samples": 0, "cells": 0}
    baseline: dict[str, float] = {}
    for sample in history:
        for cell, ms in sample.get("cells", {}).items():
            ms = float(ms)
            if cell not in baseline or ms < baseline[cell]:
                baseline[cell] = ms
    current = candidate.get("cells", {})
    regressions = compare_cells(baseline, current, threshold)
    info = {
        "baseline_samples": len(history),
        "cells": sum(1 for cell in current if cell in baseline),
        "candidate_sha": candidate.get("git_sha", "unknown"),
        "threshold": threshold,
    }
    return regressions, info


def format_regressions(regressions: list[Regression], info: dict | None = None) -> str:
    """Human-readable comparison summary (the compare tool's output)."""
    lines: list[str] = []
    if info:
        lines.append(
            f"compared {info.get('cells', 0)} cells against "
            f"{info.get('baseline_samples', 0)} baseline sample(s), "
            f"threshold +{100 * info.get('threshold', DEFAULT_THRESHOLD):.0f}%"
        )
    if not regressions:
        lines.append("no regressions")
        return "\n".join(lines)
    lines.append(f"REGRESSIONS ({len(regressions)}):")
    for r in regressions:
        lines.append(
            f"  {r.cell:<48} {r.baseline_ms:10.3f} -> {r.current_ms:10.3f} ms "
            f"({(r.ratio - 1) * 100:+.1f}%)"
        )
    return "\n".join(lines)
