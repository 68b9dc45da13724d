#!/usr/bin/env python3
"""CI guard for benchmark regressions: compare against BENCH_trajectory.json.

Loads a trajectory produced by ``python -m repro.bench.harness run_report``
(or ``python -m repro.bench.zoo append``) and checks the newest sample (or
an explicit ``--candidate`` sample file) against the best previously
recorded value of every cell.  A cell more than ``--threshold``
(relative, default 0.10 = 10%) slower than the historical minimum is a
regression; the tool prints the offending cells and exits non-zero so CI
fails.

Robustness: each sample already stores *min-of-k* runtimes, and the
baseline is the *minimum over history*, so a single slow machine or run
can neither fabricate a regression in the baseline nor hide one in the
candidate.  A candidate that shares no cell with the history gates
nothing, so it is an error, not a pass.

Exit codes: 0 no regressions (or not enough history to compare),
1 regressions found, 2 usage / malformed-input errors or a candidate
with no cell in common with the history.

Usage:  python tools/bench_compare.py [--trajectory BENCH_trajectory.json]
                                      [--threshold 0.10] [--candidate sample.json]
                                      [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    """Compare the newest trajectory sample against its history."""
    from repro.bench.regress import (
        DEFAULT_THRESHOLD,
        DEFAULT_TRAJECTORY,
        compare_trajectory,
        format_regressions,
        load_trajectory,
    )

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trajectory",
        default=DEFAULT_TRAJECTORY,
        help="trajectory ledger path (default: %(default)s)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative slowdown flagged as regression (default: %(default)s)",
    )
    parser.add_argument(
        "--candidate",
        default=None,
        help="JSON file holding one sample to compare against the whole "
        "trajectory (default: the trajectory's newest sample vs the rest)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON output"
    )
    args = parser.parse_args()

    trajectory_path = Path(args.trajectory)
    if not trajectory_path.is_file():
        print(f"bench_compare: no trajectory at {trajectory_path}", file=sys.stderr)
        return 2
    try:
        trajectory = load_trajectory(trajectory_path)
        candidate = None
        if args.candidate is not None:
            candidate = json.loads(Path(args.candidate).read_text(encoding="utf-8"))
            if "cells" not in candidate:
                raise ValueError(f"{args.candidate}: candidate sample has no cells")
    except (OSError, ValueError) as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2

    regressions, info = compare_trajectory(
        trajectory, candidate=candidate, threshold=args.threshold
    )
    if info["baseline_samples"] and not info["cells"]:
        print(
            f"bench_compare: candidate {info['candidate_sha']} shares no cell "
            f"with the {info['baseline_samples']} baseline sample(s); "
            "nothing was compared",
            file=sys.stderr,
        )
        return 2
    if args.json:
        doc = {"info": info, "regressions": [r.to_dict() for r in regressions]}
        print(json.dumps(doc, indent=2))
    else:
        print(format_regressions(regressions, info))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
