#!/usr/bin/env python
"""Differential + metamorphic fuzzing CLI (the ``repro.verify`` front end).

Examples::

    # CI smoke: 50 cases or 120 seconds, whichever comes first
    PYTHONPATH=src python tools/fuzz.py --seed 0 --iterations 50 --time-budget 120

    # full acceptance run, writing shrunk failures into the test corpus
    PYTHONPATH=src python tools/fuzz.py --seed 0 --iterations 200 --corpus tests/corpus

    # replay every committed corpus case
    PYTHONPATH=src python tools/fuzz.py --replay tests/corpus

Exit status is non-zero when the campaign found failures (each already
shrunk and, with ``--corpus``, serialized as a replayable JSON case) or
when a replayed ``expect: pass`` case fails / an ``expect: xfail`` case
unexpectedly passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--iterations", type=int, default=100, help="number of fuzz cases"
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds (stop early when exceeded)",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        help="directory to write shrunk failure cases into (e.g. tests/corpus)",
    )
    parser.add_argument(
        "--replay",
        default=None,
        help="replay every *.json corpus case in this directory instead of fuzzing",
    )
    parser.add_argument("--rtol", type=float, default=1e-5, help="relative tolerance")
    parser.add_argument(
        "--rules-per-case",
        type=int,
        default=4,
        help="rewrite rules sampled per metamorphic trial",
    )
    parser.add_argument(
        "--zoo-every",
        type=int,
        default=0,
        help="seed every Nth case from the pipeline registry instead of "
        "the random generator (0 = off)",
    )
    parser.add_argument(
        "--zoo-pipelines",
        nargs="*",
        default=None,
        help="restrict registry-seeded cases to these pipelines",
    )
    parser.add_argument(
        "--no-c",
        action="store_true",
        help="skip the C backend even when a compiler is available",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON on stdout"
    )
    return parser.parse_args(argv)


def _replay(corpus_dir: str, as_json: bool) -> int:
    from repro.verify.fuzz import replay_case
    from repro.verify.serialize import load_case

    paths = sorted(Path(corpus_dir).glob("*.json"))
    results = []
    bad = 0
    for path in paths:
        case = load_case(path)
        failure = replay_case(case)
        if case["expect"] == "xfail":
            ok = failure is not None  # the known bug must still reproduce
            status = "xfail" if ok else "xpass"
        else:
            ok = failure is None
            status = "pass" if ok else "FAIL"
        bad += 0 if ok else 1
        results.append({"case": path.name, "status": status, "failure": failure})
        if not as_json:
            print(f"{status:>6}  {path.name}")
    if as_json:
        print(json.dumps({"replayed": len(paths), "bad": bad, "results": results}, indent=2))
    elif not paths:
        print(f"no corpus cases under {corpus_dir}")
    return 1 if bad else 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _parse_args(argv)
    if args.replay:
        return _replay(args.replay, args.json)

    from repro.verify.fuzz import FuzzConfig, run_fuzz

    cfg = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        corpus_dir=args.corpus,
        rtol=args.rtol,
        rules_per_case=args.rules_per_case,
        use_c=False if args.no_c else None,
        zoo_every=args.zoo_every,
        zoo_pipelines=tuple(args.zoo_pipelines) if args.zoo_pipelines else None,
    )
    report = run_fuzz(cfg)
    doc = report.to_dict()
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"fuzz: seed={doc['seed']} cases={doc['cases']} "
            f"zoo={doc['zoo_cases']} "
            f"failures={doc['failure_count']} "
            f"discard_rate={doc['discard_rate']:.4f} "
            f"throughput={doc['cases_per_sec']:.1f} cases/s"
        )
        for failure in report.failures:
            print(f"  FAIL [{failure['kind']}] seed={failure['seed']} "
                  f"rules={failure['rules']} stages={failure['stages']}")
            if "case_path" in failure:
                print(f"       shrunk case written to {failure['case_path']}")
    if report.discard_rate > 0.10:
        print(
            f"warning: generator discard rate {report.discard_rate:.1%} "
            "exceeds the 10% budget",
            file=sys.stderr,
        )
        return 2
    return 1 if report.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
