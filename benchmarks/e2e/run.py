"""The repo's measured benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N]        # every workload, both ways
    python3 benchmarks/e2e/run.py --calibrate 10    # spreads -> BENCHMARK.json
    python3 benchmarks/e2e/run.py --check-exact     # counts repeat exactly

With ``--workload`` this process *is* the workload: it pins the
environment, builds everything it needs from source into a private
scratch directory under ``benchmarks/e2e/.work`` (removed afterwards),
measures for ``--seconds``, checks every output against the NumPy
references and prints one JSON object as its last line.  Without it,
each workload runs in a fresh subprocess of this same file.
"""

import time

T0 = time.perf_counter()  # process start, as near as Python lets us see it

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
MANIFEST = REPO / "BENCHMARK.json"

import catalog
from harness import Run

#: Each workload ``a-b`` is the module ``a_b.py`` beside this file.
WORKLOADS = tuple(catalog.WORKLOADS)

#: Variables that would let the caller's shell change what is measured.
PINNED_ENV = ("REPRO_CACHE_DIR", "REPRO_THREADS", "OMP_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=HERE / "out", help="where trace-*.json go")
    parser.add_argument("--smoke", action="store_true", help="cold-zoo: 3 cheap kernels")
    parser.add_argument("--corrupt", action="store_true", help="self-test: damage one output")
    parser.add_argument("--calibrate", type=int, metavar="N", help="N >= 5 untraced suites")
    parser.add_argument("--check-exact", action="store_true")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no compiler to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if shutil.which("gcc") is None and shutil.which("cc") is None:
        print("e2e: backend='c' needs gcc or cc on PATH; none found", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads(MANIFEST.read_text())["run_seconds"])

    if args.calibrate is not None:
        return calibrate(args)
    if args.check_exact:
        return check_exact(args)
    if args.workload:
        return run_workload(args)
    return suite(args)


# -- one workload, in this process ------------------------------------------------------


def run_workload(args) -> int:
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # gcc and ctypes stage files in the temp dir: keep it inside the checkout
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    sys.path.insert(0, str(SRC))
    try:
        module = __import__(args.workload.replace("-", "_"))
        run = Run(
            seed=args.seed,
            seconds=args.seconds,
            workdir=work,
            t0=T0,
            trace=bool(args.trace),
            smoke=args.smoke,
            corrupt=args.corrupt,
        )
        headline = module.run(run)
        metrics = per_layer_metrics(run) if run.trace else end_to_end_metrics(run, headline)
        environment = describe_environment(args)
        if run.trace:
            write_trace(args, run, headline, metrics, environment)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"e2e: non-finite metrics {bad}", file=sys.stderr)
        return 3
    for failure in run.ledger.failures[:20]:
        print(f"failed {failure['op']}: {failure['reason']}", file=sys.stderr)
    print("env " + json.dumps(environment, sort_keys=True))
    correct = run.ledger.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.ledger.attempted,
                "failed": run.ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def end_to_end_metrics(run: Run, headline: dict) -> dict:
    values = {
        **headline,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": run.setup_s,
    }
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, _, _) in catalog.END_TO_END.items()
    }


def per_layer_metrics(run: Run) -> dict:
    """Every per-layer metric of the catalog; 0 for a layer this
    workload does not enter.  An unknown name is a bug in the workload."""
    spans = run.rec.spans
    busy_ms = sum(s.ms for s in spans if s.parent is None)
    run.layers["bench.trace_overhead_share"] = run.rec.overhead_ms() / busy_ms
    measured = run.layer_metrics()
    unknown = sorted(set(measured) - set(catalog.PER_LAYER))
    if unknown:
        raise KeyError(f"layer metrics missing from catalog.py: {unknown}")
    return {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, (unit, _, _, _) in catalog.PER_LAYER.items()
    }


def describe_environment(args) -> dict:
    from repro.exec.cbridge import openmp_available

    gcc = subprocess.run(
        [shutil.which("gcc") or "cc", "--version"], capture_output=True, text=True
    ).stdout.splitlines()
    head = REPO / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        target = REPO / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = target.read_text().strip() if target and target.is_file() else ref
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gcc": gcc[0] if gcc else "unknown",
        "openmp": openmp_available(),
        "git": sha,
    }


def write_trace(args, run: Run, headline: dict, metrics: dict, environment: dict) -> None:
    """``<out>/trace-<workload>.json``: every span, each span's self
    time, the raw samples and the failures — written once, at the end."""
    self_ms = run.rec.self_ms()
    args.out.mkdir(parents=True, exist_ok=True)
    document = {
        "environment": environment,
        "headline": headline,
        "metrics": {n: m["value"] for n, m in metrics.items()},
        "failures": run.ledger.failures,
        "details": run.details,
        "spans": [{**s.to_dict(), "self_ms": self_ms[s.id]} for s in run.rec.spans],
    }
    path = args.out / f"trace-{args.workload}.json"
    path.write_text(json.dumps(document) + "\n")


# -- every workload, each in a fresh subprocess --------------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int, extra=()) -> dict:
    """Run one workload in a fresh interpreter; its parsed last line,
    plus ``exit`` (the process's exit code)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} printed no result (exit {done.returncode}):\n{done.stderr}")
    sys.stderr.write(done.stderr)
    return {**json.loads(lines[-1]), "exit": done.returncode}


def suite(args) -> int:
    """Print every metric by name with its unit; non-zero if anything failed."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = spawn(workload, args.seed, args.seconds, trace, ("--out", str(args.out)))
            share = result["failed"] / result["attempted"]
            kind = "per-layer" if trace else "end-to-end"
            print(f"\n## {workload} ({kind}, seed {args.seed}): attempted "
                  f"{result['attempted']}, failed_share {share:.4f}")
            for name, metric in result["metrics"].items():
                print(f"{name:48s} {metric['value']:14.4f} {metric['unit']}")
            status = status or result["exit"]
    return status


def calibrate(args) -> int:
    """N untraced suites on N seeds -> spreads -> bounds in BENCHMARK.json."""
    if args.calibrate < 5:
        print("e2e: --calibrate needs N >= 5", file=sys.stderr)
        return 2
    values: dict[tuple[str, str], list[float]] = {}
    chosen = [args.workload] if args.workload else WORKLOADS
    for i in range(args.calibrate):
        for workload in chosen:
            result = spawn(workload, args.seed + i, args.seconds, 0)
            if not result["correct"]:
                print(f"e2e: {workload} seed {args.seed + i} was incorrect", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    worst: dict[str, float] = {}
    print("| workload | metric | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for (workload, name), vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / statistics.median(vs)
        worst[name] = max(worst.get(name, 0.0), spread)
        print(f"| {workload} | {name} | {statistics.median(vs):.4g} | {q1:.4g} | {q3:.4g} "
              f"| {spread:.3f} |")
    if args.workload:
        return 0  # bounds cover every workload: one alone does not rewrite them
    bounds = {}
    for name, spread in worst.items():
        # a bound the spread fills to a third at most; set-up keeps the largest
        bounds[name] = 0.25 if name == "setup_s" else min(0.25, max(0.10, round(3 * spread, 2)))
        if name != "setup_s" and 3 * spread > 0.25:
            print(f"e2e: {name} spread {spread:.3f} is too wide: lengthen its phase",
                  file=sys.stderr)
    MANIFEST.write_text(json.dumps(catalog.manifest(bounds, int(args.seconds)), indent=2) + "\n")
    print(f"\nbounds written to {MANIFEST.name}: {bounds}")
    return 0


def check_exact(args) -> int:
    """Two traced runs on one seed must agree on every ``exact`` metric
    and on the structural hash of every derived program."""
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        runs = []
        for attempt in ("a", "b"):
            out = args.out / f"exact-{attempt}"
            result = spawn(workload, args.seed, args.seconds, 1, ("--out", str(out)))
            trace = json.loads((out / f"trace-{workload}.json").read_text())
            exact = {n: result["metrics"][n]["value"] for n in catalog.EXACT}
            runs.append((exact, trace["details"].get("structural_hash", {})))
            status = status or result["exit"]
        for label, a, b in (("metric", runs[0][0], runs[1][0]), ("hash", runs[0][1], runs[1][1])):
            for name in sorted(set(a) | set(b)):
                if a.get(name) != b.get(name):
                    print(f"DRIFT {workload} {label} {name}: {a.get(name)} != {b.get(name)}")
                    status = 1
        print(f"{workload}: {len(runs[0][0])} exact metrics, {len(runs[0][1])} hashes compared")
    return status


if __name__ == "__main__":
    sys.exit(main())
