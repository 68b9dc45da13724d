"""Workload ``tune-search``: the compiler's layers used as a search loop.

One operation is ``repro.tune.beam_search`` from one pipeline's
high-level program.  Closed loop, one client; the list of searches is
repeated until the time is up.  Where ``cold-zoo`` spends its time in a
few long normalizations, a search makes hundreds of short strategy
applications over many live candidates, type-checks, lowers and costs
each survivor, and memoizes transitions — so a change that wins there by
caching can lose here by what the cache costs to build.

After the timed region each winner is compiled for the C backend, run,
and held against the NumPy reference.
"""

from __future__ import annotations

import statistics
import time

import zoo
from catalog import TUNE_SEARCHES
from harness import Run, geomean


def run(run: Run) -> dict:
    from repro.pipelines import registry
    from repro.tune import TuneConfig, beam_search

    def build():
        return [
            (registry.get(p), TuneConfig(beam=beam, steps=steps, seed=run.seed))
            for p, beam, steps in TUNE_SEARCHES
        ]

    searches = run.setup(build, repeats=3)
    samples: dict[str, list[float]] = {spec.name: [] for spec, _ in searches}
    results = {}
    passes = 0
    while True:
        started = 0
        for spec, config in searches:
            took = samples[spec.name]
            if passes and not run.fits(took[-1] if took else 0.0):
                continue
            started += 1
            op = f"{spec.name}#{passes}"
            t0 = time.perf_counter()
            try:
                with run.span("tune.beam_search", op):
                    result = beam_search(spec.expr(), spec.type_env(), config)
            except Exception as exc:
                run.ledger.fail(op, f"{type(exc).__name__}: {exc}")
                continue
            samples[spec.name].append((time.perf_counter() - t0) * 1e3)
            previous = results.setdefault(spec.name, result)
            same = (previous.best.hash, previous.best.cost_ms, previous.stats) == (
                result.best.hash, result.best.cost_ms, result.stats)
            run.ledger.check(op, None if same else "search is not deterministic")
        passes += 1
        if not started or run.elapsed() >= run.seconds:
            break

    for spec, _ in searches:
        if spec.name in results:
            _verify_winner(run, spec, results[spec.name])
    per_search = {k: statistics.median(v) for k, v in samples.items() if v}
    if not per_search:
        raise RuntimeError(f"no search finished: {run.ledger.failures}")
    run.details["search_ms"] = samples
    run.details["winners"] = {k: list(r.best.actions) for k, r in results.items()}
    run.details["structural_hash"] = {k: r.best.hash for k, r in results.items()}
    if run.trace:
        _layer_metrics(run, results, per_search)
    return {
        "primary_ms": geomean(per_search.values()),
        "secondary_ms": max(per_search.values()),
    }


def _verify_winner(run: Run, spec, result) -> None:
    """Compile the search's best schedule to C, run it, check the output."""
    from repro.engine import Engine
    from repro.tune import schedule_from_actions, verification_sizes

    op = f"{spec.name}#winner"
    best = result.best
    sizes = verification_sizes(best.n_multiple, best.m_multiple)
    case = zoo.Cases(run.seed).make(spec.name, "tuned", sizes)
    try:
        env = spec.type_env()
        pipeline = Engine().compile(
            spec.expr(),
            strategy=schedule_from_actions(best.actions, env),
            type_env=env,
            backend="c",
            name=f"tuned_{spec.name}".replace("-", "_"),
        )
        out = pipeline.run(sizes=sizes, **case.inputs)
    except Exception as exc:
        run.ledger.fail(op, f"{type(exc).__name__}: {exc}")
        return
    zoo.verify(run, case, out, op)


def _layer_metrics(run: Run, results: dict, per_search: dict) -> None:
    expanded = scored = pruned = hits = lookups = 0
    for name, result in results.items():
        stats = result.stats
        run.layers[f"tune.search_s.{name}"] = per_search[name] / 1e3
        run.layers[f"tune.best_cost_ms.{name}"] = result.best.cost_ms
        expanded += stats["expanded"]
        scored += stats["scored"]
        pruned += sum(v for k, v in stats.items() if k.startswith("pruned_"))
        for memo in ("transition_memo", "score_memo"):
            hits += stats[memo]["hits"]
            lookups += stats[memo]["hits"] + stats[memo]["misses"]
    run.layers["tune.expanded"] = expanded
    run.layers["tune.scored"] = scored
    run.layers["tune.pruned"] = pruned
    run.layers["tune.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    run.layers["bench.tune_total_s"] = sum(per_search.values()) / 1e3
