#!/usr/bin/env python3
"""Automated schedule discovery for any registered pipeline.

Runs the cost-guided beam search of ``repro.tune`` over the paper's
optimization vocabulary on one pipeline from the registry
(``--pipeline``, default the Harris case study), verifies the cheapest survivors against the
differential oracle (naive schedule as reference), and compares the
winner with the hand-written listing 5/9 schedules under the same
objective.  The winner's modeled cost is printed (and, in the
``tune-search`` benchmark workload, reported as the per-layer metric
``tune.best_cost_ms.<pipeline>``); nothing is written to the benchmark
trajectory ledger.

The search log (``--log``, default ``TUNE_log.json``) is written after
every step and is resumable: re-run with ``--resume`` to continue an
interrupted search — replay is cheap because every transition is
memoized and the rewrites are deterministic.

Exit codes: 0 a schedule was discovered and oracle-verified,
1 no candidate survived verification, 2 usage errors.

Usage:  python tools/tune.py --seed 0 --beam 4 --steps 6
        python tools/tune.py --pipeline gaussian-blur --beam 2 --steps 2
        python tools/tune.py --beam 2 --steps 2                   # smoke
        python tools/tune.py --resume --log TUNE_log.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def build_parser() -> argparse.ArgumentParser:
    """The tuner's command-line interface."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="verification-input seed (default: %(default)s)")
    parser.add_argument(
        "--pipeline",
        default="harris",
        help="registered pipeline to tune (default: %(default)s; see "
        "repro.pipelines.registry.names())",
    )
    parser.add_argument("--beam", type=int, default=4, help="beam width (default: %(default)s)")
    parser.add_argument("--steps", type=int, default=6, help="search depth in actions (default: %(default)s)")
    parser.add_argument(
        "--machine",
        default=None,
        help="objective machine model by name, e.g. 'A73' (default: Cortex A73)",
    )
    parser.add_argument(
        "--log",
        default="TUNE_log.json",
        help="resumable JSON search log path (default: %(default)s)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the search recorded in --log (same seed expression "
        "and objective required)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=3,
        help="verify up to this many frontier candidates (default: %(default)s)",
    )
    parser.add_argument(
        "--wall-rank",
        action="store_true",
        help="also wall-clock-rank the verified winner against cbuf+rot "
        "through the batch runner (measured, machine-dependent)",
    )
    return parser


def main() -> int:
    """Search, verify and compare with the hand schedules."""
    args = build_parser().parse_args()
    if args.beam < 1 or args.steps < 1 or args.top < 1:
        print("tune: --beam, --steps and --top must be >= 1", file=sys.stderr)
        return 2

    from repro.perf.objective import CostObjective, objective_for
    from repro.pipelines import registry
    from repro.tune import (
        TuneConfig,
        beam_search,
        handwritten_costs,
        schedule_from_actions,
        verification_sizes,
        make_inputs,
        verify_schedule,
        wall_rank,
    )

    try:
        objective = (
            objective_for(args.machine) if args.machine else CostObjective()
        )
    except ValueError as exc:
        print(f"tune: {exc}", file=sys.stderr)
        return 2

    try:
        spec = registry.get(args.pipeline)
    except KeyError as exc:
        print(f"tune: {exc.args[0]}", file=sys.stderr)
        return 2
    seed_expr = spec.expr()
    type_env = spec.type_env()
    config = TuneConfig(beam=args.beam, steps=args.steps, seed=args.seed)

    print(
        f"searching {spec.name}: beam={config.beam} steps={config.steps} "
        f"objective=[{objective.identity}]"
    )
    t0 = time.perf_counter()
    result = beam_search(
        seed_expr,
        type_env,
        config=config,
        objective=objective,
        log_path=args.log,
        resume=args.resume,
    )
    elapsed = time.perf_counter() - t0
    print(
        f"search done in {elapsed:.1f}s: scored {result.stats['scored']} "
        f"candidates over {result.stats['expanded']} expansions "
        f"(log: {args.log})"
    )
    for cand in result.frontier:
        print(f"  {cand.cost_ms:10.6f} ms  {' > '.join(cand.actions)}")

    # Oracle-verify the cheapest survivors; the winner is the cheapest
    # candidate whose outputs match the naive schedule bit-for-tolerance.
    winner = None
    for cand in result.frontier[: args.top]:
        if not cand.actions:
            continue
        sched = schedule_from_actions(cand.actions, type_env)
        sizes = verification_sizes(cand.n_multiple, cand.m_multiple)
        verdict = verify_schedule(
            seed_expr, sched, type_env, sizes=sizes, seed=args.seed
        )
        status = "ok" if verdict["ok"] else "FAILED"
        print(f"verify[{sched.name}] sizes={sizes}: {status}")
        if verdict["ok"] and winner is None:
            winner = cand
    if winner is None:
        print("tune: no candidate survived oracle verification", file=sys.stderr)
        return 1

    hand = handwritten_costs(seed_expr, type_env, objective=objective)
    bar = hand["rise-cbuf-rrot"]
    verdict_word = "<= hand cbuf+rot" if winner.cost_ms <= bar else "above hand cbuf+rot"
    print("objective scores (modeled ms):")
    for name, ms in sorted(hand.items(), key=lambda kv: kv[1]):
        print(f"  {name:<24} {ms:10.6f}")
    print(f"  {'discovered':<24} {winner.cost_ms:10.6f}   ({verdict_word})")

    sched = schedule_from_actions(winner.actions, type_env)
    print(f"discovered schedule: {sched.name}")
    print(f"  actions: {' > '.join(winner.actions)}")
    print(
        "  replay:  from repro.tune import schedule_from_actions; "
        f"schedule_from_actions({list(winner.actions)!r}, env)"
    )

    if args.wall_rank:
        sizes = verification_sizes(winner.n_multiple, winner.m_multiple)
        inputs = make_inputs(type_env, sizes, seed=args.seed)
        from repro.strategies.schedules import cbuf_rrot_version

        ranked = wall_rank(
            {sched.name: sched, "rise-cbuf-rrot": cbuf_rrot_version(dict(type_env))},
            seed_expr,
            type_env,
            sizes,
            inputs,
        )
        print("wall-clock ranking (min item ms):")
        for name, ms in ranked.items():
            print(f"  {name:<24} {ms:10.3f}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
