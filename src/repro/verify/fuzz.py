"""The fuzzing loop behind ``tools/fuzz.py``.

Each iteration derives a per-case seed from the campaign seed, generates
one well-typed program with matching random inputs, and subjects it to
two oracles:

1. the **differential check** (interpreter vs. compiled backends plus
   cache determinism, :mod:`repro.verify.diff`), and
2. the **metamorphic check** (random rewrite sequences must preserve
   interpreter semantics, :mod:`repro.verify.oracle`).

Failures are shrunk (:mod:`repro.verify.shrink`) and serialized into a
corpus directory; ``tests/verify/test_corpus.py`` replays every corpus
case forever after.  Progress is reported through
:mod:`repro.observe.metrics` (``verify.cases``, ``verify.failures``,
``verify.shrink_steps``, ``verify.cases_per_sec``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.verify.gen import (
    GenConfig,
    GeneratedProgram,
    generate_program,
    zoo_seed_program,
)
from repro.verify.oracle import metamorphic_check, sample_rule_names
from repro.verify.serialize import save_case

__all__ = [
    "FuzzConfig",
    "FuzzReport",
    "case_seed",
    "run_fuzz",
    "replay_case",
]


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing campaign: seed, budget and oracle settings."""

    seed: int = 0
    iterations: int = 100
    #: Wall-clock budget in seconds; the loop stops early when exceeded.
    time_budget: float | None = None
    #: Directory where shrunk failures are serialized (None = don't write).
    corpus_dir: str | None = None
    rtol: float = 1e-5
    atol: float = 1e-6
    #: Rules sampled per metamorphic trial.
    rules_per_case: int = 4
    #: Use the C backend when a compiler is available.
    use_c: bool | None = None
    #: Maximum shrink-candidate evaluations per failure.
    max_shrink_steps: int = 200
    #: Every ``zoo_every``-th case seeds the oracles with a *registry
    #: pipeline* (:func:`repro.verify.gen.zoo_seed_program`) instead of a
    #: generated program; 0 disables zoo sampling.
    zoo_every: int = 0
    #: Restrict zoo sampling to these registered pipelines (None = all).
    zoo_pipelines: tuple[str, ...] | None = None
    gen: GenConfig = field(default_factory=GenConfig)


@dataclass
class FuzzReport:
    """Aggregated campaign outcome (JSON-ready via :meth:`to_dict`)."""

    seed: int
    cases: int = 0
    #: Cases seeded from the pipeline registry rather than the generator.
    zoo_cases: int = 0
    failures: list[dict] = field(default_factory=list)
    skipped_compiles: int = 0
    discards: int = 0
    candidates: int = 0
    shrink_steps: int = 0
    elapsed_s: float = 0.0

    @property
    def discard_rate(self) -> float:
        """Fraction of generated stage candidates the validator rejected."""
        if not self.candidates:
            return 0.0
        return self.discards / self.candidates

    @property
    def cases_per_sec(self) -> float:
        """Fuzzing throughput over the whole campaign."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.cases / self.elapsed_s

    def to_dict(self) -> dict:
        """JSON-ready summary for the CLI and CI logs."""
        return {
            "seed": self.seed,
            "cases": self.cases,
            "zoo_cases": self.zoo_cases,
            "failures": self.failures,
            "failure_count": len(self.failures),
            "skipped_compiles": self.skipped_compiles,
            "discard_rate": round(self.discard_rate, 6),
            "shrink_steps": self.shrink_steps,
            "elapsed_s": round(self.elapsed_s, 3),
            "cases_per_sec": round(self.cases_per_sec, 3),
        }


def case_seed(campaign_seed: int, index: int) -> int:
    """Derive the deterministic per-case seed for iteration ``index``."""
    return (campaign_seed * 1_000_003 + index) & 0x7FFFFFFF


def _metrics_inc(name: str, n: float = 1.0) -> None:
    try:
        from repro.observe.metrics import inc

        inc(name, n)
    except Exception:  # pragma: no cover - metrics must never break fuzzing
        pass


def _handle_failure(
    cfg: FuzzConfig,
    report: FuzzReport,
    gp: GeneratedProgram,
    kind: str,
    rules: list[str],
    detail: dict,
    still_fails,
) -> None:
    from repro.verify.shrink import build_corpus_case, shrink_failure

    shrunk = shrink_failure(gp, rules, still_fails, max_steps=cfg.max_shrink_steps)
    report.shrink_steps += shrunk.steps
    case = build_corpus_case(gp, shrunk, kind, report=detail)
    entry = {
        "kind": kind,
        "seed": gp.seed,
        "detail": detail,
        "rules": shrunk.rules,
        "stages": case["extra"]["stages"],
        "program_hash": case["program_hash"],
        "shrink_steps": shrunk.steps,
    }
    if cfg.corpus_dir:
        path = Path(cfg.corpus_dir) / f"case_{kind}_{gp.seed}.json"
        save_case(path, case)
        entry["case_path"] = str(path)
    report.failures.append(entry)
    _metrics_inc("verify.failures")


def run_fuzz(cfg: FuzzConfig) -> FuzzReport:
    """Run one fuzzing campaign; deterministic for a given config."""
    from repro.engine.pipeline import Engine
    from repro.verify.diff import differential_check

    report = FuzzReport(seed=cfg.seed)
    engine = Engine(cache_dir=None)
    start = time.perf_counter()

    for index in range(cfg.iterations):
        if (
            cfg.time_budget is not None
            and time.perf_counter() - start > cfg.time_budget
        ):
            break
        seed = case_seed(cfg.seed, index)
        if cfg.zoo_every and index % cfg.zoo_every == cfg.zoo_every - 1:
            gp = zoo_seed_program(seed, cfg.zoo_pipelines)
            report.zoo_cases += 1
            _metrics_inc("verify.zoo_cases")
        else:
            gp = generate_program(seed, cfg.gen)
        report.discards += gp.discards
        report.candidates += gp.candidates
        inputs = gp.make_inputs()
        report.cases += 1
        _metrics_inc("verify.cases")

        diff = differential_check(
            gp, inputs, engine=engine, rtol=cfg.rtol, atol=cfg.atol, use_c=cfg.use_c
        )
        report.skipped_compiles += len(diff.skipped)
        if not diff.ok:

            def diff_still_fails(expr, _rules, _gp=gp, _inputs=inputs):
                import dataclasses

                candidate = dataclasses.replace(_gp, expr=expr)
                res = differential_check(
                    candidate,
                    _inputs,
                    engine=Engine(cache_dir=None),
                    rtol=cfg.rtol,
                    atol=cfg.atol,
                    use_c=cfg.use_c,
                )
                return not res.ok

            _handle_failure(
                cfg,
                report,
                gp,
                "differential",
                [],
                {"failures": [f.to_dict() for f in diff.failures]},
                diff_still_fails,
            )

        rng = random.Random(seed ^ 0x5EED)
        rules = sample_rule_names(rng, cfg.rules_per_case)
        meta = metamorphic_check(
            gp.expr, rules, gp.type_env, inputs, rtol=cfg.rtol, atol=cfg.atol
        )
        if meta is not None:

            def meta_still_fails(expr, cand_rules, _gp=gp, _inputs=inputs):
                return (
                    metamorphic_check(
                        expr,
                        cand_rules,
                        _gp.type_env,
                        _inputs,
                        rtol=cfg.rtol,
                        atol=cfg.atol,
                    )
                    is not None
                )

            _handle_failure(
                cfg, report, gp, "metamorphic", rules, meta, meta_still_fails
            )

    report.elapsed_s = time.perf_counter() - start
    try:
        from repro.observe.metrics import set_gauge

        set_gauge("verify.cases_per_sec", report.cases_per_sec)
        set_gauge("verify.discard_rate", report.discard_rate)
    except Exception:  # pragma: no cover
        pass
    return report


# ----------------------------------------------------------------------
# Corpus replay.
# ----------------------------------------------------------------------


def replay_case(case: dict) -> dict | None:
    """Re-run the check a decoded corpus case describes.

    Returns None when the case passes, or a failure dict.  Callers are
    responsible for honoring ``case["expect"] == "xfail"`` (a known bug
    whose *reproduction* is the expected outcome).
    """
    import dataclasses

    from repro.engine.hashing import structural_hash
    from repro.rise.typecheck import infer_types
    from repro.rise.types import TypeError_
    from repro.verify.gen import GeneratedProgram, make_inputs

    if case["program_hash"]:
        got = structural_hash(case["expr"])
        if got != case["program_hash"]:
            return {
                "kind": "hash-drift",
                "expected": case["program_hash"],
                "got": got,
            }

    if case["kind"] == "typecheck-reject":
        try:
            infer_types(case["expr"], case["type_env"], strict=True)
        except TypeError_:
            return None
        return {"kind": "accepted-ill-typed"}

    inputs = make_inputs(case["inputs"])
    if case["kind"] == "metamorphic":
        return metamorphic_check(
            case["expr"], case["rules"], case["type_env"], inputs
        )
    if case["kind"] == "differential":
        from repro.verify.diff import differential_check

        gp = GeneratedProgram(
            seed=case["seed"],
            base=case["expr"],
            stages=(),
            expr=case["expr"],
            type_env=case["type_env"],
            sizes=case["sizes"],
            input_specs=case["inputs"],
            out_type=infer_types(case["expr"], case["type_env"], strict=True).root_type,
        )
        res = differential_check(gp, inputs)
        if res.ok:
            return None
        return {"kind": "differential", "failures": [f.to_dict() for f in res.failures]}
    return {"kind": "unknown-case-kind", "value": case["kind"]}

