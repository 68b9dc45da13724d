"""Zoo benchmark cells: every registered pipeline, costed and validated.

Where :mod:`repro.bench.harness` reproduces the paper's Harris figures,
this module covers the whole :mod:`pipeline registry
<repro.pipelines.registry>`: each registered pipeline is lowered under
every *applicable* named schedule (applicability detected structurally,
see :func:`repro.pipelines.registry.applicable_schedules`) and costed on
every modeled ARM CPU.  The result is one trajectory cell per
``(pipeline, schedule, machine)``::

    zoo|<pipeline>|<schedule>|<machine>

including the baseline schedules of pipelines that register external
implementations (Harris: ``halide``, ``opencv``, ``lift``).  Zoo
cells ride into ``BENCH_trajectory.json`` through the same sample
mechanism as the fig. 8 grid and, like them, are deterministic
cost-model outputs gated by the regression comparison.

The module also hosts the CI ``zoo-smoke``: compile every registered
pipeline on every available backend under one schedule and validate
each output against the registry's NumPy reference by PSNR
(``python -m repro.bench.zoo smoke``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.bench.regress import ZOO_CELL_PREFIX
from repro.engine import BACKENDS, CompileRequest, Engine, default_engine
from repro.perf.cost import CostReport, estimate_runtime_ms
from repro.perf.machines import ALL_MACHINES, Machine
from repro.pipelines import registry

__all__ = [
    "ZOO_CELL_PREFIX",
    "DEFAULT_ZOO_CHUNK",
    "DEFAULT_ZOO_VEC",
    "DEFAULT_ZOO_STRIP",
    "DEFAULT_ZOO_SIZES",
    "DEFAULT_PSNR_FLOOR_DB",
    "ZooCell",
    "SmokeRow",
    "zoo_request",
    "zoo_grid",
    "zoo_cells",
    "zoo_smoke",
    "format_zoo",
    "format_smoke",
]

#: Zoo scheduling granularity.  Smaller than the paper's chunk=32 so the
#: registry's minimal legal sizes stay small and the probe stays fast;
#: the cost model sees the same structure either way.
DEFAULT_ZOO_CHUNK = 4
DEFAULT_ZOO_VEC = 4
DEFAULT_ZOO_STRIP = 2

#: Nominal output extent used for costing — one common size keeps cells
#: comparable across pipelines, and 64 is divisible by chunk*strip and
#: vec for the default granularity.
DEFAULT_ZOO_SIZES = {"n": 64, "m": 64}

#: Smoke validation bar.  Compiled pipelines agree with the float64
#: NumPy references to float32 rounding (well above 80 dB); a genuine
#: miscompile lands far below.
DEFAULT_PSNR_FLOOR_DB = 80.0


@dataclass
class ZooCell:
    """Modeled runtime of one (pipeline, schedule, machine) cell."""

    pipeline: str
    schedule: str
    machine: str
    runtime_ms: float
    report: CostReport

    @property
    def key(self) -> str:
        """Trajectory cell name: ``zoo|<pipeline>|<schedule>|<machine>``."""
        return f"{ZOO_CELL_PREFIX}{self.pipeline}|{self.schedule}|{self.machine}"


def zoo_request(
    pipeline: str,
    schedule: str,
    chunk: int = DEFAULT_ZOO_CHUNK,
    vec: int = DEFAULT_ZOO_VEC,
    strip: int = DEFAULT_ZOO_STRIP,
    **fields,
) -> CompileRequest:
    """The ``"zoo"`` request for one kernel of the grid; ``fields`` are
    further request fields (``backend``, ``sizes``)."""
    return CompileRequest(
        source="zoo",
        options={
            "pipeline": pipeline,
            "schedule": schedule,
            "chunk": chunk,
            "vec": vec,
            "strip": strip,
        },
        **fields,
    )


def zoo_grid(
    pipelines: list[str] | None = None,
    machines: list[Machine] | None = None,
    chunk: int = DEFAULT_ZOO_CHUNK,
    vec: int = DEFAULT_ZOO_VEC,
    strip: int = DEFAULT_ZOO_STRIP,
    sizes: Mapping[str, int] | None = None,
    engine: Engine | None = None,
) -> list[ZooCell]:
    """Cost every registered pipeline under every applicable schedule.

    Schedules that do not structurally apply to a pipeline (per the
    registry's probe) are skipped rather than costed as silent no-ops —
    a ``zoo|pyramid|cbuf-rot|...`` cell would model the *naive* program
    and misread as rotation speedup.  A spec's baseline schedules
    (Harris: Halide/OpenCV/Lift) are costed alongside under their own
    runtime kinds.
    """
    eng = engine if engine is not None else default_engine()
    machines = machines or ALL_MACHINES
    sizes = dict(sizes or DEFAULT_ZOO_SIZES)
    cells: list[ZooCell] = []
    for name in pipelines or registry.names():
        spec = registry.get(name)
        reports = registry.applicable_schedules(spec, chunk=chunk, vec=vec, strip=strip)
        schedules = [s for s, r in reports.items() if r.applies] + list(spec.baselines)
        programs = {
            s: eng.compile_request(zoo_request(name, s, chunk, vec, strip)).program
            for s in schedules
        }
        for machine in machines:
            for label, prog in programs.items():
                kind = spec.runtime_kind(label)
                report = estimate_runtime_ms(prog, sizes, machine, kind)
                cells.append(
                    ZooCell(name, label, machine.name, report.runtime_ms, report)
                )
    return cells


def zoo_cells(
    pipelines: list[str] | None = None,
    chunk: int = DEFAULT_ZOO_CHUNK,
    vec: int = DEFAULT_ZOO_VEC,
    strip: int = DEFAULT_ZOO_STRIP,
    engine: Engine | None = None,
) -> dict[str, float]:
    """The zoo grid as a flat ``{cell key: runtime_ms}`` map, ready to
    merge into a trajectory sample."""
    return {
        c.key: float(c.runtime_ms)
        for c in zoo_grid(
            pipelines=pipelines, chunk=chunk, vec=vec, strip=strip, engine=engine
        )
    }


@dataclass
class SmokeRow:
    """One compiled-and-validated (pipeline, backend) smoke result."""

    pipeline: str
    schedule: str
    backend: str
    sizes: dict[str, int]
    psnr_db: float
    max_abs_err: float
    psnr_floor_db: float = DEFAULT_PSNR_FLOOR_DB

    @property
    def ok(self) -> bool:
        """Whether the output clears the PSNR validation bar."""
        return self.psnr_db >= self.psnr_floor_db


def zoo_smoke(
    pipelines: list[str] | None = None,
    backends: list[str] | None = None,
    schedule: str = registry.DEFAULT_SCHEDULE,
    chunk: int = DEFAULT_ZOO_CHUNK,
    vec: int = DEFAULT_ZOO_VEC,
    strip: int = DEFAULT_ZOO_STRIP,
    seed: int = 0,
    psnr_floor_db: float = DEFAULT_PSNR_FLOOR_DB,
    engine: Engine | None = None,
) -> list[SmokeRow]:
    """Compile and numerically validate every registered pipeline.

    Each pipeline is compiled through the engine's ``"zoo"`` builder
    under ``schedule`` on every backend in ``backends`` (default: the
    Python backend, plus C when a host compiler exists), run on a seeded
    random input at the registry's smallest legal sizes, and scored by
    PSNR against the registry's NumPy reference.
    """
    import numpy as np

    from repro.exec import available_backends
    from repro.image import psnr

    eng = engine if engine is not None else default_engine()
    if backends is None:
        backends = available_backends()
    rows: list[SmokeRow] = []
    for name in pipelines or registry.names():
        spec = registry.get(name)
        sizes = spec.concrete_sizes(chunk, vec, strip)
        inputs = spec.make_inputs(sizes, seed=seed)
        expected = spec.reference_output(inputs)
        for backend in backends:
            pipeline = eng.compile_request(
                zoo_request(
                    name, schedule, chunk, vec, strip, backend=backend, sizes=sizes
                )
            )
            out = pipeline.run(**inputs).reshape(expected.shape)
            db = psnr(expected, out)
            err = float(np.max(np.abs(out - expected)))
            rows.append(
                SmokeRow(
                    pipeline=name,
                    schedule=schedule,
                    backend=backend,
                    sizes=dict(sizes),
                    psnr_db=float(db),
                    max_abs_err=err,
                    psnr_floor_db=psnr_floor_db,
                )
            )
    return rows


def format_zoo(cells: list[ZooCell]) -> str:
    """Render the zoo grid as one table per machine (ms, lower=better)."""
    by_machine: dict[str, list[ZooCell]] = {}
    for c in cells:
        by_machine.setdefault(c.machine, []).append(c)
    lines: list[str] = []
    for machine, group in by_machine.items():
        lines.append(f"{machine}:")
        header = f"  {'pipeline':<18} {'schedule':<14} {'runtime_ms':>12}"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for c in group:
            lines.append(f"  {c.pipeline:<18} {c.schedule:<14} {c.runtime_ms:>12.3f}")
    return "\n".join(lines)


def format_smoke(rows: list[SmokeRow]) -> str:
    """Render smoke rows as a pass/fail validation table."""
    header = (
        f"{'pipeline':<18} {'schedule':<10} {'backend':<8} "
        f"{'psnr_db':>9} {'max_err':>10}  verdict"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        db = "inf" if math.isinf(r.psnr_db) else f"{r.psnr_db:.1f}"
        lines.append(
            f"{r.pipeline:<18} {r.schedule:<10} {r.backend:<8} "
            f"{db:>9} {r.max_abs_err:>10.2e}  {'ok' if r.ok else 'FAIL'}"
        )
    return "\n".join(lines)


def _main() -> None:
    """CLI entry: zoo grid, smoke validation, and trajectory appends.

    * ``grid`` (default) — print the modeled zoo cost table;
    * ``smoke`` — compile every registered pipeline on every available
      backend under one schedule and PSNR-validate against the NumPy
      references (exit 1 on any failure; the CI ``zoo-smoke`` job);
    * ``append`` — collect one trajectory sample with the zoo cells
      merged in and append it to the ledger.
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=_main.__doc__.splitlines()[0])
    parser.add_argument(
        "command",
        nargs="?",
        default="grid",
        choices=("grid", "smoke", "append"),
        help="what to run (default: %(default)s)",
    )
    parser.add_argument("--chunk", type=int, default=DEFAULT_ZOO_CHUNK)
    parser.add_argument("--vec", type=int, default=DEFAULT_ZOO_VEC)
    parser.add_argument("--strip", type=int, default=DEFAULT_ZOO_STRIP)
    parser.add_argument(
        "--pipelines",
        nargs="*",
        default=None,
        help="restrict to these registered pipelines (default: all)",
    )
    parser.add_argument(
        "--schedule",
        default=registry.DEFAULT_SCHEDULE,
        choices=registry.SCHEDULE_NAMES,
        help="schedule for the smoke command (default: %(default)s)",
    )
    parser.add_argument(
        "--backend",
        default="auto",
        choices=("auto", *BACKENDS, "both"),
        help="backend(s) for the smoke command (default: every available)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--psnr-floor", type=float, default=DEFAULT_PSNR_FLOOR_DB,
        help="smoke validation bar in dB (default: %(default)s)",
    )
    parser.add_argument(
        "--k", type=int, default=3, help="min-of-k repeats for the append sample"
    )
    parser.add_argument(
        "--trajectory",
        default=None,
        help="trajectory ledger for the append command "
        "(default: repro.bench.regress.DEFAULT_TRAJECTORY)",
    )
    args = parser.parse_args()

    if args.command == "smoke":
        backends = None if args.backend == "auto" else (
            list(BACKENDS) if args.backend == "both" else [args.backend]
        )
        rows = zoo_smoke(
            pipelines=args.pipelines,
            backends=backends,
            schedule=args.schedule,
            chunk=args.chunk,
            vec=args.vec,
            strip=args.strip,
            seed=args.seed,
            psnr_floor_db=args.psnr_floor,
        )
        print(format_smoke(rows))
        failures = [r for r in rows if not r.ok]
        if failures:
            print(f"\n{len(failures)} validation failure(s)", file=sys.stderr)
            raise SystemExit(1)
        print(f"\nall {len(rows)} (pipeline, backend) cells validated")
        return

    if args.command == "append":
        from repro.bench.regress import (
            DEFAULT_TRAJECTORY,
            append_sample,
            collect_sample,
        )

        cells = zoo_cells(
            pipelines=args.pipelines, chunk=args.chunk, vec=args.vec, strip=args.strip
        )
        sample = collect_sample(
            k=args.k,
            cells=cells,
            extra={"zoo": {"chunk": args.chunk, "vec": args.vec, "strip": args.strip}},
        )
        path = args.trajectory or DEFAULT_TRAJECTORY
        doc = append_sample(path, sample)
        print(
            f"appended sample {sample['git_sha']} with {len(cells)} zoo cell(s) "
            f"to {path} ({len(doc['samples'])} sample(s))"
        )
        return

    print(
        format_zoo(
            zoo_grid(
                pipelines=args.pipelines,
                chunk=args.chunk,
                vec=args.vec,
                strip=args.strip,
            )
        )
    )


if __name__ == "__main__":
    _main()
