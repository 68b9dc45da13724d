"""The evaluation harness: compiles every implementation once and
regenerates the paper's figures and in-text claims (DESIGN.md E1-E7).

Fig. 8 is the Harris slice of the zoo grid: each implementation is a
schedule of the registry's ``harris`` spec, compiled through the same
``"zoo"`` requests as :func:`repro.bench.zoo.zoo_grid`.  All
implementations are compiled with symbolic sizes, validated for
correctness elsewhere (tests + PSNR bench), and costed on the modeled ARM
CPUs.  Because the paper's split factor (32) requires divisible sizes,
image sizes are rounded up to the split/vector granularity — the rounding
option the paper itself uses — and reported under the nominal resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.bench.zoo import zoo_request
from repro.engine import Engine, default_engine
from repro.image import ImageSpec, PAPER_IMAGE_LARGE, PAPER_IMAGE_SMALL
from repro.perf.cost import CostReport, estimate_runtime_ms
from repro.perf.machines import ALL_MACHINES, Machine
from repro.pipelines import registry

__all__ = [
    "IMPLEMENTATIONS",
    "compile_all",
    "padded_sizes",
    "fig8_grid",
    "fig1_normalized",
    "claims",
    "Fig8Cell",
    "run_report",
]

#: Fig. 8 implementation label (the ledger's cell name) -> the schedule
#: of the registry's ``harris`` spec that implements it.
IMPLEMENTATIONS = {
    "OpenCV": "opencv",
    "Lift": "lift",
    "Halide": "halide",
    "RISE (cbuf)": "cbuf",
    "RISE (cbuf+rot)": "cbuf-rot",
}

DEFAULT_CHUNK = 32
DEFAULT_VEC = 4


def _kind(implementation: str) -> str:
    """The runtime kind the cost model charges one implementation."""
    return registry.get("harris").runtime_kind(IMPLEMENTATIONS[implementation])


@lru_cache(maxsize=4)
def compile_all(
    chunk: int = DEFAULT_CHUNK,
    vec: int = DEFAULT_VEC,
    engine: Engine | None = None,
):
    """Compile every implementation of the Harris operator through the
    engine, as the zoo grid's ``"zoo"`` requests at ``chunk``/``vec``
    (content-addressed compile cache; ``lru_cache`` additionally
    memoizes the assembled dict per parameter set)."""
    eng = engine if engine is not None else default_engine()
    return {
        label: eng.compile_request(zoo_request("harris", schedule, chunk, vec)).program
        for label, schedule in IMPLEMENTATIONS.items()
    }


def padded_sizes(spec: ImageSpec, chunk: int = DEFAULT_CHUNK, vec: int = DEFAULT_VEC) -> dict[str, int]:
    """Output sizes (n, m) for an input image, rounded up to the split and
    vector granularity (the paper's rounding option)."""
    n = spec.height - 4
    m = spec.width - 4
    n = math.ceil(n / chunk) * chunk
    m = math.ceil(m / vec) * vec
    return {"n": n, "m": m}


@dataclass
class Fig8Cell:
    machine: str
    image: str
    implementation: str
    runtime_ms: float
    report: CostReport


def fig8_grid(
    machines: list[Machine] | None = None,
    images: list[ImageSpec] | None = None,
    chunk: int = DEFAULT_CHUNK,
    vec: int = DEFAULT_VEC,
) -> list[Fig8Cell]:
    """Reproduce fig. 8: runtime of all five implementations on every
    (CPU, image) combination."""
    machines = machines or ALL_MACHINES
    images = images or [PAPER_IMAGE_SMALL, PAPER_IMAGE_LARGE]
    programs = compile_all(chunk, vec)
    cells: list[Fig8Cell] = []
    for machine in machines:
        for image in images:
            sizes = padded_sizes(image, chunk, vec)
            for name, prog in programs.items():
                report = estimate_runtime_ms(prog, sizes, machine, _kind(name))
                cells.append(
                    Fig8Cell(machine.name, image.name, name, report.runtime_ms, report)
                )
    return cells


def fig1_normalized(chunk: int = DEFAULT_CHUNK, vec: int = DEFAULT_VEC) -> dict[str, float]:
    """Reproduce fig. 1: Lift / Halide / RISE(cbuf+rot) on the Cortex A53,
    normalized to Halide (lower is better)."""
    from repro.perf.machines import CORTEX_A53

    programs = compile_all(chunk, vec)
    sizes = padded_sizes(PAPER_IMAGE_SMALL, chunk, vec)
    times = {
        name: estimate_runtime_ms(programs[name], sizes, CORTEX_A53, _kind(name)).runtime_ms
        for name in ("Lift", "Halide", "RISE (cbuf+rot)")
    }
    halide = times["Halide"]
    return {name: t / halide for name, t in times.items()}


def claims(cells: list[Fig8Cell] | None = None) -> dict[str, float]:
    """The in-text quantitative claims of section V-B (DESIGN.md E4/E5):

    * max speedup of the best RISE version over OpenCV ("up to 16x");
    * mean speedup of cbuf+rot over cbuf ("almost 30% faster on average");
    * max/mean speedup of cbuf+rot over Halide ("more than 30% ... 1.4x").
    """
    cells = cells or fig8_grid()
    table: dict[tuple[str, str], dict[str, float]] = {}
    for cell in cells:
        table.setdefault((cell.machine, cell.image), {})[cell.implementation] = (
            cell.runtime_ms
        )
    ratios_opencv = []
    ratios_rot_cbuf = []
    ratios_rot_halide = []
    for values in table.values():
        best_rise = min(values["RISE (cbuf)"], values["RISE (cbuf+rot)"])
        ratios_opencv.append(values["OpenCV"] / best_rise)
        ratios_rot_cbuf.append(values["RISE (cbuf)"] / values["RISE (cbuf+rot)"])
        ratios_rot_halide.append(values["Halide"] / values["RISE (cbuf+rot)"])
    return {
        "max_speedup_vs_opencv": max(ratios_opencv),
        "mean_speedup_vs_opencv": float(np.mean(ratios_opencv)),
        "mean_rot_over_cbuf": float(np.mean(ratios_rot_cbuf)),
        "max_rot_over_halide": max(ratios_rot_halide),
        "mean_rot_over_halide": float(np.mean(ratios_rot_halide)),
        "halide_wins_cells": sum(1 for r in ratios_rot_halide if r < 1.0),
        "total_cells": len(ratios_rot_halide),
    }


def run_report(
    chunk: int = DEFAULT_CHUNK,
    vec: int = DEFAULT_VEC,
    height: int = 36,
    width: int = 36,
    seed: int = 7,
    batch_items: int = 8,
    batch_workers: int = 2,
    trace_out: str | None = None,
):
    """One observed compile-and-validate run as a structured
    :class:`~repro.observe.report.RunReport`.

    Collects, in one JSON-ready document: the traced derivations of both
    RISE schedules (rule-application counts, repeat/normalize iteration
    counts), per-phase compile profiles for every implementation, the
    engine section (cold/warm compile-cache accounting plus a parallel
    batch run over ``batch_items`` inputs), the executed kernels and
    their timings on the Python backend, the PSNR validation rows of
    section V-A and a snapshot of the process-wide metrics registry
    (reset at the start of the run so the snapshot covers exactly this
    run; execution counts live there).

    With ``trace_out``, the run's span tree (compile phases, batch,
    validation) is additionally exported as Chrome trace-event JSON
    (Perfetto-loadable; batch workers appear as separate thread tracks).
    """
    from repro.bench.validation import validate_outputs
    from repro.engine import ENGINE_REPORT_SCHEMA
    from repro.observe import (
        Observer,
        RunReport,
        TraceCollector,
        compile_profiles,
        derivation_stats,
        metrics_registry,
        observing,
        reset_registry,
        save_trace,
        tracing,
    )
    reset_registry()
    report = RunReport(name="harris-bench")
    report.environment = {
        "chunk": chunk,
        "vec": vec,
        "image_height": height,
        "image_width": width,
        "seed": seed,
    }

    spec = registry.get("harris")
    high = spec.expr()
    for name in ("cbuf", "cbuf-rot"):
        schedule = spec.schedule(name, chunk=chunk, vec=vec)
        collector = TraceCollector()
        with tracing(collector):
            steps = schedule.apply_traced(high)
        report.derivation[schedule.name] = derivation_stats(steps, collector)

    from repro.image import synthetic_rgb

    # One observer spans the whole run, so compile phases and worker spans
    # land in the report and the Chrome trace.  A fresh, empty engine
    # makes the compile profile a genuinely cold compile.
    eng = Engine()
    obs = Observer()
    with observing(obs):
        compile_all.__wrapped__(chunk, vec, eng)
        report.compile = compile_profiles(obs)

        # Warm pass: every implementation must now be served from the cache.
        compile_all.__wrapped__(chunk, vec, eng)
        n, m = height - 4, width - 4
        pipeline = eng.compile_request(
            zoo_request("harris", "cbuf-rot", chunk, vec, sizes={"n": n, "m": m})
        )
        batch = pipeline.run_batch(
            [{"rgb": synthetic_rgb(height, width, seed=seed + i)} for i in range(batch_items)],
            workers=batch_workers,
        )
        report.engine = {
            "schema": ENGINE_REPORT_SCHEMA,
            "cache": eng.stats(),
            "batch": batch.to_dict(),
        }
        rows = validate_outputs(height=height, width=width, chunk=chunk, vec=vec, seed=seed)
    report.execution = {
        "kernels": [
            {"name": s.name, "wall_ms": round(s.duration_ms, 3), **s.meta}
            for s in obs.flat_spans()
            if s.name.startswith("run:")
        ],
    }
    if trace_out:
        save_trace(obs, trace_out)
    report.metrics = {
        "psnr_db": {
            row.implementation: {
                "vs_halide": round(float(row.psnr_vs_halide_db), 2),
                "vs_numpy": round(float(row.psnr_vs_numpy_db), 2),
            }
            for row in rows
        },
        # 100 dB = the implementations agree to float32 rounding; cbuf+rot
        # legitimately reorders float arithmetic, so the paper's 170 dB
        # exact-schedule bar does not apply to it.
        "validation_passes": all(row.passes(threshold_db=100.0) for row in rows),
        "registry": metrics_registry().snapshot(),
    }
    return report


def format_fig8(cells: list[Fig8Cell]) -> str:
    """Render the fig. 8 grid as the paper-style table (ms, lower=better)."""
    names = list(IMPLEMENTATIONS)
    lines = []
    header = f"{'CPU':<11} {'image':<6}" + "".join(f"{n:>17}" for n in names)
    lines.append(header)
    lines.append("-" * len(header))
    table: dict[tuple[str, str], dict[str, float]] = {}
    for cell in cells:
        table.setdefault((cell.machine, cell.image), {})[cell.implementation] = (
            cell.runtime_ms
        )
    for (machine, image), values in table.items():
        row = f"{machine:<11} {image:<6}" + "".join(
            f"{values[n]:>15.1f}ms" for n in names
        )
        lines.append(row)
    return "\n".join(lines)


def _main() -> None:
    """CLI entry: observed run reports, figures and regression tracking.

    Commands (``run_report`` is the default, so the historical
    ``python -m repro.bench.harness --report x.json`` form still works):

    * ``run_report`` — one observed compile-and-validate run: writes the
      JSON run report, appends a min-of-k sample of modeled cells to the
      benchmark trajectory (``BENCH_trajectory.json``; disable with
      ``--no-trajectory``), and optionally exports the run's spans as
      Chrome trace JSON (``--trace-out``);
    * ``fig8`` — print the paper's fig. 8 runtime grid.
    """
    import argparse

    from repro.bench.regress import DEFAULT_TRAJECTORY, append_sample, collect_sample

    parser = argparse.ArgumentParser(
        description="Run the harness once and emit a JSON observability report."
    )
    parser.add_argument(
        "command",
        nargs="?",
        default="run_report",
        choices=("run_report", "fig8"),
        help="what to run (default: %(default)s)",
    )
    parser.add_argument("--report", default="bench_report.json", help="output JSON path")
    parser.add_argument("--chunk", type=int, default=DEFAULT_CHUNK)
    parser.add_argument("--vec", type=int, default=DEFAULT_VEC)
    parser.add_argument("--height", type=int, default=36, help="validation image height")
    parser.add_argument("--width", type=int, default=36, help="validation image width")
    parser.add_argument(
        "--k", type=int, default=3, help="min-of-k repeats per trajectory cell"
    )
    parser.add_argument(
        "--trajectory",
        default=DEFAULT_TRAJECTORY,
        help="benchmark trajectory ledger to append to (default: %(default)s)",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="do not append a sample to the trajectory ledger",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="also export the run's spans as Chrome trace-event JSON",
    )
    parser.add_argument(
        "--no-zoo",
        action="store_true",
        help="do not merge the pipeline-zoo cost cells (zoo|...) into "
        "the trajectory sample",
    )
    args = parser.parse_args()

    if args.command == "fig8":
        print(format_fig8(fig8_grid(chunk=args.chunk, vec=args.vec)))
        return

    report = run_report(
        chunk=args.chunk,
        vec=args.vec,
        height=args.height,
        width=args.width,
        trace_out=args.trace_out,
    )
    print(report.render_text())
    report.save(args.report)
    print(f"\nwrote {args.report}")
    if args.trace_out:
        print(f"wrote {args.trace_out}")
    if not args.no_trajectory:
        zoo = None
        if not args.no_zoo:
            from repro.bench.zoo import zoo_cells

            zoo = zoo_cells()
        sample = collect_sample(
            chunk=args.chunk,
            vec=args.vec,
            k=args.k,
            metrics=report.metrics.get("registry", {}),
            extra={"batch": report.engine.get("batch", {})},
            cells=zoo,
        )
        doc = append_sample(args.trajectory, sample)
        print(
            f"appended sample {sample['git_sha']} to {args.trajectory} "
            f"({len(doc['samples'])} sample(s))"
        )


if __name__ == "__main__":
    _main()
