"""The evaluation harness: compiles every implementation once and
regenerates the paper's figures and in-text claims (DESIGN.md E1-E7),
the claims as one table of bands (:func:`paper_claims`).

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
    "Claim",
    "paper_claims",
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


@dataclass(frozen=True)
class Claim:
    """One row of the paper-claims table: a modeled ``value`` and the band
    it must lie in.  ``None`` leaves that side unbounded; a ``closed`` band
    includes its ends.  A row bounded on neither side is reported, not
    checked."""

    id: str
    claim: str
    lo: float | None
    hi: float | None
    value: float
    closed: bool = False

    @property
    def ok(self) -> bool:
        above = self.lo is None or (
            self.value >= self.lo if self.closed else self.value > self.lo
        )
        below = self.hi is None or (
            self.value <= self.hi if self.closed else self.value < self.hi
        )
        return above and below

    @property
    def band(self) -> str:
        lo = "(-inf" if self.lo is None else f"{'[' if self.closed else '('}{self.lo:g}"
        hi = "inf)" if self.hi is None else f"{self.hi:g}{']' if self.closed else ')'}"
        return f"{lo}, {hi}"


def _fig8_table(cells: list[Fig8Cell]) -> dict[tuple[str, str], dict[str, float]]:
    """(machine, image) -> implementation -> modeled runtime (ms)."""
    table: dict[tuple[str, str], dict[str, float]] = {}
    for cell in cells:
        table.setdefault((cell.machine, cell.image), {})[cell.implementation] = (
            cell.runtime_ms
        )
    return table


@lru_cache(maxsize=1)
def paper_claims() -> tuple[Claim, ...]:
    """The paper's section V claims (EXPERIMENTS.md E1-E7) plus ``G``, the
    check that the optimizations generalize to another composition, as one
    table computed once per process.  A claim about every cell is one row
    holding the min or max over the cells."""
    from repro.bench.ablation import run_ablation
    from repro.bench.validation import validate_outputs
    from repro.perf.vectorloads import vector_load_costs

    fig1 = fig1_normalized()
    cells = list(_fig8_table(fig8_grid()).values())

    def others(values: dict[str, float], name: str) -> list[float]:
        return [v for n, v in values.items() if n != name]

    rot = [v["RISE (cbuf+rot)"] for v in cells]
    opencv = [v["OpenCV"] / min(v["RISE (cbuf)"], v["RISE (cbuf+rot)"]) for v in cells]
    cbuf_halide = [v["RISE (cbuf)"] / v["Halide"] for v in cells]
    rot_halide = [v["Halide"] / r for v, r in zip(cells, rot)]

    validation = validate_outputs()
    ablation = {row.variant: row.slowdown_vs_full for row in run_ablation()}
    loads = {m.name: vector_load_costs(m).speedup for m in ALL_MACHINES}

    blur = {
        schedule: default_engine().compile_request(
            zoo_request("gaussian-blur", schedule, DEFAULT_CHUNK, DEFAULT_VEC)
        ).program
        for schedule in ("cbuf", "cbuf-rot")
    }
    blur_sizes = {"n": 1536, "m": 2556}
    blur_speedup = [
        estimate_runtime_ms(blur["cbuf"], blur_sizes, m, registry.RISE_KIND).runtime_ms
        / estimate_runtime_ms(blur["cbuf-rot"], blur_sizes, m, registry.RISE_KIND).runtime_ms
        for m in ALL_MACHINES
    ]

    C = Claim
    return (
        C("E1.halide", "fig. 1 normalizes to Halide", 1.0, 1.0, fig1["Halide"], True),
        C("E1.lift", "Lift performs poorly: Lift / Halide on A53", 1.8, None, fig1["Lift"]),
        C("E1.rise", "RISE beats Halide ~1.3x: cbuf+rot / Halide on A53",
          0.6, 0.9, fig1["RISE (cbuf+rot)"]),
        C("E2.cells", "fig. 8 has 4 CPUs x 2 images", 8, 8, len(cells), True),
        C("E2.opencv-slowest", "OpenCV slowest: min over cells of OpenCV / slowest other",
          1.0, None, min(v["OpenCV"] / max(others(v, "OpenCV")) for v in cells)),
        C("E2.lift-over-cbuf", "RISE clearly beats Lift: min over cells of Lift / cbuf",
          1.5, None, min(v["Lift"] / v["RISE (cbuf)"] for v in cells)),
        C("E2.deviation.min", "cbuf on par with Halide (deviation: cbuf trails): "
          "min over cells of cbuf / Halide", 0.6, 1.5, min(cbuf_halide)),
        C("E2.deviation.max", "cbuf on par with Halide (deviation: cbuf trails): "
          "max over cells of cbuf / Halide", 0.6, 1.5, max(cbuf_halide)),
        C("E2.rot-fastest", "cbuf+rot fastest: max over cells of cbuf+rot / fastest other",
          None, 1.02, max(r / min(others(v, "RISE (cbuf+rot)")) for v, r in zip(cells, rot)),
          True),
        C("E3.rows", "every implementation is validated", 5, 5, len(validation), True),
        C("E3.exact", "outputs bit-equal to Halide's (all but the re-associated cbuf+rot)",
          4, None, sum(math.isinf(r.psnr_vs_halide_db) for r in validation), True),
        C("E3.psnr-halide", "min PSNR vs the Halide output (dB)",
          120.0, None, min(r.psnr_vs_halide_db for r in validation)),
        C("E3.psnr-numpy", "min PSNR vs the NumPy reference (dB)",
          100.0, None, min(r.psnr_vs_numpy_db for r in validation)),
        C("E4.opencv-max", "up to 16x vs OpenCV: max over cells of OpenCV / best RISE",
          6.0, 20.0, max(opencv), True),
        C("E4.opencv-mean", "mean over cells of OpenCV / best RISE",
          None, None, float(np.mean(opencv))),
        C("E5.rot-over-cbuf", "~30% from separation + rotation: mean cbuf / cbuf+rot",
          1.2, 1.75, float(np.mean([v["RISE (cbuf)"] / r for v, r in zip(cells, rot)])), True),
        C("E5.rot-over-halide.mean", ">30% over Halide: mean Halide / cbuf+rot",
          1.2, None, float(np.mean(rot_halide)), True),
        C("E5.rot-over-halide.max", "up to 1.4x over Halide: max Halide / cbuf+rot",
          1.25, 1.55, max(rot_halide), True),
        C("E5.halide-wins", "cells where Halide beats cbuf+rot",
          None, None, sum(r < 1.0 for r in rot_halide)),
        C("E6.full", "the full schedule is the ablation's unit",
          1.0, 1.0, ablation["full (cbuf+rot)"], True),
        C("E6.no-faster", "no ablated variant is faster: min slowdown",
          1.0, None, min(ablation.values()), True),
        C("E6.no-mt", "slowdown without multi-threading", 1.4, None,
          ablation["no multi-threading"]),
        C("E6.no-vec", "slowdown without vectorization", 1.2, None,
          ablation["no vectorization"]),
        C("E6.no-rot", "slowdown without rotation (cbuf)", 1.2, None,
          ablation["no rotation (cbuf)"]),
        C("E6.no-cbuf", "slowdown without circular buffering", 3.0, None,
          ablation["no circular buffering"]),
        C("E7.speedup", "two loads + shuffles beat three: min speedup over CPUs",
          1.0, None, min(loads.values())),
        C("E7.A7-over-A15", "in-order A7 gains more than out-of-order A15",
          1.0, None, loads["Cortex A7"] / loads["Cortex A15"]),
        C("E7.A53-over-A73", "in-order A53 gains more than out-of-order A73",
          1.0, None, loads["Cortex A53"] / loads["Cortex A73"]),
        C("G.gaussian-blur", "unchanged schedules generalize: min over CPUs of "
          "gaussian-blur cbuf / cbuf-rot", 1.0, None, min(blur_speedup)),
    )


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
    for (machine, image), values in _fig8_table(cells).items():
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
