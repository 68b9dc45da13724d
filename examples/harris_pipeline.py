"""The paper's case study end to end: the Harris corner detector.

1. builds the high-level pipeline of listing 3;
2. applies the two optimization schedules of listings 5 and 9;
3. compiles, executes the generated code on a synthetic image and checks
   it against the numpy reference (the PSNR validation of section V-A);
4. prints the detected corners as ASCII art and the modeled runtimes on
   the four ARM CPUs of the evaluation.

Run:  python examples/harris_pipeline.py

With ``--trace``, every rewrite is observed: each schedule prints its
step-by-step derivation (the paper's listing 5-9 view) with node counts
and a most-fired-rules summary, compiles and runs under an observer, and
a JSON run report (derivation stats, per-phase codegen timings from the
observer's spans, PSNR) is written to ``--report`` (default:
harris_report.json).

With ``--trace-out FILE``, the executed kernels (and a parallel batch
run over the synthetic image) are additionally exported as Chrome
trace-event JSON — drop the file on https://ui.perfetto.dev or
``chrome://tracing`` to see the span timeline, one track per worker
thread.
"""

import argparse

import numpy as np

import repro
from repro.engine import ENGINE_REPORT_SCHEMA, default_engine
from repro.image import psnr, synthetic_rgb, reference
from repro.observe import (
    Observer,
    RunReport,
    TraceCollector,
    compile_profiles,
    derivation_stats,
    format_derivation,
    observing,
    save_trace,
    tracing,
)
from repro.perf import ALL_MACHINES, estimate_runtime_ms
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier
from repro.strategies import cbuf_rrot_version, cbuf_version


def ascii_corners(response: np.ndarray, width: int = 48) -> str:
    step_y = max(1, response.shape[0] // 16)
    step_x = max(1, response.shape[1] // width)
    sampled = np.abs(response[::step_y, ::step_x])
    threshold = np.percentile(sampled, 92)
    rows = []
    for row in sampled:
        rows.append("".join("#" if v > threshold and v > 0 else "." for v in row))
    return "\n".join(rows)


def main(
    trace: bool = False,
    report_path: str = "harris_report.json",
    trace_out: str | None = None,
) -> None:
    # With --trace-out, one shared observer collects every executed
    # kernel span across the whole run for the Chrome trace export.
    trace_obs = Observer() if trace_out else None
    rgb = Identifier("rgb")
    senv = {"rgb": harris_input_type()}
    program = harris(rgb)
    print("Harris pipeline (listing 3):", "gray -> sobel x/y -> products ->")
    print("  3x3 sums -> coarsity;", "expressed with map/zip/slide/reduce only.")

    # --- optimize with the two schedules ---------------------------------
    schedules = {
        "cbuf      (listing 5, = reference Halide schedule)": cbuf_version(senv, chunk=4),
        "cbuf+rot  (listing 9, + separation & rotation)": cbuf_rrot_version(senv, chunk=4),
    }

    img = synthetic_rgb(36, 68, seed=11)
    ref = reference.harris(img)
    n, m = ref.shape

    report = RunReport(name="harris-pipeline-example")
    report.environment = {"chunk": 4, "vec": 4, "n": n, "m": m, "seed": 11}

    outputs = {}
    for label, schedule in schedules.items():
        if trace:
            # Observed run: derivation steps + rule trace, then compile and
            # run under one observer whose codegen spans are the profile.
            collector = TraceCollector()
            with tracing(collector):
                steps = schedule.apply_traced(program)
            low = steps[-1][1]
            print(f"\n=== derivation [{schedule.name}] "
                  f"({label.split()[0]}) ===")
            print(format_derivation(steps, collector))
            report.derivation[schedule.name] = derivation_stats(steps, collector)
            with observing() as obs:
                pipeline = repro.compile(
                    low,
                    type_env=senv,
                    name=schedule.name.replace("-", "_"),
                    sizes={"n": n, "m": m},
                )
                out = pipeline.run(rgb=img).reshape(n, m)
            report.compile.extend(compile_profiles(obs))
            report.execution[schedule.name] = {
                "kernel_ms": [
                    round(s.duration_ms, 3)
                    for s in obs.flat_spans()
                    if s.name.startswith("run:")
                ],
            }
        else:
            # The unified front door: rewrite + lower + cache in one call.
            pipeline = repro.compile(
                program,
                strategy=schedule,
                type_env=senv,
                name=schedule.name.replace("-", "_"),
                sizes={"n": n, "m": m},
            )
            out = pipeline.run(rgb=img).reshape(n, m)
        prog = pipeline.program
        outputs[label] = (prog, out)
        quality = psnr(ref, out)
        report.metrics[f"psnr_db.{schedule.name}"] = round(float(quality), 2)
        print(f"\n{label}")
        print(f"  output vs numpy reference: PSNR = {quality:.1f} dB")
        assert quality > 100

    if trace_obs is not None:
        # A parallel batch run under the shared observer: the exported
        # Chrome trace shows one track per worker thread.
        with observing(trace_obs):
            batch = pipeline.run_batch(
                [{"rgb": synthetic_rgb(36, 68, seed=11 + i)} for i in range(8)],
                workers=2,
                mode="thread",
            )
        path = save_trace(trace_obs, trace_out)
        print(f"\nbatch: {len(batch)} items ({batch.mode}, "
              f"{batch.throughput_items_per_s:.1f} items/s)")
        print(f"wrote Chrome trace: {path}  (open in https://ui.perfetto.dev)")

    print("\ndetected corners (synthetic checkerboard-ish image):")
    print(ascii_corners(ref))

    # --- modeled performance on the paper's CPUs --------------------------
    print("\nmodeled runtime, paper's small image (1536x2560):")
    sizes = {"n": 1536, "m": 2556}
    for label, (prog, _) in outputs.items():
        short = label.split()[0]
        times = ", ".join(
            f"{mach.name.split()[-1]}: {estimate_runtime_ms(prog, sizes, mach, 'opencl').runtime_ms:7.1f} ms"
            for mach in ALL_MACHINES
        )
        print(f"  {short:10} {times}")
        report.metrics[f"modeled_runtime_ms.{prog.name}"] = {
            mach.name: round(
                estimate_runtime_ms(prog, sizes, mach, "opencl").runtime_ms, 2
            )
            for mach in ALL_MACHINES
        }

    if trace:
        report.engine = {
            "schema": ENGINE_REPORT_SCHEMA,
            "cache": default_engine().stats(),
        }
        report.save(report_path)
        print(f"\nwrote run report: {report_path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the step-by-step derivation and write a JSON run report",
    )
    parser.add_argument(
        "--report",
        default="harris_report.json",
        help="run-report path (with --trace)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="export executed kernels + a parallel batch run as Chrome "
        "trace-event JSON (Perfetto-loadable)",
    )
    args = parser.parse_args()
    main(trace=args.trace, report_path=args.report, trace_out=args.trace_out)
