"""Workload ``kernel-run``: how fast is the generated C.

Eight kernels are compiled during set-up; one operation is one
``pipeline.run`` at the paper's 1536x2560 image.  Closed loop, one
client, round-robin over the kernels at one thread.  The first frame of
every kernel is checked against the NumPy reference (max abs error and
the paper's PSNR); every later frame must equal that frame bit for bit.

Two-thread frames are measured in the traced run only and reported per
layer.  On this 2-core VM the host grants the second core in some
minutes and not in others, so the same kernels at two threads read
0.6x or 1.0x their one-thread time within a quarter of an hour — a
number no bound of 25% can gate.
"""

from __future__ import annotations

import statistics
import time

import zoo
from catalog import KERNEL_RUN_KERNELS, PAPER_SIZES, has_parallel_schedule, kernel_id
from harness import MIN_PSNR_DB, Run, geomean, percentile, spearman

#: Traced run: share of the timed region spent at one thread; a
#: one-thread round is ~3x a two-thread round (no harris naive there).
T1_SHARE = 0.7

#: The paper's best schedule on the paper's image: the Figure-8 headline.
HEADLINE_KERNEL = kernel_id("harris", "cbuf-rot")


def run(run: Run) -> dict:
    from repro.engine import Engine
    from repro.exec.pyexec import count_parallel_loops

    def build():
        engine = Engine(cache_dir=run.tmp("store"))
        cases = zoo.Cases(run.seed)
        made = []
        for p, s in KERNEL_RUN_KERNELS:
            case = cases.make(p, s, PAPER_SIZES)
            pipeline = engine.compile_request(zoo.request(p, s))
            parallel = any(count_parallel_loops(fn) for fn in pipeline.program.functions)
            if parallel != has_parallel_schedule(s):
                run.ledger.fail(f"{case.id}#setup", f"PARALLEL loop present: {parallel}")
            # two untimed frames: the first is the verified one
            for warm in range(2):
                out = pipeline.run(sizes=case.sizes, threads=1, **case.inputs)
                zoo.verify(run, case, out, f"{case.id}#warm{warm}", MIN_PSNR_DB)
            made.append((case, pipeline))
        return engine, made

    engine, made = run.setup(build)
    libraries = _libraries(engine, made) if run.trace else {}

    frames: dict[tuple[str, int], list[float]] = {}
    phases = ((1, run.seconds * T1_SHARE), (2, run.seconds)) if run.trace else ((1, run.seconds),)
    for threads, until in phases:
        group = [(c, p) for c, p in made if threads == 1 or has_parallel_schedule(c.schedule)]
        rounds = 0
        while run.elapsed() < until or rounds == 0:
            for case, pipeline in group:
                op = f"{case.id}.t{threads}#{rounds}"
                t0 = time.perf_counter()
                try:
                    with run.span("engine.run", op):
                        out = pipeline.run(sizes=case.sizes, threads=threads, **case.inputs)
                except Exception as exc:
                    run.ledger.fail(op, f"{type(exc).__name__}: {exc}")
                    continue
                ms = (time.perf_counter() - t0) * 1e3
                if zoo.verify(run, case, out, op):
                    frames.setdefault((case.id, threads), []).append(ms)
                if run.trace:
                    _bare_frame(run, libraries[case.id], case, pipeline, threads, op)
            rounds += 1

    medians = {k: statistics.median(v) for k, v in frames.items()}
    run.details["frame_ms"] = {f"{k}.t{t}": v for (k, t), v in frames.items()}
    run.details["frame_iqr_ms"] = {
        f"{k}.t{t}": percentile(v, 75) - percentile(v, 25) for (k, t), v in frames.items()
    }
    if run.trace:
        _layer_metrics(run, made, medians)
    return {
        "primary_ms": geomean(v for (_, t), v in medians.items() if t == 1),
        "secondary_ms": medians[HEADLINE_KERNEL, 1],
    }


def _libraries(engine, made) -> dict:
    """Each kernel's stored ``.so``, loaded directly from the store."""
    from repro.exec.cbridge import load_c_library

    store = engine.cache.store
    return {case.id: load_c_library(store.so_path(p.key)) for case, p in made}


def _bare_frame(run: Run, library, case, pipeline, threads: int, op: str) -> None:
    """The same frame through ``exec.cbridge`` alone, without the engine."""
    from repro.exec.cbridge import execute_with_library

    with run.span("exec.run", op) as span:
        out = execute_with_library(
            library, pipeline.program, case.sizes, case.inputs, threads=threads
        )
    zoo.verify(run, case, out, f"{op}.bare")
    run.observe(f"exec.run_ms.{case.id}.t{threads}", span.ms)


def _layer_metrics(run: Run, made, medians: dict) -> None:
    from repro.perf.cost import estimate_runtime_ms
    from repro.perf.machines import CORTEX_A73

    bare = run.layer_metrics()
    modeled, measured = [], []
    for case, pipeline in made:
        with run.span("perf.cost", case.id) as span:
            report = estimate_runtime_ms(pipeline.program, PAPER_SIZES, CORTEX_A73)
        run.add("perf.cost_ms", span.ms)
        modeled.append(report.runtime_ms)
        measured.append(bare[f"exec.run_ms.{case.id}.t1"])
    run.layers["perf.rank_corr"] = spearman(modeled, measured)
    for (kid, threads), ms in medians.items():
        run.observe("engine.run_overhead_ms", ms - bare[f"exec.run_ms.{kid}.t{threads}"])
    for threads in (1, 2):
        run.layers[f"bench.run_ms_geomean.t{threads}"] = geomean(
            v for (_, t), v in medians.items() if t == threads
        )
