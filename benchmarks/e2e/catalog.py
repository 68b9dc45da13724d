"""The benchmark's fixed vocabulary: workloads, kernels and metric names.

``BENCHMARK.json`` is generated from this file (``run.py --calibrate``
rewrites it with measured bounds; ``test_harness.py`` checks the two
agree), so a metric is declared once.  Every workload prints every
end-to-end metric; a traced run prints every per-layer metric, with 0
for a layer the workload does not enter.
"""

from __future__ import annotations

# -- kernels --------------------------------------------------------------------

#: cold-zoo: one never-seen key per entry, every pipeline and every
#: schedule of the family at least once.  One pass is ~9 s here, of
#: which harris cbuf-rot is ~5.5 s (the cost ROADMAP item 1 attacks).
COLD_ZOO_KERNELS = (
    ("harris", "naive"),
    ("harris", "cbuf-rot"),
    ("sobel-magnitude", "cbuf"),
    ("gaussian-blur", "cbuf-rot"),
    ("unsharp-mask", "cbuf-par"),
    ("unsharp-mask", "cbuf-rot"),
    ("box-blur", "cbuf-rot-par"),
    ("pyramid", "naive"),
)

#: ``--smoke``: the three cheapest of the above (<1 s together).
COLD_ZOO_SMOKE_KERNELS = (
    ("box-blur", "cbuf-rot-par"),
    ("pyramid", "naive"),
    ("gaussian-blur", "cbuf-rot"),
)

#: kernel-run: the paper's Figure-8 ladder on Harris (naive, listing 5,
#: listing 9) plus optimized kernels of four other pipelines, every
#: schedule of the family at least once.  Each Harris cbuf* compile is
#: 5.5 s of set-up, so the strip-parallel schedules ride on cheaper
#: pipelines.  pyramid is left out: at 1536x2560 its 4x-larger input is
#: 160 MB and its NumPy reference takes 5 s.
KERNEL_RUN_KERNELS = (
    ("harris", "naive"),
    ("harris", "cbuf"),
    ("harris", "cbuf-rot"),
    ("gaussian-blur", "cbuf-rot"),
    ("sobel-magnitude", "cbuf-par"),
    ("unsharp-mask", "cbuf"),
    ("unsharp-mask", "cbuf-rot-par"),
    ("box-blur", "cbuf-rot-par"),
)

#: The paper's small image (output rows x columns).
PAPER_SIZES = {"n": 1536, "m": 2560}

#: serve-mixed: the AOT-prebuilt warm set (3 pipelines x 5 schedules at
#: chunk 4) and the pipeline whose off-grid variants are the cold keys.
SERVE_WARM_PIPELINES = ("gaussian-blur", "box-blur", "unsharp-mask")
SERVE_COLD_PIPELINE = "sobel-magnitude"
SERVE_PHASES = ("quiet", "burst")

#: tune-search: (pipeline, beam, steps).  ~9.5 s for one pass here.
TUNE_SEARCHES = (
    ("gaussian-blur", 4, 6),
    ("unsharp-mask", 2, 3),
    ("box-blur", 4, 6),
)


def kernel_id(pipeline: str, schedule: str) -> str:
    return f"{pipeline}.{schedule}"


def has_parallel_schedule(schedule: str) -> bool:
    """Every schedule but naive maps chunks with ``mapGlobal``."""
    return schedule != "naive"


# -- workloads --------------------------------------------------------------------

WORKLOADS = {
    "cold-zoo": (
        "never-seen keys through Engine.compile_request + first run: the JIT tax, "
        "~90% in repro.elevate. primary=geomean cold ms over 8 kernels, "
        "secondary=slowest kernel (harris cbuf-rot)"
    ),
    "kernel-run": (
        "generated C at the paper's 1536x2560 image, compiler front half in set-up: "
        "codegen quality. primary=geomean frame ms over 8 kernels at 1 thread, "
        "secondary=harris cbuf-rot, the paper's headline"
    ),
    "serve-mixed": (
        "open loop, 300 warm req/s through repro.serve over an AOT store; a burst of 4 "
        "cold keys fills both workers. primary=warm p90 in the burst phase, "
        "secondary=warm p50 in the quiet phase (bypass)"
    ),
    "tune-search": (
        "beam_search over 3 pipelines: the rewrite/typecheck/lower/cost layers as many "
        "short memoized steps, not few long normalizations. primary=geomean search ms, "
        "secondary=slowest search"
    ),
}

# -- end-to-end metrics -------------------------------------------------------------

#: name -> (unit, better, bound).  ``--calibrate`` measures the bounds
#: (these are what it last wrote); ``setup_s`` keeps the largest.
END_TO_END = {
    "primary_ms": ("ms", "lower", 0.25),
    "secondary_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

# -- per-layer metrics ----------------------------------------------------------------

#: Labels of ``Schedule.steps`` entries (see ``harness.step_label``).
STEP_LABELS = (
    "fuseOperators",
    "harrisIxWithIy",
    "splitPipeline",
    "parallel",
    "simplify",
    "separateConvolutionsInLine",
    "vectorizeReductions",
    "circularBufferStages",
    "rotateValuesConsume",
    "sequential",
    "usePrivateMemory",
    "unrollReductions",
    "stripParallel",
    "letInline",
    "useMapSeq",
    "other",
)

REWRITE_DETAIL_KERNELS = (
    ("harris", "cbuf-rot"),
    ("harris", "naive"),
    ("sobel-magnitude", "cbuf"),
    ("gaussian-blur", "cbuf-rot"),
)


def _per_layer() -> dict[str, tuple[str, str, str, bool]]:
    """name -> (unit, better, what it should move, repeats exactly)."""
    m: dict[str, tuple[str, str, str, bool]] = {}

    def add(name, unit, moves, better="lower", exact=False):
        m[name] = (unit, better, moves, exact)

    cold = "primary_ms+secondary_ms@cold-zoo"
    tune = "primary_ms@tune-search"
    run = "primary_ms+secondary_ms@kernel-run"
    run_t2 = "nothing gated: 2-thread frames are host-dependent here"
    burst = "primary_ms@serve-mixed"
    quiet = "secondary_ms@serve-mixed"

    add("pipelines.build_ms", "ms", "context: spec.expr() + make_schedule()")
    add("rise.nodes_in", "count", "context: size of the programs rewritten", exact=True)
    add("rise.nodes_lowered", "count", "codegen.lower_ms", exact=True)

    add("elevate.rewrite_ms", "ms", f"{cold}; setup_s@kernel-run,serve-mixed; {tune}")
    for p, s in REWRITE_DETAIL_KERNELS:
        add(f"elevate.rewrite_ms.{kernel_id(p, s)}", "ms", cold)
    for label in STEP_LABELS:
        add(f"elevate.step_ms.{label}", "ms", "elevate.rewrite_ms")
    add("elevate.strategy_calls", "count", "elevate.rewrite_ms", exact=True)
    add("elevate.rule_attempts", "count", "elevate.rewrite_ms", exact=True)
    add("elevate.rule_hits", "count", "must stay put when attempts fall", "higher", True)
    add("elevate.hit_ratio", "ratio", "elevate.rewrite_ms", "higher", True)

    add("rise.typecheck_ms", "ms", f"{tune}; <1% of cold-zoo")
    add("codegen.lower_ms", "ms", f"{tune}; <=3% of cold-zoo")
    add("codegen.print_ms", "ms", "<1% of cold-zoo")
    add("codegen.c_bytes", "count", "code-size record for ROADMAP item 3", exact=True)
    add("codegen.c_lines", "count", "code-size record for ROADMAP item 3", exact=True)
    add("perf.cost_ms", "ms", tune)
    add("perf.rank_corr", "ratio", "ROADMAP 3a: modeled vs measured rank", "higher")

    add("exec.gcc_ms", "ms", f"{cold} (~10%)")
    add("exec.so_bytes", "count", "engine.store_bytes")
    add("exec.load_ms", "ms", f"{cold}; first touch per phase in {burst},{quiet}")
    add("exec.first_run_ms", "ms", cold)
    for p, s in KERNEL_RUN_KERNELS:
        add(f"exec.run_ms.{kernel_id(p, s)}.t1", "ms", "primary_ms@kernel-run")
    for p, s in KERNEL_RUN_KERNELS:
        if has_parallel_schedule(s):
            add(f"exec.run_ms.{kernel_id(p, s)}.t2", "ms", run_t2)

    for status in ("miss", "hit-memory", "hit-disk"):
        add(f"engine.front_ms.{status}", "ms", f"{cold if status == 'miss' else quiet}")
        add(f"engine.requests.{status}", "count", "context: cache outcome mix")
    add("engine.self_ms.miss", "ms", cold)
    add("engine.run_overhead_ms", "ms", f"{run}; {quiet}")
    add("engine.store_save_ms", "ms", f"{cold}; ROADMAP 5b checksum cost")
    add("engine.store_load_ms", "ms", f"{quiet}; ROADMAP 5b checksum cost")
    add("engine.store_bytes", "count", "context: artifact size on disk")

    for phase, moved in (("quiet", quiet), ("burst", burst)):
        add(f"serve.warm_ms_p50.{phase}", "ms", moved)
        add(f"serve.warm_ms_p90.{phase}", "ms", moved)
        add(f"serve.warm_ms_tail.{phase}", "ms", moved)
        add(f"serve.wait_ms_p50.{phase}", "ms", moved)
        add(f"serve.wait_ms_p99.{phase}", "ms", moved)
        add(f"serve.compile_ms_p50.{phase}", "ms", moved)
        add(f"serve.self_ms_p50.{phase}", "ms", moved)
        add(f"serve.queue_high_water.{phase}", "count", moved)
        add(f"serve.achieved_rps.{phase}", "1/s", "must equal the offered rate", "higher")
        add(f"bench.gen_late_ms_p99.{phase}", "ms", "generator health; GIL held by builds")
    add("serve.cold_ms_p50", "ms", "elevate.rewrite_ms under load")
    add("serve.rejected", "count", "must stay 0")
    add("serve.deadline_exceeded", "count", "must stay 0")
    add("serve.coalesced", "count", "context")

    for p, _, _ in TUNE_SEARCHES:
        add(f"tune.search_s.{p}", "s", tune)
        add(f"tune.best_cost_ms.{p}", "ms", "must not change unless a PR says so", exact=True)
    add("tune.expanded", "count", tune, exact=True)
    add("tune.scored", "count", tune, exact=True)
    add("tune.pruned", "count", tune, exact=True)
    add("tune.memo_hit_ratio", "ratio", tune, "higher", True)

    add("bench.run_ms_geomean.t1", "ms", "is primary_ms@kernel-run")
    add("bench.run_ms_geomean.t2", "ms", run_t2)
    add("bench.cold_total_s", "s", "sum form of primary_ms@cold-zoo")
    add("bench.tune_total_s", "s", "sum form of primary_ms@tune-search")
    add("bench.layers_share", "ratio", "hand-driven layer spans / front-door time", "higher")
    add("bench.trace_overhead_share", "ratio", "the benchmark's own span cost")
    return m


PER_LAYER = _per_layer()
EXACT = tuple(name for name, spec in PER_LAYER.items() if spec[3])


def manifest(bounds: dict[str, float] | None = None, run_seconds: int = 10) -> dict:
    """The ``BENCHMARK.json`` document."""
    bounds = bounds or {}
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bounds.get(n, d)}
            for n, (u, b, d) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b, _, _) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    # the per-layer table of README.md, so the two cannot drift apart
    print("| per-layer metric | unit | better | should move | exact |")
    print("|---|---|---|---|---|")
    for name, (unit, better, moves, exact) in PER_LAYER.items():
        print(f"| `{name}` | {unit} | {better} | {moves} | {'yes' if exact else ''} |")
