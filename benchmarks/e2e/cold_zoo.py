"""Workload ``cold-zoo``: the JIT tax of a never-seen key.

One operation is ``Engine(cache_dir=fresh).compile_request(zoo kernel,
backend="c")`` followed by the first ``pipeline.run`` on the smallest
legal image, checked against the NumPy reference.  Closed loop, one
client.  The kernel list is walked in a seeded order, again and again
over a fresh store each pass, until the time is up; every kernel is
compiled at least once.

A traced run repeats each kernel by hand through the public function of
every layer, a span round each call, and checks that this hand-driven
path prints the same C as the front door did.
"""

from __future__ import annotations

import random
import statistics
import time

import zoo
from catalog import (
    COLD_ZOO_KERNELS,
    COLD_ZOO_SMOKE_KERNELS,
    PAPER_SIZES,
    REWRITE_DETAIL_KERNELS,
    STEP_LABELS,
    kernel_id,
)
from harness import Run, canonical_c, geomean, output_error, step_label

#: Kernels whose rewrite is repeated under ``repro.observe.tracing()``
#: for exact rule counts (tracing slows rewriting, so not all of them).
COUNTED_KERNELS = (("harris", "cbuf-rot"), ("gaussian-blur", "cbuf-rot"))


def run(run: Run) -> dict:
    from repro.engine import Engine

    kernels = COLD_ZOO_SMOKE_KERNELS if run.smoke else COLD_ZOO_KERNELS

    def build():
        cases = zoo.Cases(run.seed)
        made = [cases.make(p, s, zoo.smallest_sizes(p, s)) for p, s in kernels]
        # one throwaway compile: proves gcc works and finishes the lazy
        # imports and the OpenMP probe every later compile would share
        warm = cases.make("box-blur", "naive", zoo.smallest_sizes("box-blur", "naive"))
        engine = Engine(cache_dir=None)
        out = engine.compile_request(zoo.request("box-blur", "naive")).run(
            sizes=warm.sizes, **warm.inputs
        )
        reason = output_error("box-blur", out, warm.ref)
        if reason:
            raise RuntimeError(f"warm-up kernel is wrong: {reason}")
        return made

    cases = run.setup(build, repeats=3)
    random.Random(run.seed).shuffle(cases)

    samples: dict[str, list[float]] = {c.id: [] for c in cases}
    passes = 0
    while True:
        engine = Engine(cache_dir=run.tmp(f"store-{passes}"))
        started = 0
        for case in cases:
            if passes and not run.fits(samples[case.id][-1] if samples[case.id] else 0.0):
                continue
            started += 1
            op = f"{case.id}#{passes}"
            t0 = time.perf_counter()
            try:
                with run.span("op", op):
                    with run.span("engine.compile_request"):
                        pipeline = engine.compile_request(
                            zoo.request(case.pipeline, case.schedule)
                        )
                    with run.span("engine.run"):
                        out = pipeline.run(sizes=case.sizes, **case.inputs)
            except Exception as exc:
                run.ledger.fail(op, f"{type(exc).__name__}: {exc}")
                continue
            ms = (time.perf_counter() - t0) * 1e3
            if pipeline.cache_status != "miss":
                run.ledger.fail(op, f"expected a miss, got {pipeline.cache_status}")
                continue
            case.first = None  # each pass is a new build: verify it afresh
            if zoo.verify(run, case, out, op):
                samples[case.id].append(ms)
            if run.trace and passes == 0:
                _drive_layers(run, engine, case, pipeline, ms)
        passes += 1
        if not started or run.elapsed() >= run.seconds:
            break

    per_kernel = {k: statistics.median(v) for k, v in samples.items() if v}
    if not per_kernel:
        raise RuntimeError(f"no kernel compiled: {run.ledger.failures}")
    run.details["cold_ms"] = samples
    run.details["passes"] = passes
    if run.trace:
        run.layers["bench.cold_total_s"] = sum(per_kernel.values()) / 1e3
        _counted_pass(run, kernels)
    return {
        "primary_ms": geomean(per_kernel.values()),
        "secondary_ms": max(per_kernel.values()),
    }


# -- the traced, hand-driven path ----------------------------------------------------


def _drive_layers(run: Run, engine, case: zoo.Case, front, front_ms: float) -> None:
    """Repeat one cold op by hand through each layer's public function."""
    from repro.codegen.cprint import program_to_c
    from repro.codegen.lower import compile_program
    from repro.engine import ArtifactStore, CacheEntry, Engine, structural_hash
    from repro.exec.cbridge import (
        compile_c_library,
        effective_cflags,
        execute_with_library,
        load_c_library,
    )
    from repro.perf.cost import estimate_runtime_ms
    from repro.perf.machines import CORTEX_A73
    from repro.pipelines import registry
    from repro.rise.traverse import count_nodes
    from repro.rise.typecheck import infer_types

    kid = case.id
    rec = run.rec
    first = len(rec.spans)
    with run.span("layers", f"{kid}#layers"):
        with run.span("pipelines.build"):
            spec = registry.get(case.pipeline)
            env = spec.type_env()
            expr = spec.expr()
            schedule = registry.make_schedule(case.schedule, env)
        with run.span("elevate.rewrite"):
            lowered = expr
            for step in schedule.steps:
                with run.span(f"elevate.step.{step_label(step.name)}"):
                    lowered = step.apply(lowered)
        name = f"zoo_{case.pipeline}_{case.schedule}".replace("-", "_")
        with run.span("codegen.lower"):
            program = compile_program(lowered, env, name)
        with run.span("codegen.print"):
            source = program_to_c(program)
        cflags = effective_cflags(("-O2",))
        with run.span("exec.gcc"):
            library = compile_c_library(program, extra_flags=cflags, source=source)
        entry = CacheEntry(
            key=front.key, program=program, backend="c", c_source=source, library=library
        )
        store = ArtifactStore(run.tmp(f"layers-{kid}"))
        with run.span("engine.store_save"):
            meta = store.save(entry)
        with run.span("exec.first_run"):
            out = execute_with_library(library, program, case.sizes, case.inputs)
    spans = rec.spans[first:]
    layer_ms = sum(s.ms for s in spans if s.parent == spans[0].id)
    run.add("bench.layers_ms", layer_ms)
    run.add("bench.front_ms", front_ms)

    # what the front door really built must be what the layers built
    op = f"{kid}#layers"
    canonical = canonical_c(source)
    if canonical != canonical_c(front.source):
        run.ledger.fail(op, "hand-driven C source differs from pipeline.source")
    else:
        run.ledger.check(op, output_error(case.pipeline, out, case.ref))
    run.details.setdefault("structural_hash", {})[kid] = structural_hash(lowered)

    # off the cold path: the layers a cold compile does not time alone
    with run.span("rise.typecheck", op):
        infer_types(lowered, env, strict=False)
    with run.span("perf.cost", op):
        estimate_runtime_ms(program, PAPER_SIZES, CORTEX_A73)
    with run.span("engine.store_load", op):
        store.load(front.key)
    with run.span("exec.load", op):
        reloaded = load_c_library(store.so_path(front.key))
    with run.span("exec.run", op):
        execute_with_library(reloaded, program, case.sizes, case.inputs)
    with run.span("engine.run.warm", op):
        front.run(sizes=case.sizes, **case.inputs)
    for status, eng in (("hit-memory", engine), ("hit-disk", Engine(engine.cache.store.root))):
        with run.span(f"engine.front.{status}", op):
            again = eng.compile_request(zoo.request(case.pipeline, case.schedule))
        if again.cache_status != status:
            run.ledger.fail(op, f"expected {status}, got {again.cache_status}")

    by_name = {s.name: s.ms for s in rec.spans[first:]}
    run.add("pipelines.build_ms", by_name["pipelines.build"])
    run.add("rise.nodes_in", count_nodes(expr))
    run.add("rise.nodes_lowered", count_nodes(lowered))
    run.add("elevate.rewrite_ms", by_name["elevate.rewrite"])
    if (case.pipeline, case.schedule) in REWRITE_DETAIL_KERNELS:
        run.add(f"elevate.rewrite_ms.{kid}", by_name["elevate.rewrite"])
    for s in rec.spans[first:]:
        if s.name.startswith("elevate.step."):
            label = s.name[len("elevate.step."):]
            run.add(f"elevate.step_ms.{label if label in STEP_LABELS else 'other'}", s.ms)
    run.add("rise.typecheck_ms", by_name["rise.typecheck"])
    run.add("codegen.lower_ms", by_name["codegen.lower"])
    run.add("codegen.print_ms", by_name["codegen.print"])
    run.add("codegen.c_bytes", len(canonical.encode()))
    run.add("codegen.c_lines", canonical.count("\n"))
    run.add("perf.cost_ms", by_name["perf.cost"])
    run.add("exec.gcc_ms", by_name["exec.gcc"])
    run.add("exec.so_bytes", store.so_path(front.key).stat().st_size)
    run.observe("exec.load_ms", by_name["exec.load"])
    run.observe("exec.first_run_ms", by_name["exec.first_run"])
    run.observe("engine.front_ms.miss", front_ms)
    run.observe("engine.front_ms.hit-memory", by_name["engine.front.hit-memory"])
    run.observe("engine.front_ms.hit-disk", by_name["engine.front.hit-disk"])
    for status in ("miss", "hit-memory", "hit-disk"):
        run.add(f"engine.requests.{status}", 1)
    run.observe("engine.self_ms.miss", front_ms - layer_ms)
    run.observe("engine.run_overhead_ms", by_name["engine.run.warm"] - by_name["exec.run"])
    run.observe("engine.store_save_ms", by_name["engine.store_save"])
    run.observe("engine.store_load_ms", by_name["engine.store_load"])
    run.add("engine.store_bytes", meta["artifact_bytes"])


def _counted_pass(run: Run, kernels) -> None:
    """Exact rule counts from the program's own ``tracing()`` collector."""
    from repro.observe import tracing
    from repro.pipelines import registry

    for pipeline, schedule in COUNTED_KERNELS:
        if (pipeline, schedule) not in kernels:
            continue
        spec = registry.get(pipeline)
        with run.span("elevate.counted", kernel_id(pipeline, schedule)):
            with tracing() as collector:
                registry.make_schedule(schedule, spec.type_env()).apply(spec.expr())
        hits = sum(collector.rule_fired.values())
        run.add("elevate.rule_hits", hits)
        run.add("elevate.rule_attempts", hits + sum(collector.rule_failed.values()))
        run.add("elevate.strategy_calls", sum(collector.strategy_calls.values()))
    attempts = run.layers.get("elevate.rule_attempts", 0)
    if attempts:
        run.layers["elevate.hit_ratio"] = run.layers["elevate.rule_hits"] / attempts
    front = run.layers.pop("bench.front_ms", 0.0)
    layers = run.layers.pop("bench.layers_ms", 0.0)
    if front:
        run.layers["bench.layers_share"] = layers / front
        # not under --smoke: there the engine's fixed ~15 ms per request is
        # 7% of a 0.2 s compile and gcc's jitter decides the rest
        if layers < 0.9 * front and not run.smoke:
            run.ledger.fail("layers", f"layer spans cover {layers / front:.0%} of the front door")
