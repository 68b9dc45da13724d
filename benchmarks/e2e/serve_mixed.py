"""Workload ``serve-mixed``: hits must stay fast while misses are built.

Open loop.  Warm requests arrive on a fixed schedule at ``RATE`` per
second through ``repro.serve.Server(workers=2)`` over a store that
set-up prebuilt ahead of time; each is ``await server.submit(request)``
then ``pipeline.run`` on a 64x64 image.  Latency runs from the time the
request was *due* to its verified output, so a stalled generator or a
full queue counts against the request.

Two phases, each on a fresh ``Engine`` over the same store:

* ``quiet`` — warm traffic only.  The queueing defect of ROADMAP item 2
  cannot show here: this is the phase a fix must leave alone.
* ``burst`` — the same warm traffic plus, half a second in, four
  never-seen sobel-magnitude keys at once.  They occupy both workers
  for two rounds of builds while warm requests queue behind them.

The generator is the event loop plus one thread that runs kernels.
"""

from __future__ import annotations

import asyncio
import functools
import random
import time
from concurrent.futures import ThreadPoolExecutor

import zoo
from catalog import SERVE_COLD_PIPELINE, SERVE_PHASES, SERVE_WARM_PIPELINES
from harness import Arrival, Run, fixed_schedule, open_loop, percentile, tail

RATE = 300.0
QUIET_SHARE = 0.4
BURST_AT_S = 0.5
BURST_KEYS = 4
ZIPF_S = 1.1
#: The gated percentile of each phase.  p99 has its ten samples beyond
#: it (n >= 1200), but a quiet phase here sees one to three stalls of
#: 30-50 ms (the host descheduling the VM), each hitting ~15 consecutive
#: requests, and between them GIL hand-offs of up to one 5 ms switch
#: interval.  Over ten runs the quiet phase's p99 spreads 0.56, p95 0.44,
#: p90 0.19, p50 0.08: only the median can hold a bound of 25%.  The
#: burst phase is a ramp set by build time, steady at any percentile.
#: p99, by the ten-beyond rule, stays per layer as ``warm_ms_tail``.
GATE_PERCENTILE = {"quiet": 50.0, "burst": 90.0}
WARM_CHUNK = 4
WARM_SIZES = {"n": 64, "m": 64}
COLD_SIZES = {"n": 128, "m": 64}
COLD_GRID = [
    {"schedule": s, "chunk": c, "vec": v}
    for s in ("cbuf", "cbuf-par")
    for c in (8, 16, 32, 64)
    for v in (4, 8)
]


def run(run: Run) -> dict:
    from repro.serve import prebuild, zoo_kernel_requests

    def build():
        store = run.tmp("store")
        named = zoo_kernel_requests(
            backends=("c",), pipelines=SERVE_WARM_PIPELINES, chunk=WARM_CHUNK
        )
        manifest = prebuild(store, named)
        cases = zoo.Cases(run.seed)
        warm = []
        for (name, request), built in zip(named, manifest["kernels"]):
            options = request.options
            case = cases.make(options["pipeline"], options["schedule"], WARM_SIZES)
            warm.append((request, case))
            if built["cache"] != "miss":
                run.ledger.fail(f"{name}#prebuild", f"expected a miss, got {built['cache']}")
        cold = []
        for grid in random.Random(run.seed).sample(COLD_GRID, BURST_KEYS):
            case = cases.make(SERVE_COLD_PIPELINE, grid["schedule"], COLD_SIZES)
            cold.append((zoo.request(SERVE_COLD_PIPELINE, **grid), case))
        return store, warm, cold

    store, warm, cold = run.setup(build)
    rng = random.Random(run.seed + 1)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(warm))]

    results = {}
    for phase, seconds in zip(
        SERVE_PHASES, (run.seconds * QUIET_SHARE, run.seconds * (1 - QUIET_SHARE))
    ):
        plan = {}
        arrivals = []
        for i, due in enumerate(fixed_schedule(RATE, seconds)):
            op = f"{phase}.warm#{i}"
            plan[op] = rng.choices(warm, weights)[0]
            arrivals.append(Arrival(op, due))
        if phase == "burst":
            for i, pair in enumerate(cold):
                op = f"{phase}.cold#{i}"
                plan[op] = pair
                arrivals.append(Arrival(op, BURST_AT_S))
        arrivals.sort(key=lambda a: a.due)
        results[phase] = asyncio.run(_phase(run, phase, store, plan, arrivals))

    run.details["percentile"] = {p: r["tail_p"] for p, r in results.items()}
    run.details["warm_ms"] = {p: r["warm_ms"] for p, r in results.items()}
    run.details["cold_ms"] = results["burst"]["cold_ms"]
    if run.trace and results["burst"]["cold_ms"]:
        run.layers["serve.cold_ms_p50"] = percentile(results["burst"]["cold_ms"], 50)
    return {
        "primary_ms": results["burst"]["gate_ms"],
        "secondary_ms": results["quiet"]["gate_ms"],
    }


async def _phase(run: Run, phase: str, store, plan: dict, arrivals: list) -> dict:
    from repro.engine import Engine
    from repro.observe import metrics_registry, reset_registry
    from repro.serve import Server

    reset_registry()
    loop = asyncio.get_running_loop()
    statuses: dict[str, str] = {}
    submit_ms: list[float] = []
    began = time.perf_counter()
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="e2e-run") as runner:
        async with Server(Engine(cache_dir=store), workers=2, max_queue=4096) as server:

            async def one(arrival: Arrival):
                request, case = plan[arrival.op]
                with run.span("op", arrival.op):
                    with run.span("serve.submit") as span:
                        pipeline = await server.submit(request)
                    with run.span("pipeline.run"):
                        out = await loop.run_in_executor(
                            runner,
                            functools.partial(
                                pipeline.run, sizes=case.sizes, threads=1, **case.inputs
                            ),
                        )
                statuses[arrival.op] = pipeline.cache_status
                if span is not None and ".warm#" in arrival.op:
                    submit_ms.append(span.ms)
                reason = zoo.frame_error(run, case, out)
                if reason:
                    raise ValueError(reason)

            await open_loop(arrivals, one)
            served = server.to_dict()
    wall = time.perf_counter() - began

    warm_ms, cold_ms = [], []
    for a in arrivals:
        cold = ".cold#" in a.op
        reason = a.error
        if reason is None and cold != (statuses[a.op] == "miss"):
            reason = f"cache status {statuses[a.op]}"
        if run.ledger.check(a.op, reason):
            (cold_ms if cold else warm_ms).append(a.latency_ms)
    if not warm_ms:
        raise RuntimeError(f"no warm request succeeded in {phase}: {run.ledger.failures[:3]}")
    tail_p, tail_ms = tail(warm_ms)
    gate_ms = percentile(warm_ms, GATE_PERCENTILE[phase])

    if run.trace:
        reg = metrics_registry()
        wait = reg.histogram("serve.wait_ms")
        hit = reg.histogram("engine.compile.latency_ms", cache="hit-memory")
        layers = run.layers
        layers[f"serve.warm_ms_p50.{phase}"] = percentile(warm_ms, 50)
        layers[f"serve.warm_ms_p90.{phase}"] = percentile(warm_ms, 90)
        layers[f"serve.warm_ms_tail.{phase}"] = tail_ms
        layers[f"serve.wait_ms_p50.{phase}"] = wait.quantile(0.5)
        layers[f"serve.wait_ms_p99.{phase}"] = wait.quantile(0.99)
        layers[f"serve.compile_ms_p50.{phase}"] = reg.histogram(
            "serve.compile_ms", cache="hit-memory"
        ).quantile(0.5)
        layers[f"serve.self_ms_p50.{phase}"] = (
            percentile(submit_ms, 50) - wait.quantile(0.5) - hit.quantile(0.5)
        )
        layers[f"serve.queue_high_water.{phase}"] = served["queue_high_water"]
        layers[f"serve.achieved_rps.{phase}"] = (len(warm_ms) + len(cold_ms)) / wall
        layers[f"bench.gen_late_ms_p99.{phase}"] = percentile([a.late_ms for a in arrivals], 99)
        run.add("serve.rejected", served["rejected"])
        run.add("serve.deadline_exceeded", served["deadline_exceeded"])
        run.add("serve.coalesced", reg.counter("engine.compile.coalesced").value)
        for status in ("miss", "hit-memory", "hit-disk"):
            run.add(f"engine.requests.{status}", sum(s == status for s in statuses.values()))
            seen = reg.histogram("engine.compile.latency_ms", cache=status)
            if seen.count:
                run.observe(f"engine.front_ms.{status}", seen.quantile(0.5))
    return {
        "tail_p": tail_p,
        "gate_ms": gate_ms,
        "warm_ms": warm_ms,
        "cold_ms": cold_ms,
    }
