"""Mixed cold/warm load testing of the compile service.

The serving claim worth gating is not "the server responds" but "AOT
warm-path latency beats cold JIT by orders of magnitude, under
concurrency, with admission control on".  :func:`run_loadtest` measures
exactly that:

* **warm traffic** — requests for AOT-prebuilt kernels (see
  :mod:`repro.serve.aot`), submitted concurrently through a
  :class:`~repro.serve.server.Server`; each response's pipeline is then
  executed once on a small image.  The compile path must be all cache
  hits; the measured *run* latency is the steady-state serving cost.
* **cold traffic** — requests whose cache keys cannot exist yet
  (schedule variants parameterized off the prebuilt grid), measuring
  the full JIT tax: queue wait + rewrite + typecheck + lower (+ C
  compile) + first run.

Results condense into trajectory cells ``serve|p50|...`` / ``serve|p99|
...`` (milliseconds) appended to ``BENCH_trajectory.json`` next to the
``fig8``/``wall|``/``tuned|`` families.  Like ``wall|``, the ``serve|``
family is *informational* in ``tools/bench_compare.py`` unless
``--gate-serve`` — measured latencies on shared CI runners are noisy —
but the loadtest itself enforces the structural invariant
``p99(aot_warm_run) < p99(cold_jit)`` whenever both sides were sampled.

``tools/loadtest.py`` is the CLI.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine.pipeline import Engine
from repro.engine.request import CompileRequest
from repro.serve.aot import harris_kernel_requests
from repro.serve.server import DeadlineExceeded, Server, ServerBusy

__all__ = ["LoadtestResult", "percentile", "run_loadtest", "serve_cells"]

#: Image height/width used for the measured runs (small on purpose: the
#: cell measures serving overhead + kernel dispatch, not pixel count).
#: The inner extent (height-4 = 24) is a multiple of every chunk/strip
#: combination in the AOT grid and the cold-traffic generator.
RUN_HEIGHT = 28
RUN_WIDTH = 28


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; ``nan`` if empty."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class LoadtestResult:
    """Latency samples and admission outcomes of one loadtest run."""

    cold_jit_ms: list[float] = field(default_factory=list)
    warm_compile_ms: list[float] = field(default_factory=list)
    aot_warm_run_ms: list[float] = field(default_factory=list)
    rejected: int = 0
    deadline_exceeded: int = 0
    warm_cache_statuses: dict = field(default_factory=dict)
    server: dict = field(default_factory=dict)

    def cells(self) -> dict[str, float]:
        """The ``serve|`` trajectory cells (only sampled families)."""
        return serve_cells(self)

    def check(self) -> list[str]:
        """Structural-invariant violations (empty = healthy run).

        * warm compiles must all be cache hits (the AOT store really was
          warm);
        * AOT-warm p99 run latency must beat cold-JIT p99 end-to-end
          latency (the point of prebuilding).
        """
        problems = []
        builds = self.warm_cache_statuses.get("miss", 0)
        if builds:
            problems.append(
                f"warm traffic triggered {builds} build(s); AOT store was cold"
            )
        if self.cold_jit_ms and self.aot_warm_run_ms:
            cold_p99 = percentile(self.cold_jit_ms, 0.99)
            warm_p99 = percentile(self.aot_warm_run_ms, 0.99)
            if not warm_p99 < cold_p99:
                problems.append(
                    f"AOT-warm p99 run latency {warm_p99:.3f}ms is not below "
                    f"cold-JIT p99 {cold_p99:.3f}ms"
                )
        return problems

    def to_dict(self) -> dict:
        """JSON-ready summary (CLI output)."""
        return {
            "cells": self.cells(),
            "samples": {
                "cold_jit": len(self.cold_jit_ms),
                "warm_compile": len(self.warm_compile_ms),
                "aot_warm_run": len(self.aot_warm_run_ms),
            },
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "warm_cache_statuses": dict(self.warm_cache_statuses),
            "server": self.server,
        }


def serve_cells(result: LoadtestResult) -> dict[str, float]:
    """Render a result as ``serve|<quantile>|<family>`` trajectory cells."""
    cells: dict[str, float] = {}
    families = (
        ("cold_jit_ms", result.cold_jit_ms),
        ("warm_compile_ms", result.warm_compile_ms),
        ("aot_warm_run_ms", result.aot_warm_run_ms),
    )
    for family, samples in families:
        if not samples:
            continue
        for quant, qval in (("p50", 0.5), ("p99", 0.99)):
            cells[f"serve|{quant}|{family}"] = round(percentile(samples, qval), 6)
    return cells


def _cold_requests(count: int, backend: str = "python") -> list[CompileRequest]:
    """``count`` requests whose keys the AOT grid cannot contain.

    Cold keys are Harris cbuf kernels at chunk sizes the prebuilt set
    never uses (the builder options are part of the cache key), so a
    loadtest against a warm store still measures true JIT latency.  They
    address the registry's ``"zoo"`` builder, i.e. are plain data, so a
    store-backed server builds them in child processes.
    """
    # chunks divide the loadtest image's inner height (24) but avoid the
    # AOT grid's chunk (4); past the chunk cycle, an explicit thread pin
    # (part of the cache key) keeps minting fresh cold keys.
    chunks = (6, 8, 12, 24)
    requests = []
    for i in range(count):
        chunk = chunks[i % len(chunks)]
        threads = None if i < len(chunks) else 2 + i // len(chunks)
        requests.append(
            CompileRequest(
                source="zoo",
                options={"pipeline": "harris", "schedule": "cbuf", "chunk": chunk},
                backend=backend,
                threads=threads,
            )
        )
    return requests


async def _drive(
    server: Server,
    result: LoadtestResult,
    warm_requests: list[CompileRequest],
    cold_requests: list[CompileRequest],
    run_sizes: dict,
    inputs: dict,
    deadline_s: float | None,
) -> None:
    async def one_warm(request: CompileRequest) -> None:
        start = time.perf_counter()
        try:
            pipeline = await server.submit(request, deadline_s=deadline_s)
        except ServerBusy:
            result.rejected += 1
            return
        except DeadlineExceeded:
            result.deadline_exceeded += 1
            return
        result.warm_compile_ms.append((time.perf_counter() - start) * 1e3)
        status = pipeline.cache_status
        result.warm_cache_statuses[status] = (
            result.warm_cache_statuses.get(status, 0) + 1
        )
        run_start = time.perf_counter()
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: pipeline.run(sizes=run_sizes, **inputs)
        )
        result.aot_warm_run_ms.append((time.perf_counter() - run_start) * 1e3)

    async def one_cold(request: CompileRequest) -> None:
        start = time.perf_counter()
        try:
            pipeline = await server.submit(request, deadline_s=deadline_s)
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pipeline.run(sizes=run_sizes, **inputs)
            )
        except ServerBusy:
            result.rejected += 1
            return
        except DeadlineExceeded:
            result.deadline_exceeded += 1
            return
        result.cold_jit_ms.append((time.perf_counter() - start) * 1e3)

    # interleave cold and warm so they contend for the same queue/workers
    tasks = [one_cold(req) for req in cold_requests]
    tasks += [one_warm(req) for req in warm_requests]
    await asyncio.gather(*tasks)


def run_loadtest(
    cache_dir: Path | str,
    warm: int = 32,
    cold: int = 4,
    workers: int = 4,
    max_queue: int = 256,
    deadline_s: float | None = None,
    backend: str = "python",
    seed: int = 0,
) -> LoadtestResult:
    """Hammer a fresh server over the AOT store at ``cache_dir``.

    ``warm`` requests cycle through the prebuilt Harris kernel set (the
    store must have been populated by :func:`repro.serve.aot.prebuild`
    for the warm path to be hit-only); ``cold`` requests force unique
    JIT builds.  A new engine is created over ``cache_dir`` — the warm
    path therefore exercises the real disk tier, exactly like a serving
    process that just booted.
    """
    from repro.image import synthetic_rgb

    engine = Engine(cache_dir=cache_dir)
    warm_pool = [req for _, req in harris_kernel_requests(backends=(backend,))]
    warm_requests = [warm_pool[i % len(warm_pool)] for i in range(warm)]
    cold_requests = _cold_requests(cold, backend=backend)
    img = synthetic_rgb(RUN_HEIGHT, RUN_WIDTH, seed=seed)
    run_sizes = {"n": RUN_HEIGHT - 4, "m": RUN_WIDTH - 4}
    result = LoadtestResult()

    async def main() -> None:
        async with Server(
            engine, max_queue=max_queue, workers=workers
        ) as server:
            await _drive(
                server,
                result,
                warm_requests,
                cold_requests,
                run_sizes,
                {"rgb": img},
                deadline_s,
            )
            result.server = server.to_dict()

    asyncio.run(main())
    return result
