"""Parallel batch execution: fan a list of inputs across worker pools.

A :class:`BatchRunner` executes one :class:`~repro.engine.pipeline.
CompiledPipeline` over many input items concurrently.  The pool flavor
is the backend's ``BATCH_POOL`` (see :data:`repro.exec.BACKEND_TABLE`):
a **process** pool ships the pickled cache entry to each worker, which
calls the backend's ``run``; a **thread** pool calls ``pipeline.run`` in
each thread.  Either way the outputs are bit-identical to a sequential
run.  Any backend may run on threads or sequentially, but forcing
``mode="process"`` on a backend whose pool is not ``"process"`` raises
``ValueError``.

Pool setup failures (restricted sandboxes without ``fork``) degrade to
sequential execution rather than erroring; ``BatchResult.mode`` records
what actually ran.

Observability: thread-pool work items are submitted through
``contextvars.copy_context()``, so the active :class:`~repro.observe.
core.Observer` *and* the open ``engine.batch`` span propagate into the
workers — each item records its own ``engine.batch.item`` span (with the
worker's thread id).  Process-pool workers run in another interpreter;
their measured wall times are aggregated back into the parent observer
as pre-timed spans, so the number of ``engine.batch.item`` spans always
equals the batch size regardless of pool flavor.  Item counts,
latencies and batch throughput land in the process-wide metrics
registry (``engine.batch.*``, see :mod:`repro.observe.metrics`).
"""

from __future__ import annotations

import contextvars
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.exec import BACKEND_TABLE
from repro.observe.context import ensure_request
from repro.observe.core import Span, active, span
from repro.observe.metrics import inc, observe_value, set_gauge

__all__ = ["BatchResult", "BatchRunner", "DEFAULT_MAX_WORKERS"]

#: Upper bound on auto-selected pool sizes (small batches stay small).
DEFAULT_MAX_WORKERS = 8


def _run_item(
    run, entry, sizes: Mapping[str, int], inputs: Mapping[str, np.ndarray]
) -> tuple[np.ndarray, float]:
    """Process-pool worker: execute one item through a backend's ``run``.

    Module-level so it pickles under every multiprocessing start method.
    Runs under :func:`repro.exec.parallel.batch_worker_scope`, so nested
    ``PARALLEL`` loops degrade to sequential instead of oversubscribing
    the cores the pool already owns.
    """
    from repro.exec.parallel import batch_worker_scope

    start = time.perf_counter()
    with batch_worker_scope():
        out = run(entry, None, sizes, inputs, None)
    return out, (time.perf_counter() - start) * 1e3


@dataclass
class BatchResult:
    """Per-item outputs plus aggregate timing for one batch run."""

    outputs: list[np.ndarray]
    item_wall_ms: list[float]
    total_wall_ms: float
    workers: int
    mode: str  # "process" | "thread" | "sequential"
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.outputs)

    @property
    def throughput_items_per_s(self) -> float:
        """Completed items per wall-clock second."""
        if self.total_wall_ms <= 0:
            return float("inf")
        return len(self.outputs) / (self.total_wall_ms / 1e3)

    def to_dict(self) -> dict:
        """JSON-ready summary (outputs omitted) for the run report."""
        return {
            "items": len(self.outputs),
            "workers": self.workers,
            "mode": self.mode,
            "total_wall_ms": round(self.total_wall_ms, 3),
            "mean_item_ms": round(
                float(np.mean(self.item_wall_ms)) if self.item_wall_ms else 0.0, 3
            ),
            "throughput_items_per_s": round(self.throughput_items_per_s, 3),
            **self.meta,
        }


class BatchRunner:
    """Fans a list of input dicts across workers for one compiled pipeline.

    ``mode`` forces a pool flavor (``"process"``, ``"thread"`` or
    ``"sequential"``); by default it is the backend's ``BATCH_POOL``, as
    described in the module docstring.
    """

    def __init__(self, pipeline, workers: int | None = None, mode: str | None = None):
        self.pipeline = pipeline
        self.workers = workers
        if mode not in (None, "process", "thread", "sequential"):
            raise ValueError(f"unknown batch mode {mode!r}")
        self.backend = BACKEND_TABLE[pipeline.backend]
        if mode == "process" and self.backend.BATCH_POOL != "process":
            raise ValueError(
                f"backend {pipeline.backend!r} does not run in processes "
                f"(its batch pool is {self.backend.BATCH_POOL!r})"
            )
        self.mode = mode

    def _pool_size(self, n_items: int) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        return max(1, min(n_items, os.cpu_count() or 1, DEFAULT_MAX_WORKERS))

    def run(
        self,
        items: Sequence[Mapping[str, np.ndarray]],
        sizes: Mapping[str, int] | None = None,
    ) -> BatchResult:
        """Execute every input dict in ``items``; order is preserved.

        ``sizes`` overrides the pipeline's default size bindings for the
        whole batch (items share one compiled artifact, hence one shape).
        """
        items = list(items)
        sizes = self.pipeline.resolve_run_sizes(sizes)
        mode = self.mode or self.backend.BATCH_POOL
        workers = self._pool_size(len(items))
        if workers == 1 or len(items) <= 1:
            mode = "sequential"
        start = time.perf_counter()
        request = getattr(self.pipeline, "request", None)
        with ensure_request(getattr(request, "request_id", None)), span(
            "engine.batch", program=self.pipeline.program.name, mode=mode, workers=workers
        ):
            outputs, item_ms, mode, workers = self._execute(items, sizes, mode, workers)
        total_ms = (time.perf_counter() - start) * 1e3
        result = BatchResult(
            outputs=outputs,
            item_wall_ms=item_ms,
            total_wall_ms=total_ms,
            workers=workers,
            mode=mode,
        )
        inc("engine.batch.runs", mode=mode)
        inc("engine.batch.items", len(items), mode=mode)
        for ms in item_ms:
            observe_value("engine.batch.item_ms", ms, mode=mode)
        set_gauge("engine.batch.last_throughput_items_per_s", result.throughput_items_per_s)
        set_gauge("engine.batch.last_workers", workers)
        return result

    # -- execution flavors ----------------------------------------------

    def _execute(self, items, sizes, mode: str, workers: int):
        if mode == "process":
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    outputs, item_ms = self._map_process(pool, items, sizes)
                return outputs, item_ms, mode, workers
            except (OSError, PermissionError, BrokenPipeError):
                mode = "sequential"  # no subprocess support here; degrade
        if mode == "thread":
            try:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    outputs, item_ms = self._map_inline(pool, items, sizes)
                return outputs, item_ms, mode, workers
            except (OSError, PermissionError):
                mode = "sequential"
        outputs: list[np.ndarray] = []
        item_ms: list[float] = []
        for index, inputs in enumerate(items):
            t0 = time.perf_counter()
            with span("engine.batch.item", index=index, mode="sequential"):
                outputs.append(self.pipeline.run(sizes=sizes, **inputs))
            item_ms.append((time.perf_counter() - t0) * 1e3)
        return outputs, item_ms, "sequential", 1

    def _map_process(self, pool: Executor, items, sizes):
        run, entry = self.backend.run, self.pipeline._entry
        futures = [pool.submit(_run_item, run, entry, dict(sizes), item) for item in items]
        results = [f.result() for f in futures]
        obs = active()
        if obs is not None:
            # The workers live in another process: re-materialize their
            # measured wall times as pre-timed spans on the parent.
            for index, (_, ms) in enumerate(results):
                obs.attach(
                    Span(
                        "engine.batch.item",
                        duration_ms=ms,
                        meta={"index": index, "mode": "process"},
                    )
                )
        return [out for out, _ in results], [ms for _, ms in results]

    def _map_inline(self, pool: Executor, items, sizes):
        from repro.exec.parallel import batch_worker_scope

        def one(index, inputs):
            t0 = time.perf_counter()
            # batch_worker_scope: batch-level parallelism wins; nested
            # PARALLEL loops inside the item run sequentially (thread
            # pins degrade to 1) instead of oversubscribing the pool.
            with batch_worker_scope(), span(
                "engine.batch.item", index=index, mode="thread"
            ):
                out = self.pipeline.run(sizes=sizes, **inputs)
            return out, (time.perf_counter() - t0) * 1e3

        # copy_context() per item carries the active observer and the
        # open engine.batch span into the pool thread.
        futures = [
            pool.submit(contextvars.copy_context().run, one, index, inputs)
            for index, inputs in enumerate(items)
        ]
        results = [f.result() for f in futures]
        return [out for out, _ in results], [ms for _, ms in results]
