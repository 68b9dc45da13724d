"""The asyncio compile server: cache hits at once, misses built out of the way.

A :class:`Server` is a front door, not a network endpoint: callers
``await server.submit(request)`` and get back the same
:class:`~repro.engine.pipeline.CompiledPipeline` the library API
returns.  (An HTTP framing would be a thin codec on top; the admission
semantics live here so every transport inherits them.)

Admission model — a cache hit never waits behind a miss:

* **Hits bypass the queue.** :meth:`Server.submit` first probes the
  engine's cache (memory tier, then disk) on the event loop
  (:meth:`~repro.engine.pipeline.Engine.lookup`).  A hit is returned at
  once: it takes no queue slot and no worker, and can be neither
  refused nor timed out.
* **Bounded queue for misses.** At most ``max_queue`` misses wait; an
  arrival beyond that is rejected *immediately* with
  :class:`ServerBusy` (429-style) instead of growing an unbounded
  backlog.
* **Build slots.** ``workers`` threads drain the queue through
  ``Engine.compile_request``, so at most ``workers`` builds run at
  once; the engine's singleflight layer coalesces duplicates of a key
  onto one build (the followers report ``"coalesced"``).
* **Where a miss is built** is decided by one rule,
  :func:`builds_out_of_process`: a plain-data request (no live
  ``strategy`` object) on an engine with a disk store is built by a
  short-lived child interpreter at lowered CPU priority
  (:data:`BUILD_NICE`), which publishes into the store — whose per-key
  build lock elects one builder across processes — and exits; the
  worker thread then loads the artifact.  Any other miss is built in
  the worker thread.  A child that runs past :data:`BUILD_TIMEOUT_S`
  is killed and the request fails with :class:`BuildTimeout`.
* **Per-request deadlines.** A miss carries a deadline (explicit or the
  server default); if it is still queued — or its build is still
  running — when the deadline passes, the *caller* gets
  :class:`DeadlineExceeded` right then.  The build (or build child) is
  not cancelled: it completes and populates the shared cache, so the
  retry that follows a deadline is a warm hit.

Builds run in a child because a build in a thread holds the GIL for
most of its duration, and every hit on the event loop then waits for
it at each bytecode switch; a child at low priority leaves the parent's
interpreter and, on a small host, its cores to the hits.
:meth:`Server.stop` returns only after every build it started — and so
every child — has finished and been reaped.

Everything is measured: ``serve.requests`` / ``serve.rejected`` /
``serve.deadline_exceeded`` / ``serve.deadline.salvaged`` /
``serve.completed`` / ``serve.failed`` counters, a ``serve.queue_depth``
gauge and ``serve.wait_ms`` / ``serve.compile_ms`` histograms in
:mod:`repro.observe.metrics` (a hit records a wait of 0 and its probe
time) — plus, per request, a ``serve.probe`` span, a ``serve.request``
span tree for a miss, and a structured event trail (admission,
queueing, build child spawn/exit, deadline, completion) in
:mod:`repro.observe.events`, all keyed by the request's ``request_id``.

Observability propagation: :meth:`Server.submit` captures
``contextvars.copy_context()`` at admission and the worker runs the
compile *inside* that captured context, so an :class:`~repro.observe.
core.Observer` active in the submitting coroutine sees the engine's
spans from the worker thread (``loop.run_in_executor`` alone does not
propagate context variables — that was a silent attribution hole).
"""

from __future__ import annotations

import asyncio
import contextvars
import pickle
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.pipeline import CompiledPipeline, Engine, default_engine
from repro.engine.request import CompileRequest
from repro.observe.context import request_scope
from repro.observe.core import span
from repro.observe.events import emit
from repro.observe.metrics import inc, observe_value, set_gauge

__all__ = [
    "Server",
    "ServerError",
    "ServerBusy",
    "DeadlineExceeded",
    "BuildFailed",
    "BuildTimeout",
    "builds_out_of_process",
]

#: ``os.nice`` increment of a build child.  Builds are background work,
#: hits foreground: under a burst of cold keys on a 2-core VM, warm p90
#: was 118-469 ms with children at the parent's priority and 3-90 ms at
#: nice 10 or 19 (the two measured alike).
BUILD_NICE = 10

#: Wall-clock limit of one build child.  The slowest zoo kernel builds
#: in under 1 s plus ~0.4 s of interpreter start on a 2-core VM with
#: gcc 12; the compiler itself is bounded by
#: :data:`repro.exec.cbridge.GCC_TIMEOUT_S`.
BUILD_TIMEOUT_S = 180.0

#: Trailing lines of a failed child's stderr kept in the error: room for
#: a traceback ending in a C compiler error with its own diagnostics.
CHILD_STDERR_LINES = 40

#: The program a build child runs: it lowers its priority by ``argv[2]``
#: before anything else (importing ``repro`` is ~0.4 s of CPU), puts
#: the parent's ``repro`` first on the path (``argv[1]``, since it may
#: not be on ``PYTHONPATH``), then :func:`_build_child` does the work.
_CHILD_MAIN = (
    "import os, sys; os.nice(int(sys.argv[2])); sys.path.insert(0, sys.argv[1]); "
    "from repro.serve.server import _build_child; _build_child()"
)


class ServerError(RuntimeError):
    """Base class of serve-layer failures; carries an HTTP-style status."""

    status = 500


class ServerBusy(ServerError):
    """Admission rejected: the bounded queue is full (429-style)."""

    status = 429


class DeadlineExceeded(ServerError):
    """The request's deadline passed before its pipeline was ready (504-style)."""

    status = 504


class BuildFailed(ServerError):
    """A build child exited without publishing; carries its stderr tail."""


class BuildTimeout(BuildFailed):
    """A build child ran past :data:`BUILD_TIMEOUT_S` and was killed."""


def builds_out_of_process(engine: Engine, request: CompileRequest) -> bool:
    """Whether a miss of ``request`` is built in a child process.

    The one rule: a plain-data request (no live ``strategy`` object,
    which does not pickle) on an engine with a disk store (the only way
    a child's artifact comes back).  Everything else is built in the
    worker thread.
    """
    return request.strategy is None and engine.cache.store is not None


def _build_child() -> None:
    """Body of one build child (already at low priority, see :data:`_CHILD_MAIN`).

    Reads ``(request, key, store root, max entries, max bytes)`` pickled
    by the parent from stdin, with the request's cflags already resolved
    to ``key``, compiles through an engine over that store (publishing
    the artifact under the store's build lock) and prints the cache
    status as its last line.
    """
    request, key, root, max_entries, max_bytes = pickle.load(sys.stdin.buffer)
    engine = Engine(cache_dir=root, max_disk_entries=max_entries, max_disk_bytes=max_bytes)
    with request_scope(request_id=request.request_id):
        print(engine.compile_resolved(request, key).cache_status)


@dataclass
class _Ticket:
    """One admitted miss waiting for a worker.

    ``ctx`` is the submitter's context snapshot (observer + request
    scope), taken at admission; the worker runs the compile inside it.
    ``abandoned`` flips when the submitter's deadline fires while the
    build is still running — a later completion is then *salvage*
    (warm-hit-after-504), not a normal completion.
    """

    request: CompileRequest
    future: asyncio.Future
    enqueued_at: float
    deadline_at: float | None
    ctx: contextvars.Context = field(default_factory=contextvars.copy_context)
    abandoned: bool = False


@dataclass
class ServerStats:
    """Aggregate admission counters for one server instance."""

    submitted: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0
    salvaged: int = 0
    completed: int = 0
    failed: int = 0
    queue_high_water: int = 0

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "salvaged": self.salvaged,
            "completed": self.completed,
            "failed": self.failed,
            "queue_high_water": self.queue_high_water,
        }


class Server:
    """An asyncio compile service over one :class:`~repro.engine.pipeline.Engine`.

    Usage::

        async with Server(engine, max_queue=64, workers=4) as server:
            pipeline = await server.submit(request, deadline_s=2.0)
            out = pipeline.run(rgb=img)

    ``max_queue`` bounds the misses waiting for a build slot and
    ``workers`` the builds running at once; hits use neither.
    ``default_deadline_s`` applies to submissions without an explicit
    deadline (``None`` = no deadline).  The server owns a private thread
    pool; the engine — and therefore the cache — may be shared with
    other servers and with direct library callers.
    """

    def __init__(
        self,
        engine: Engine | None = None,
        max_queue: int = 64,
        workers: int = 4,
        default_deadline_s: float | None = None,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.engine = engine if engine is not None else default_engine()
        self.max_queue = max_queue
        self.workers = workers
        self.default_deadline_s = default_deadline_s
        self.stats = ServerStats()
        self._queue: asyncio.Queue[_Ticket | None] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._worker_tasks: list[asyncio.Task] = []

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the server is accepting submissions."""
        return self._queue is not None

    async def start(self) -> "Server":
        """Spin up the worker pool; idempotent."""
        if self.running:
            return self
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"repro-serve-worker-{i}")
            for i in range(self.workers)
        ]
        return self

    async def stop(self) -> None:
        """Drain and shut down: queued requests finish, new ones are refused.

        Returns once every build this server started has finished, so
        every build child it spawned has exited and been reaped.
        """
        if not self.running:
            return
        queue, self._queue = self._queue, None
        for _ in self._worker_tasks:
            await queue.put(None)  # behind every queued miss, even in a full queue
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        self._executor.shutdown(wait=True)
        self._executor = None

    async def __aenter__(self) -> "Server":
        """``async with Server(...)`` starts the worker pool."""
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        """Leaving the context drains and stops the server."""
        await self.stop()

    # -- the front door ---------------------------------------------------

    async def submit(
        self, request: CompileRequest, deadline_s: float | None = None
    ) -> CompiledPipeline:
        """Answer one request; resolves to its compiled pipeline.

        A cache hit returns without queueing.  A miss raises
        :class:`ServerBusy` when the queue is full,
        :class:`DeadlineExceeded` when the (explicit or default)
        deadline passes first, :class:`BuildFailed` when its build
        child fails, and re-raises any in-thread compile error.
        """
        if not isinstance(request, CompileRequest):
            raise TypeError(
                f"Server.submit takes a CompileRequest, got {type(request).__name__}"
            )
        if not self.running:
            raise ServerError("server is not running (use 'async with Server(...)')")
        with request_scope(request_id=request.request_id), span(
            "serve.probe", request=request.describe()
        ):
            start = time.perf_counter()
            hit = self.engine.lookup(request)
        if hit is not None:
            probe_ms = (time.perf_counter() - start) * 1e3
            self.stats.submitted += 1
            self.stats.completed += 1
            inc("serve.requests")
            inc("serve.completed")
            observe_value("serve.wait_ms", 0.0)
            observe_value("serve.compile_ms", probe_ms, cache=hit.cache_status)
            emit(
                "serve.complete",
                request_id=request.request_id,
                outcome="ok",
                cache=hit.cache_status,
                compile_ms=round(probe_ms, 3),
            )
            return hit
        return await self._admit(request, deadline_s)

    async def _admit(
        self, request: CompileRequest, deadline_s: float | None
    ) -> CompiledPipeline:
        """Queue one miss for a build slot and wait for it under its deadline."""
        deadline_s = deadline_s if deadline_s is not None else self.default_deadline_s
        now = time.perf_counter()
        ticket = _Ticket(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=now,
            deadline_at=(now + deadline_s) if deadline_s is not None else None,
        )
        try:
            self._queue.put_nowait(ticket)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            inc("serve.rejected")
            emit(
                "serve.reject",
                request_id=request.request_id,
                outcome="rejected",
                queue_depth=self.max_queue,
            )
            raise ServerBusy(
                f"queue full ({self.max_queue} waiting); retry with backoff"
            ) from None
        self.stats.submitted += 1
        depth = self._queue.qsize()
        self.stats.queue_high_water = max(self.stats.queue_high_water, depth)
        inc("serve.requests")
        set_gauge("serve.queue_depth", depth)
        emit(
            "serve.admit",
            request_id=request.request_id,
            queue_depth=depth,
            deadline_s=deadline_s,
        )
        try:
            if deadline_s is None:
                return await ticket.future
            # shield: a timeout must not cancel the build — it completes
            # and warms the cache for the caller's retry.
            return await asyncio.wait_for(
                asyncio.shield(ticket.future), timeout=deadline_s
            )
        except asyncio.TimeoutError:
            ticket.abandoned = True
            self.stats.deadline_exceeded += 1
            inc("serve.deadline_exceeded")
            emit(
                "serve.deadline",
                request_id=request.request_id,
                outcome="deadline",
                deadline_s=deadline_s,
            )
            raise DeadlineExceeded(
                f"deadline of {deadline_s:.3f}s exceeded for {request.describe()}"
            ) from None

    # -- workers ----------------------------------------------------------

    def _compile_ticket(self, ticket: _Ticket) -> CompiledPipeline:
        """Run one admitted compile on a worker thread.

        Executed *inside* the ticket's captured context (``ticket.ctx``),
        so the submitter's observer and any outer request scope are
        visible here.  Opens the request scope + the root
        ``serve.request`` span; the engine's ``engine.compile`` span and
        everything below it nest underneath.
        """
        request = ticket.request
        publish = (
            self._build_in_child if builds_out_of_process(self.engine, request) else None
        )
        with request_scope(request_id=request.request_id):
            with span(
                "serve.request",
                request=request.describe(),
                backend=request.backend,
                build="child" if publish is not None else "thread",
            ):
                return self.engine.compile_request(request, publish)

    def _build_in_child(self, request: CompileRequest, key: str) -> str:
        """Build ``request`` under ``key`` in a fresh low-priority
        interpreter that publishes into the engine's store; returns the
        child's cache status.

        Runs on a worker thread, which waits for the child (so the
        executor's shutdown in :meth:`stop` reaps it).  The child reads
        its job from a pipe and writes only to pipes of its own, never
        to this process's stdout/stderr.
        """
        store = self.engine.cache.store
        job = pickle.dumps((request, key, store.root, store.max_entries, store.max_bytes))
        source_root = str(Path(__file__).resolve().parents[2])
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _CHILD_MAIN, source_root, str(BUILD_NICE)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            emit("serve.build.spawn", pid=child.pid, backend=request.backend)
            try:
                out, err = child.communicate(job, timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                emit("serve.build.exit", pid=child.pid, outcome="timeout")
                raise BuildTimeout(
                    f"build child {child.pid} for {request.describe()} ran past "
                    f"{BUILD_TIMEOUT_S:g} s and was killed"
                ) from None
        build_ms = (time.perf_counter() - start) * 1e3
        status = out.decode(errors="replace").split()
        emit(
            "serve.build.exit",
            pid=child.pid,
            outcome="ok" if child.returncode == 0 else "error",
            returncode=child.returncode,
            build_ms=round(build_ms, 3),
        )
        if child.returncode != 0 or not status:
            tail = "\n".join(
                err.decode(errors="replace").splitlines()[-CHILD_STDERR_LINES:]
            )
            raise BuildFailed(
                f"build child {child.pid} for {request.describe()} exited "
                f"{child.returncode}:\n{tail}"
            )
        return status[-1]

    async def _worker(self) -> None:
        queue = self._queue
        loop = asyncio.get_running_loop()
        while True:
            ticket = await queue.get()
            if ticket is None:
                return
            wait_ms = (time.perf_counter() - ticket.enqueued_at) * 1e3
            observe_value("serve.wait_ms", wait_ms)
            set_gauge("serve.queue_depth", queue.qsize())
            emit(
                "serve.dequeue",
                request_id=ticket.request.request_id,
                wait_ms=round(wait_ms, 3),
            )
            if (
                ticket.deadline_at is not None
                and time.perf_counter() >= ticket.deadline_at
            ):
                # expired while queued: don't waste a worker on it (the
                # submitter's wait_for has already fired or is about to).
                emit(
                    "serve.expired_queued",
                    request_id=ticket.request.request_id,
                    outcome="deadline",
                    wait_ms=round(wait_ms, 3),
                )
                if not ticket.future.done():
                    ticket.future.set_exception(
                        DeadlineExceeded(
                            f"deadline passed after {wait_ms:.1f}ms in queue"
                        )
                    )
                continue
            start = time.perf_counter()
            try:
                # ctx.run: propagate the submitter's context variables
                # (observer, request scope) into the executor thread —
                # run_in_executor alone does not.
                pipeline = await loop.run_in_executor(
                    self._executor, ticket.ctx.run, self._compile_ticket, ticket
                )
            except Exception as exc:
                self.stats.failed += 1
                inc("serve.failed")
                emit(
                    "serve.error",
                    request_id=ticket.request.request_id,
                    outcome="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
                if not ticket.future.done():
                    ticket.future.set_exception(exc)
                continue
            compile_ms = (time.perf_counter() - start) * 1e3
            self.stats.completed += 1
            inc("serve.completed")
            observe_value(
                "serve.compile_ms", compile_ms, cache=pipeline.cache_status
            )
            if ticket.abandoned:
                # the submitter already got its 504; the finished build
                # warmed the cache for the retry — record the salvage.
                self.stats.salvaged += 1
                inc("serve.deadline.salvaged")
                emit(
                    "serve.deadline.salvaged",
                    request_id=ticket.request.request_id,
                    outcome="salvaged",
                    cache=pipeline.cache_status,
                    compile_ms=round(compile_ms, 3),
                )
            else:
                emit(
                    "serve.complete",
                    request_id=ticket.request.request_id,
                    outcome="ok",
                    cache=pipeline.cache_status,
                    compile_ms=round(compile_ms, 3),
                )
            if not ticket.future.done():
                ticket.future.set_result(pipeline)

    def to_dict(self) -> dict:
        """JSON-ready server configuration + admission statistics."""
        return {
            "max_queue": self.max_queue,
            "workers": self.workers,
            "default_deadline_s": self.default_deadline_s,
            "running": self.running,
            **self.stats.to_dict(),
            "engine": self.engine.stats(),
        }
