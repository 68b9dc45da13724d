"""The unified compile front door: ``repro.compile(...)`` -> :class:`CompiledPipeline`.

One entry point compiles and runs every program of the reproduction.
It accepts a :class:`~repro.engine.request.
CompileRequest` — the typed request object the serving layer speaks —
or a source plus the request's other fields as keywords, over three
kinds of source:

* a high-level RISE :class:`~repro.rise.expr.Expr` plus an optional
  optimization strategy/:class:`~repro.strategies.schedules.Schedule`;
* an already-lowered :class:`~repro.codegen.ir.ImpProgram`;
* the name ``"zoo"``, whose ``options`` name a registered pipeline and
  one of its schedules (family or baseline, e.g. ``{"pipeline":
  "harris", "schedule": "halide"}``), built by
  :func:`repro.pipelines.registry.build_zoo_program`.

Every compile is content-addressed (see :mod:`repro.engine.hashing`) and
served through an :class:`~repro.engine.cache.EngineCache`: a warm call
touches no rewrite, typecheck or lowering phase at all — the test suite
asserts zero ``lower`` phases on the hit path.  Concurrent cold calls
for the same key are **coalesced**: within a process, follower threads
block on the leader's in-flight build (``engine.compile.coalesced``
counters); across processes sharing a disk store, a per-key build lock
elects exactly one builder and everyone else warm-starts from the
published artifact.  The returned :class:`CompiledPipeline` runs single
inputs (``.run``) or parallel batches (``.run_batch``), exposes the
generated source and reports its own cache provenance via ``.report()``.

Everything backend-specific — key flags, artifacts, execution, batch
pool — is one lookup in :data:`repro.exec.BACKEND_TABLE`.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.codegen.ir import ImpProgram
from repro.engine.batch import BatchResult, BatchRunner
from repro.engine.cache import CacheEntry, EngineCache, ArtifactStore, default_cache_dir
from repro.engine.hashing import (
    cache_key,
    program_fingerprint,
    size_signature,
    strategy_identity,
    structural_hash,
    type_env_signature,
)
from repro.engine.request import CompileRequest
from repro.exec import BACKEND_TABLE
from repro.observe.context import ensure_request
from repro.observe.core import current_span, span
from repro.observe.events import emit
from repro.observe.metrics import inc, observe_value, set_gauge
from repro.rise.expr import Expr

__all__ = [
    "CompiledPipeline",
    "Engine",
    "compile",
    "default_engine",
    "reset_default_engine",
]


class _Flight:
    """One in-flight build that follower threads can wait on.

    ``leader_request_id``/``leader_span_id`` publish the leader's open
    ``engine.compile`` span identity so coalesced followers can link
    their own spans to the build that actually ran (set before the
    ``done`` event, read only after it).
    """

    __slots__ = (
        "done",
        "entry",
        "status",
        "error",
        "leader_request_id",
        "leader_span_id",
    )

    def __init__(self):
        self.done = threading.Event()
        self.entry: CacheEntry | None = None
        self.status: str | None = None
        self.error: BaseException | None = None
        self.leader_request_id: str = ""
        self.leader_span_id: str = ""


class CompiledPipeline:
    """A compiled, cached, runnable pipeline — the engine's user-facing object.

    Obtained from :func:`compile`; wraps one cache entry (the imperative
    program plus backend artifacts) together with the originating
    :class:`~repro.engine.request.CompileRequest`.
    """

    def __init__(
        self,
        engine: "Engine",
        entry: CacheEntry,
        request: CompileRequest,
        cache_status: str,
        compile_ms: float,
        sizes: Mapping[str, int] | None = None,
    ):
        self._engine = engine
        self._entry = entry
        self.request = request
        self.sizes = dict(sizes if sizes is not None else (request.sizes or {}))
        self.cache_status = cache_status
        self.compile_ms = compile_ms
        #: Default thread count for PARALLEL loops (None = resolve per run
        #: from $REPRO_THREADS / $OMP_NUM_THREADS / cpu count).
        self.threads = request.threads

    # -- introspection ---------------------------------------------------

    @property
    def key(self) -> str:
        """The content-address of the underlying artifact."""
        return self._entry.key

    @property
    def program(self) -> ImpProgram:
        """The compiled imperative program (symbolic sizes intact)."""
        return self._entry.program

    @property
    def backend(self) -> str:
        """Execution backend: ``"python"`` or ``"c"``."""
        return self._entry.backend

    @property
    def source(self) -> str:
        """The generated source: C for the C backend, Python for Python.

        The Python backend specializes generated code to concrete sizes,
        so default ``sizes`` must be bound (pass ``sizes=`` to
        :func:`compile` or use :meth:`bind`).
        """
        return BACKEND_TABLE[self.backend].source(self._entry, self.sizes)

    def report(self) -> dict:
        """Provenance of this handle: the echoed request, cache status,
        key, timings and engine statistics."""
        return {
            "request": self.request.to_dict(),
            "key": self.key,
            "program": self.program.name,
            "backend": self.backend,
            "cache": self.cache_status,
            "compile_ms": round(self.compile_ms, 3),
            "engine": self._engine.stats(),
        }

    def bind(self, sizes: Mapping[str, int]) -> "CompiledPipeline":
        """A new handle over the same artifact with merged default sizes."""
        merged = {**self.sizes, **dict(sizes)}
        return CompiledPipeline(
            self._engine,
            self._entry,
            self.request,
            self.cache_status,
            self.compile_ms,
            sizes=merged,
        )

    def resolve_run_sizes(self, sizes: Mapping[str, int] | None) -> dict[str, int]:
        """Default sizes merged with a per-call override, with the
        program's leftover size constraints solved numerically (so
        inference variables such as chunk counts are bound too)."""
        from repro.codegen.sizes import resolve_sizes

        merged = dict(self.sizes)
        if sizes:
            merged.update(sizes)
        return resolve_sizes(self.program, merged)

    # -- execution -------------------------------------------------------

    def run(
        self,
        sizes: Mapping[str, int] | None = None,
        threads: int | None = None,
        **inputs: np.ndarray,
    ) -> np.ndarray:
        """Execute once on the pipeline's backend; returns the flat output.

        Input buffers are keyword arguments named after the program's
        free identifiers (``pipeline.run(rgb=img)``).  C-contiguous
        float32 inputs of the exact size are read in place and never
        written; others are converted once.  The output is a fresh array
        on every call.  ``threads``
        overrides the pipeline's compile-time thread default for this
        call; both backends resolve it through
        :func:`repro.exec.parallel.effective_threads`.
        """
        from repro.exec.parallel import effective_threads

        # both backends solve the leftover size constraints themselves;
        # the C backend once per size binding, in its call plan
        bound = {**self.sizes, **sizes} if sizes else self.sizes
        nthreads = effective_threads(threads if threads is not None else self.threads)
        start = time.perf_counter()
        with ensure_request(self.request.request_id), span(
            "engine.run",
            program=self.program.name,
            backend=self.backend,
            threads=nthreads,
        ):
            out = BACKEND_TABLE[self.backend].run(
                self._entry, self._engine.cache.store, bound, inputs, nthreads
            )
        inc("engine.runs", backend=self.backend)
        set_gauge("engine.run.threads", nthreads, backend=self.backend)
        observe_value(
            "engine.run.latency_ms",
            (time.perf_counter() - start) * 1e3,
            pipeline=self.key[:12],
            backend=self.backend,
        )
        return out

    def run_batch(
        self,
        items: Sequence[Mapping[str, np.ndarray]],
        workers: int | None = None,
        mode: str | None = None,
        sizes: Mapping[str, int] | None = None,
    ) -> BatchResult:
        """Execute every input dict in ``items`` across parallel workers.

        See :class:`repro.engine.batch.BatchRunner` for pool semantics;
        outputs are bit-identical to a sequential loop over :meth:`run`.
        """
        return BatchRunner(self, workers=workers, mode=mode).run(items, sizes=sizes)

    def __repr__(self) -> str:
        return (
            f"<CompiledPipeline {self.program.name!r} backend={self.backend} "
            f"cache={self.cache_status} key={self.key[:10]}>"
        )


class Engine:
    """A compile cache plus the machinery to fill it.

    Each engine owns one :class:`~repro.engine.cache.EngineCache`
    (memory LRU + optional disk artifact store).  The process-wide
    default engine (see :func:`default_engine`) reads its store location
    from ``$REPRO_CACHE_DIR``; private engines take an explicit
    ``cache_dir`` (tests use a tmpdir) or ``None`` for memory-only.
    ``max_disk_entries`` / ``max_disk_bytes`` bound the disk tier (see
    :meth:`ArtifactStore.enforce_limits`).
    """

    def __init__(
        self,
        cache_dir=None,
        memory_slots: int = 64,
        use_env_cache_dir: bool = False,
        max_disk_entries: int | None = None,
        max_disk_bytes: int | None = None,
    ):
        if cache_dir is None and use_env_cache_dir:
            cache_dir = default_cache_dir()
        store = (
            ArtifactStore(
                cache_dir, max_entries=max_disk_entries, max_bytes=max_disk_bytes
            )
            if cache_dir is not None
            else None
        )
        self.cache = EngineCache(store, memory_slots=memory_slots)
        self._inflight: dict[str, _Flight] = {}
        self._inflight_lock = threading.Lock()

    # -- the front door --------------------------------------------------

    def compile(
        self, source: CompileRequest | Expr | ImpProgram | str, **fields
    ) -> CompiledPipeline:
        """Compile (or fetch from cache) and return a runnable pipeline.

        ``source`` is either a ready-made :class:`CompileRequest` (the
        serving layer's calling convention; passing any field with it
        raises ``TypeError``) or one of the three source kinds, compiled
        as ``CompileRequest(source=source, **fields)``: a RISE expression
        (give ``type_env``, and optionally a ``strategy``/Schedule
        applied before lowering), an already lowered
        :class:`~repro.codegen.ir.ImpProgram`, or ``"zoo"`` (``options``
        name the registered pipeline and schedule).  ``sizes`` binds
        default run-time sizes; it never affects the cache key.

        ``threads`` pins a default thread count for ``PARALLEL`` loops on
        the returned handle; it is keyed (an explicit pin apart from auto
        resolution), and so are the backend's *resolved* flags: for C,
        :func:`repro.exec.cbridge.effective_cflags`, so a sequential
        ``.so`` never serves an OpenMP build (or vice versa), and an
        ``x86-64-v3`` ``.so`` never reaches a host without it.

        Identical concurrent compiles coalesce onto one build: follower
        threads wait for the leader and return ``cache_status ==
        "coalesced"``; across processes the store's build lock elects a
        single builder per key.
        """
        if not isinstance(source, CompileRequest):
            source = CompileRequest(source=source, **fields)
        elif fields:
            raise TypeError(
                f"compile() got a CompileRequest and the fields {sorted(fields)}; "
                "put them in the request (request.replace(...))"
            )
        return self.compile_request(source)

    def compile_request(
        self, request: CompileRequest, publish: Callable[[CompileRequest, str], str] | None = None
    ) -> CompiledPipeline:
        """Serve one :class:`CompileRequest` (see :meth:`compile`).

        Runs inside a request scope keyed by ``request.request_id``
        (opened here for direct callers, inherited untouched when the
        serve layer already activated one), so every span and event the
        compile emits — across singleflight, pool workers and backends —
        carries the same correlation identity.

        ``publish`` moves the build of a miss out of this process: the
        singleflight leader calls ``publish(request, key)`` (with the
        request's effective cflags, and the key they resolved to) instead
        of building, and it must leave the artifact under ``key`` in this
        engine's disk store and return its cache status there (``"miss"``
        when it built, ``"hit-disk"`` when another process had published
        first).  The engine then loads the
        artifact; keying, the cache probe, coalescing and accounting are
        those of an in-process build.
        """
        with ensure_request(request.request_id):
            return self.compile_resolved(*self._keyed(request), publish)

    def lookup(self, request: CompileRequest) -> CompiledPipeline | None:
        """The cache-only half of :meth:`compile_request`.

        A hit (memory, then disk) is returned and accounted exactly as
        :meth:`compile_request` would (``engine.compile.latency_ms`` and
        the ``engine.compile.done`` event, under the request's scope); a
        miss returns ``None`` and counts nothing, so the
        :meth:`compile_request` that builds it counts the one miss.
        """
        with ensure_request(request.request_id):
            request, key = self._keyed(request)
            start = time.perf_counter()
            entry, tier = self.cache.get(key, count_miss=False)
            if entry is None:
                return None
            return self._served(request, key, entry, f"hit-{tier}", start)

    def _keyed(self, request: CompileRequest) -> tuple[CompileRequest, str]:
        """``request`` with its backend's resolved cflags, and its cache key."""
        cflags = BACKEND_TABLE[request.backend].resolve_cflags(request.cflags)
        if cflags != request.cflags:
            request = request.replace(cflags=cflags)
        source, backend = request.source, request.backend
        flags = ",".join(request.cflags)
        tconf = "threads=auto" if request.threads is None else f"threads={request.threads}"
        if isinstance(source, ImpProgram):
            key = cache_key("program", program_fingerprint(source), backend, flags, tconf)
        elif isinstance(source, str):
            opts = json.dumps(dict(request.options), sort_keys=True, default=repr)
            key = cache_key("builder", source, opts, backend, flags, tconf)
        else:
            key = cache_key(
                "expr",
                structural_hash(source),
                strategy_identity(request.strategy),
                type_env_signature(request.type_env),
                size_signature(request.type_env),
                backend,
                flags,
                tconf,
            )
        return request, key

    def _served(
        self, request: CompileRequest, key: str, entry: CacheEntry, status: str, start: float
    ) -> CompiledPipeline:
        """Account one answered compile and wrap it in a handle."""
        elapsed_ms = (time.perf_counter() - start) * 1e3
        observe_value("engine.compile.latency_ms", elapsed_ms, cache=status)
        emit(
            "engine.compile.done",
            key=key,
            outcome="ok",
            cache=status,
            backend=request.backend,
            compile_ms=round(elapsed_ms, 3),
        )
        return CompiledPipeline(self, entry, request, status, elapsed_ms)

    def compile_resolved(
        self,
        request: CompileRequest,
        key: str,
        publish: Callable[[CompileRequest, str], str] | None = None,
    ) -> CompiledPipeline:
        """:meth:`compile_request` for a request whose cflags are already
        resolved, and ``key`` its cache key; call it inside a request scope.

        A serve build child enters here with its parent's resolution, so
        it neither probes the toolchain again nor re-keys the request.
        """
        start = time.perf_counter()
        with span(
            "engine.compile",
            backend=request.backend,
            strategy=strategy_identity(request.strategy),
            threads="auto" if request.threads is None else request.threads,
            cflags=" ".join(request.cflags),
        ) as compile_span:
            try:
                entry, tier = self.cache.get(key)
                if entry is not None:
                    status = f"hit-{tier}"
                else:
                    entry, status = self._build_coalesced(key, request, publish)
            except BaseException as exc:
                compile_span.meta["cache"] = "error"
                emit(
                    "engine.compile.error",
                    key=key,
                    outcome="error",
                    backend=request.backend,
                    error=f"{type(exc).__name__}: {exc}",
                )
                raise
            compile_span.meta["cache"] = status
            compile_span.meta["key"] = key
        return self._served(request, key, entry, status, start)

    # -- internals -------------------------------------------------------

    def _build_coalesced(
        self,
        key: str,
        request: CompileRequest,
        publish: Callable[[CompileRequest, str], str] | None,
    ) -> tuple[CacheEntry, str]:
        """Build ``key`` exactly once per process (and, with a disk
        store, once across processes), coalescing concurrent callers.

        The first caller becomes the *leader* and builds — here, or
        through ``publish`` (see :meth:`compile_request`); followers wait
        on the leader's flight and share its entry (``"coalesced"``).
        """
        with self._inflight_lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = _Flight()
                lead_span = current_span()
                if lead_span is not None:
                    flight.leader_span_id = lead_span.span_id
                    flight.leader_request_id = lead_span.request_id
        if not leader:
            flight.done.wait()
            inc("engine.compile.coalesced")
            follower_span = current_span()
            if follower_span is not None and flight.leader_span_id:
                follower_span.meta["leader_span_id"] = flight.leader_span_id
                follower_span.meta["leader_request_id"] = flight.leader_request_id
            emit(
                "engine.coalesced",
                key=key,
                leader_request_id=flight.leader_request_id or None,
                leader_span_id=flight.leader_span_id or None,
            )
            if flight.error is not None:
                raise flight.error
            return flight.entry, "coalesced"
        try:
            if publish is None:
                entry, status = self._build_here(key, request)
            else:
                status = publish(request, key)
                entry, _ = self.cache.get(key, count_miss=False)
                if entry is None:
                    raise RuntimeError(
                        f"out-of-process build of {request.describe()} left no "
                        f"artifact under key {key[:12]} in the store"
                    )
            if status == "miss":
                inc("engine.compiles", backend=request.backend)
            flight.entry, flight.status = entry, status
            return entry, status
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
            flight.done.set()

    def _build_here(self, key: str, request: CompileRequest) -> tuple[CacheEntry, str]:
        """Build and publish ``key`` in this process.

        Holds the store's per-key build lock for the duration, so a cold
        key compiled by N processes is built by exactly one — everyone
        else re-checks the cache under the lock and finds the published
        artifact (``"hit-<tier>"`` instead of ``"miss"``).
        """
        store = self.cache.store
        build_lock = store.build_lock(key) if store is not None else contextlib.nullcontext()
        with build_lock:
            # another process may have published while we waited
            entry, tier = self.cache.get(key, count_miss=False)
            if entry is not None:
                return entry, f"hit-{tier}"
            emit("engine.build.start", key=key, backend=request.backend)
            build_t0 = time.perf_counter()
            prog = self._build_program(request)
            entry = CacheEntry(
                key=key,
                program=prog,
                backend=request.backend,
                meta={"cflags": list(request.cflags), "threads": request.threads},
            )
            BACKEND_TABLE[request.backend].build(entry, request.cflags)
            self.cache.put(entry)
            emit(
                "engine.build.done",
                key=key,
                outcome="ok",
                backend=request.backend,
                build_ms=round((time.perf_counter() - build_t0) * 1e3, 3),
            )
        return entry, "miss"

    def _build_program(self, request: CompileRequest) -> ImpProgram:
        """Lower one request's source into an :class:`ImpProgram`.

        Each layer opens its own span (``elevate.rewrite`` here or in
        :func:`~repro.pipelines.registry.build_zoo_program`,
        ``codegen.lower`` in :func:`~repro.codegen.lower.compile_program`)
        so a cold compile's span tree shows where the time went.
        """
        source, strategy = request.source, request.strategy
        if isinstance(source, ImpProgram):
            return source
        if isinstance(source, str):
            if source != "zoo":
                raise KeyError(f"no source {source!r}: the only named source is 'zoo'")
            # imported lazily: the registry pulls in every pipeline and baseline
            from repro.pipelines.registry import build_zoo_program

            with span("engine.build", builder=source):
                return build_zoo_program(**dict(request.options or {}))
        program = source
        if strategy is not None:
            with span("elevate.rewrite", strategy=strategy_identity(strategy)):
                program = strategy.apply(program)
        from repro.codegen.lower import compile_program

        name = request.name or "pipeline"
        return compile_program(program, dict(request.type_env or {}), name)

    def stats(self) -> dict:
        """JSON-ready cache statistics (the run report's ``engine.cache``)."""
        return self.cache.to_dict()


# ---------------------------------------------------------------------------
# Module-level default engine + the public compile() function
# ---------------------------------------------------------------------------

_DEFAULT_ENGINE: Engine | None = None


def default_engine() -> Engine:
    """The process-wide engine (created on first use; honors
    ``$REPRO_CACHE_DIR`` for its disk tier)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine(use_env_cache_dir=True)
    return _DEFAULT_ENGINE


def reset_default_engine(cache_dir=None, memory_slots: int = 64) -> Engine:
    """Replace the default engine (tests and CLIs use this to point the
    artifact store at a fresh directory)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = Engine(
        cache_dir=cache_dir, memory_slots=memory_slots, use_env_cache_dir=cache_dir is None
    )
    return _DEFAULT_ENGINE


def compile(
    source: CompileRequest | Expr | ImpProgram | str,
    *,
    engine: Engine | None = None,
    **fields,
) -> CompiledPipeline:
    """Compile through the default (or given) engine; see :meth:`Engine.compile`.

    This is the single front door re-exported as ``repro.compile``.  Both
    calling conventions are equivalent::

        pipeline = repro.compile(harris(rgb), strategy=cbuf_version(env),
                                 type_env=env, sizes={"n": 32, "m": 64})
        pipeline = repro.compile(CompileRequest(
            source=harris(rgb), strategy=cbuf_version(env),
            type_env=env, sizes={"n": 32, "m": 64}))
        out = pipeline.run(rgb=img)
        batch = pipeline.run_batch([{"rgb": img} for img in images])
    """
    eng = engine if engine is not None else default_engine()
    return eng.compile(source, **fields)
