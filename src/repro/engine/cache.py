"""The compile cache: an in-memory LRU in front of an on-disk artifact store.

Artifacts are content-addressed by the keys of :mod:`repro.engine.hashing`.
The memory tier holds live :class:`CacheEntry` objects (including loaded
C libraries); the disk tier persists the pickled imperative program plus,
for the C backend, the emitted source and the compiled ``.so`` — so a new
process warm-starts without re-running a single compiler phase and the
ctypes bridge stops recompiling into a fresh tempdir per call.

Layout of one disk artifact (``<root>/<key[:2]>/<key>/``)::

    meta.json     backend, program name, key provenance, artifact sizes
    program.pkl   pickled ImpProgram (symbolic sizes intact)
    kernel.c      emitted C source          (C backend only)
    kernel.so     compiled shared library   (C backend only)

The store is **multiprocess-safe** (many serving workers may share one
``$REPRO_CACHE_DIR``):

* *Atomic publish* — :meth:`ArtifactStore.save` stages every file into a
  private directory under ``<root>/.tmp`` and promotes it with one
  ``os.replace``; readers never observe a half-written entry, and a
  crash mid-write leaves only an orphaned tmp dir (reclaimed by
  :meth:`ArtifactStore.sweep_orphans`), never a corrupt artifact.
* *Advisory locking* — save/load/evict serialize per key through
  ``flock`` lock files under ``<root>/.locks`` (see :class:`FileLock`;
  a no-op on platforms without ``fcntl``).  The engine additionally
  uses :meth:`ArtifactStore.build_lock` to elect exactly one *builder*
  per key across processes.
* *Bounded eviction* — ``max_entries`` / ``max_bytes`` cap the store;
  :meth:`ArtifactStore.enforce_limits` drops least-recently-published
  entries and emits ``engine.cache.evictions{tier="disk"}``.

Cache hits and misses are emitted as ``engine.cache.*`` counters through
:mod:`repro.observe` and aggregated in :class:`CacheStats` for the run
report's ``engine`` section.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

try:  # pragma: no cover - exercised indirectly on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.codegen.ir import ImpProgram
from repro.observe.core import span
from repro.observe.events import emit
from repro.observe.metrics import inc, set_gauge

__all__ = [
    "CacheEntry",
    "CacheStats",
    "FileLock",
    "ArtifactStore",
    "EngineCache",
    "default_cache_dir",
]

#: Environment variable selecting the on-disk artifact store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Tmp staging dirs older than this (seconds) are orphans from a crashed
#: writer and safe to reclaim: a live save stages for milliseconds.
ORPHAN_TMP_AGE_S = 3600.0


def default_cache_dir() -> Optional[Path]:
    """The artifact-store root from ``$REPRO_CACHE_DIR``, or ``None``
    (memory-only caching) when the variable is unset or empty."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(value) if value else None


@dataclass
class CacheEntry:
    """One cached compilation: the program plus backend-specific artifacts."""

    key: str
    program: ImpProgram
    backend: str
    c_source: str | None = None
    library: object | None = None  # a repro.exec.cbridge.CLibrary, C backend
    meta: dict = field(default_factory=dict)


@dataclass
class CacheStats:
    """Aggregate hit/miss accounting for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.disk_hits

    def to_dict(self) -> dict:
        """JSON-ready representation for the run report."""
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
        }


class FileLock:
    """An advisory inter-process lock over one lock file (``flock``).

    Reentrant-unaware and blocking: entering the context acquires an
    exclusive (or ``shared``) lock, exiting releases it.  On platforms
    without ``fcntl`` the lock degrades to a no-op — single-process
    correctness is then guaranteed by the engine's thread locks alone.
    """

    def __init__(self, path: Path, shared: bool = False):
        self.path = Path(path)
        self.shared = shared
        self._fh = None

    def __enter__(self) -> "FileLock":
        """Acquire the lock, creating the lock file if needed."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a+b")
        if fcntl is not None:
            mode = fcntl.LOCK_SH if self.shared else fcntl.LOCK_EX
            fcntl.flock(self._fh.fileno(), mode)
        return self

    def __exit__(self, *exc) -> None:
        """Release the lock and close the handle."""
        if self._fh is not None:
            if fcntl is not None:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            self._fh.close()
            self._fh = None


class ArtifactStore:
    """Content-addressed on-disk artifacts under one root directory.

    ``max_entries`` / ``max_bytes`` bound the store (``None`` =
    unbounded); limits are enforced after every publish by dropping the
    least-recently-published entries.
    """

    def __init__(
        self,
        root: Path | str,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ):
        self.root = Path(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._swept = False

    # -- layout -----------------------------------------------------------

    def _dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def _tmp_root(self) -> Path:
        return self.root / ".tmp"

    def _lock_path(self, name: str) -> Path:
        return self.root / ".locks" / f"{name}.lock"

    def lock(self, key: str, shared: bool = False) -> FileLock:
        """The per-key artifact lock (save/load/evict serialization)."""
        return FileLock(self._lock_path(key), shared=shared)

    def build_lock(self, key: str) -> FileLock:
        """The per-key *builder election* lock.

        Distinct from :meth:`lock` so that holding the build lock for the
        full duration of an expensive compile never blocks readers of
        already-published sibling artifacts.
        """
        return FileLock(self._lock_path(f"{key}.build"))

    def contains(self, key: str) -> bool:
        """Whether a complete artifact for ``key`` is on disk."""
        return (self._dir(key) / "meta.json").is_file()

    # -- write path --------------------------------------------------------

    def save(self, entry: CacheEntry) -> dict:
        """Persist ``entry`` atomically; returns the written meta document.

        All files are staged into a fresh directory under ``.tmp`` and
        promoted into place with a single ``os.replace`` under the
        per-key lock — a failure at any point (pickling included) leaves
        the published tree untouched.  Losing a publish race to another
        process is not an error: the staged copy is discarded and the
        winner's meta document is returned.
        """
        self._sweep_once()
        adir = self._dir(entry.key)
        tmp_root = self._tmp_root()
        tmp_root.mkdir(parents=True, exist_ok=True)
        staging = tmp_root / f"{entry.key}.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        try:
            staging.mkdir()
            program_path = staging / "program.pkl"
            with open(program_path, "wb") as fh:
                pickle.dump(entry.program, fh, protocol=pickle.HIGHEST_PROTOCOL)
            artifact_bytes = program_path.stat().st_size
            if entry.c_source is not None:
                (staging / "kernel.c").write_text(entry.c_source)
                artifact_bytes += (staging / "kernel.c").stat().st_size
            library = entry.library
            if library is not None and getattr(library, "path", None) is not None:
                so_bytes = Path(library.path).read_bytes()
                (staging / "kernel.so").write_bytes(so_bytes)
                artifact_bytes += len(so_bytes)
            meta = {
                "key": entry.key,
                "backend": entry.backend,
                "program": entry.program.name,
                "artifact_bytes": artifact_bytes,
                **entry.meta,
            }
            (staging / "meta.json").write_text(json.dumps(meta, indent=2, default=str))
            with self.lock(entry.key):
                if self.contains(entry.key):
                    # lost the publish race: keep the winner's artifact
                    published = json.loads((adir / "meta.json").read_text())
                    return published
                adir.parent.mkdir(parents=True, exist_ok=True)
                os.replace(staging, adir)
        finally:
            if staging.is_dir():
                shutil.rmtree(staging, ignore_errors=True)
        inc("engine.cache.disk_bytes", artifact_bytes)
        self.enforce_limits(keep=entry.key)
        return meta

    # -- read path ---------------------------------------------------------

    def load(self, key: str) -> Optional[CacheEntry]:
        """Reconstruct an entry from disk; ``None`` when absent/corrupt.

        The shared library (if any) is *not* loaded here — the C
        backend's ``run`` loads it lazily from :meth:`so_path`, keeping
        the store import-light.
        """
        adir = self._dir(key)
        if not (adir / "meta.json").is_file():
            return None
        try:
            with self.lock(key, shared=True):
                meta = json.loads((adir / "meta.json").read_text())
                with open(adir / "program.pkl", "rb") as fh:
                    program = pickle.load(fh)
                c_path = adir / "kernel.c"
                c_source = c_path.read_text() if c_path.is_file() else None
        except (OSError, ValueError, pickle.UnpicklingError):
            return None
        return CacheEntry(
            key=key,
            program=program,
            backend=meta.get("backend", "python"),
            c_source=c_source,
            meta=meta,
        )

    def so_path(self, key: str) -> Optional[Path]:
        """Path of the stored shared library for ``key``, if present."""
        path = self._dir(key) / "kernel.so"
        return path if path.is_file() else None

    # -- maintenance -------------------------------------------------------

    def entries(self) -> Iterator[tuple[str, Path]]:
        """All published ``(key, entry_dir)`` pairs, unordered."""
        if not self.root.is_dir():
            return
        for shard in self.root.iterdir():
            if shard.name.startswith(".") or not shard.is_dir():
                continue
            for adir in shard.iterdir():
                if (adir / "meta.json").is_file():
                    yield adir.name, adir

    def usage(self) -> tuple[int, int]:
        """Current ``(entry_count, artifact_bytes)`` of the store."""
        entries = 0
        total = 0
        for _, adir in self.entries():
            entries += 1
            try:
                meta = json.loads((adir / "meta.json").read_text())
                total += int(meta.get("artifact_bytes", 0))
            except (OSError, ValueError):
                continue
        return entries, total

    def evict(self, key: str) -> bool:
        """Remove one published artifact; returns whether it existed."""
        adir = self._dir(key)
        with self.lock(key):
            if not (adir / "meta.json").is_file():
                return False
            # unpublish atomically (rename away), then delete at leisure:
            # a concurrent reader sees either the full entry or nothing.
            tmp_root = self._tmp_root()
            tmp_root.mkdir(parents=True, exist_ok=True)
            doomed = tmp_root / f"{key}.{os.getpid()}.evict.{uuid.uuid4().hex[:8]}"
            os.replace(adir, doomed)
        shutil.rmtree(doomed, ignore_errors=True)
        inc("engine.cache.evictions", tier="disk")
        emit("engine.cache.evict", key=key, tier="disk")
        return True

    def enforce_limits(self, keep: str | None = None) -> int:
        """Drop least-recently-published entries beyond the store bounds.

        ``keep`` protects one key (the just-published artifact) from
        being evicted by its own publish.  Returns the eviction count.
        Age is the ``meta.json`` mtime — publish time, since the whole
        entry is promoted in one rename.
        """
        if self.max_entries is None and self.max_bytes is None:
            return 0
        aged: list[tuple[float, str, int]] = []
        entry_count = 0
        total_bytes = 0
        for key, adir in self.entries():
            try:
                meta_path = adir / "meta.json"
                mtime = meta_path.stat().st_mtime
                size = int(json.loads(meta_path.read_text()).get("artifact_bytes", 0))
            except (OSError, ValueError):
                continue
            entry_count += 1
            total_bytes += size
            aged.append((mtime, key, size))
        aged.sort()  # oldest first
        evicted = 0
        with FileLock(self._lock_path(".store")):
            for mtime, key, size in aged:
                over_count = (
                    self.max_entries is not None and entry_count > self.max_entries
                )
                over_bytes = (
                    self.max_bytes is not None and total_bytes > self.max_bytes
                )
                if not (over_count or over_bytes):
                    break
                if key == keep:
                    continue
                if self.evict(key):
                    evicted += 1
                    entry_count -= 1
                    total_bytes -= size
        set_gauge("engine.cache.disk_entries", entry_count)
        return evicted

    def sweep_orphans(self, max_age_s: float = ORPHAN_TMP_AGE_S) -> int:
        """Reclaim staging dirs abandoned by crashed writers.

        Only tmp dirs older than ``max_age_s`` are removed, so a live
        writer in another process is never swept mid-stage.  Returns the
        number of directories reclaimed.
        """
        tmp_root = self._tmp_root()
        if not tmp_root.is_dir():
            return 0
        now = time.time()
        reclaimed = 0
        for orphan in tmp_root.iterdir():
            try:
                age = now - orphan.stat().st_mtime
            except OSError:
                continue
            if age > max_age_s:
                shutil.rmtree(orphan, ignore_errors=True)
                reclaimed += 1
        if reclaimed:
            inc("engine.cache.orphans_swept", reclaimed)
        return reclaimed

    def _sweep_once(self) -> None:
        """Run the orphan sweep once per store instance (first save)."""
        if not self._swept:
            self._swept = True
            self.sweep_orphans()


class EngineCache:
    """LRU memory tier over an optional :class:`ArtifactStore` disk tier.

    Thread-safe: the memory tier is guarded by one reentrant lock, so
    concurrent serving workers can hit/promote/evict without corrupting
    the LRU order (disk-tier safety is the store's job).
    """

    def __init__(self, store: ArtifactStore | None = None, memory_slots: int = 64):
        self.store = store
        self.memory_slots = memory_slots
        self.stats = CacheStats()
        self._memory: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.RLock()

    def get(
        self, key: str, count_miss: bool = True
    ) -> tuple[Optional[CacheEntry], Optional[str]]:
        """Look ``key`` up in memory, then on disk (promoting to memory).

        Returns ``(entry, tier)`` where tier is ``"memory"``, ``"disk"``
        or ``None`` on a miss.  ``count_miss=False`` suppresses miss
        accounting — used by the singleflight re-check so one logical
        compile never counts two misses.
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                inc("engine.cache.hits", tier="memory")
                return entry, "memory"
        if self.store is not None:
            with span("engine.cache.disk-load", key=key):
                entry = self.store.load(key)
            if entry is not None:
                with self._lock:
                    self._remember(key, entry)
                    self.stats.disk_hits += 1
                inc("engine.cache.hits", tier="disk")
                return entry, "disk"
        if count_miss:
            with self._lock:
                self.stats.misses += 1
            inc("engine.cache.misses")
        return None, None

    def put(self, entry: CacheEntry) -> None:
        """Insert a freshly compiled entry into both tiers."""
        with self._lock:
            self._remember(entry.key, entry)
            self.stats.stores += 1
        inc("engine.cache.stores")
        if self.store is not None:
            with span("engine.cache.disk-store", key=entry.key):
                entry.meta = self.store.save(entry)

    def _remember(self, key: str, entry: CacheEntry) -> None:
        # caller holds self._lock
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_slots:
            evicted_key, evicted = self._memory.popitem(last=False)
            library = evicted.library
            if library is not None and hasattr(library, "close"):
                library.close()
            inc("engine.cache.evictions", tier="memory")
            emit("engine.cache.evict", key=evicted_key, tier="memory")
        set_gauge("engine.cache.memory_entries", len(self._memory))

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def to_dict(self) -> dict:
        """JSON-ready stats (plus tier configuration) for the run report."""
        out = self.stats.to_dict()
        out["memory_entries"] = len(self)
        out["memory_slots"] = self.memory_slots
        out["disk_store"] = str(self.store.root) if self.store else None
        return out
