"""The execution engine: compile cache + parallel batch execution.

The production-facing layer of the reproduction.  Where the rest of the
package treats compilation as a transient side effect, the engine makes
it a *reusable, inspectable artifact* (the stance of the RISE & Shine
compiler-design line of work): every compile is content-addressed by the
structural hash of the RISE expression, the strategy identity, the
backend and the symbolic-size signature, then served from an in-memory
LRU backed by an on-disk artifact store — pickled imperative programs,
and reusable ``.so`` files for the ctypes bridge.

Public surface (re-exported as ``repro.compile`` etc.):

* :func:`repro.engine.compile` — the unified front door;
* :class:`CompileRequest` — the typed, validated compile-request value
  the serving layer queues and coalesces;
* :class:`CompiledPipeline` — ``.run()``, ``.run_batch()``, ``.source``,
  ``.report()``;
* :class:`BatchRunner` / :class:`BatchResult` — parallel fan-out over
  input batches (process pool for the Python backend, thread pool for
  the C backend);
* :class:`Engine`, :func:`default_engine`, :func:`reset_default_engine`
  — cache ownership and test/CLI control;
* :func:`structural_hash` and friends — the content-addressing scheme.

Everything the engine does is observable: cache hits/misses, artifact
sizes and batch throughput surface as ``engine.*`` spans/counters in
:mod:`repro.observe` and as the ``engine`` section of the run report.
"""

from repro.engine.batch import BatchResult, BatchRunner
from repro.engine.cache import ArtifactStore, CacheEntry, CacheStats, EngineCache
from repro.engine.hashing import (
    ENGINE_VERSION,
    cache_key,
    program_fingerprint,
    size_signature,
    strategy_identity,
    structural_hash,
    type_env_signature,
)
from repro.engine.memo import Memo
from repro.engine.pipeline import (
    CompiledPipeline,
    Engine,
    compile,
    default_engine,
    reset_default_engine,
)
from repro.engine.request import BACKENDS, CompileRequest

#: Schema identifier of the run report's ``engine`` section.
ENGINE_REPORT_SCHEMA = "repro.engine.report/v1"

__all__ = [
    "ENGINE_VERSION",
    "ENGINE_REPORT_SCHEMA",
    "compile",
    "CompileRequest",
    "BACKENDS",
    "CompiledPipeline",
    "Engine",
    "default_engine",
    "reset_default_engine",
    "BatchRunner",
    "BatchResult",
    "EngineCache",
    "Memo",
    "ArtifactStore",
    "CacheEntry",
    "CacheStats",
    "structural_hash",
    "program_fingerprint",
    "strategy_identity",
    "size_signature",
    "type_env_signature",
    "cache_key",
]
