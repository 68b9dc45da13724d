"""Compile-as-a-service: the async front door over the engine.

``repro.compile()`` is a library call; :mod:`repro.serve` turns it into
a *service* fit for heavy concurrent traffic, completing the serving
spine on top of three engine-level guarantees:

* the disk artifact store is multiprocess-safe (atomic publish,
  advisory locking, bounded eviction — :mod:`repro.engine.cache`);
* identical in-flight compiles coalesce onto one build, in-process and
  across processes (:mod:`repro.engine.pipeline`);
* every request is a typed, validated value
  (:class:`repro.engine.request.CompileRequest`) that can be queued,
  logged and echoed back.

This package adds the traffic-facing pieces:

* :class:`Server` (:mod:`repro.serve.server`) — an asyncio front
  door: cache hits are answered on the event loop without queueing;
  misses wait in a bounded queue (overflow rejected immediately with
  :class:`ServerBusy`, the 429 of this API) under per-request deadlines
  (:class:`DeadlineExceeded`) for a build slot, and are built by a
  low-priority child process or in a worker thread, by the one rule of
  :func:`builds_out_of_process` (a failed child is :class:`BuildFailed`);
* :mod:`repro.serve.aot` — ahead-of-time prebuilding of a named kernel
  library (the Harris schedule variants across backends) into a shared
  artifact store, so serving never pays JIT latency — the Halide
  deployment posture ("AOT is generally preferred... commonly used for
  mobile platforms").

CLI: ``tools/aot.py`` (prebuild at install time).  Measured serving
latency lives in ``benchmarks/e2e`` (the ``serve-mixed`` workload).
"""

from repro.serve.aot import (
    AOT_MANIFEST, load_manifest, prebuild, zoo_kernel_requests,
)
from repro.serve.server import (
    BuildFailed, BuildTimeout, DeadlineExceeded, Server, ServerBusy, ServerError,
    builds_out_of_process,
)

__all__ = [
    "Server",
    "ServerError",
    "ServerBusy",
    "DeadlineExceeded",
    "BuildFailed",
    "BuildTimeout",
    "builds_out_of_process",
    "prebuild",
    "load_manifest",
    "zoo_kernel_requests",
    "AOT_MANIFEST",
]
