"""Execution backends for compiled imperative programs.

:data:`BACKEND_TABLE` maps each backend name to its module; the engine
reaches a backend only through it.  Every backend module exposes
``BATCH_POOL`` (``"process"`` or ``"thread"``), ``available()``,
``resolve_cflags(cflags)`` (the flags that enter the cache key),
``build(entry, cflags)`` (artifacts of a fresh cache entry),
``source(entry, sizes)`` and ``run(entry, store, sizes, inputs, threads)``.
"""

from repro.exec import cbridge, pyexec
from repro.exec.cbridge import DEFAULT_CFLAGS
from repro.exec.parallel import (
    batch_worker_scope, effective_threads, in_batch_worker, resolve_threads,
)
from repro.exec.pyexec import execute_program, program_to_python

#: Backend name -> backend module.
BACKEND_TABLE = {"python": pyexec, "c": cbridge}


def available_backends() -> list[str]:
    """The backends this host can run, in table order."""
    return [name for name, backend in BACKEND_TABLE.items() if backend.available()]
