"""Execution backends for compiled imperative programs."""

from repro.exec.parallel import (
    batch_worker_scope, effective_threads, in_batch_worker, resolve_threads,
)
from repro.exec.pyexec import execute_program, program_to_python
