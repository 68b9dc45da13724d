"""Ahead-of-time prebuilding of the named kernel library.

JIT latency is the cold-start tax of a compile service: the first
request for a schedule pays rewriting, typechecking, lowering and (for
the C backend) a real compiler invocation.  This module pays that tax
at *install time* instead — the deployment posture Halide recommends
for mobile targets ("AOT is generally preferred... commonly used for
mobile platforms"): :func:`prebuild` compiles a named set of kernels
(by default the Harris schedule variants of the paper's evaluation,
times the available backends; :func:`zoo_kernel_requests` names any
slice of the pipeline registry) into a shared artifact store, then writes an
``aot_manifest.json`` at the store root mapping kernel names to cache
keys and, for C kernels, to the resolved ``cflags`` they were built
with (so an install script can see the ISA level a store targets: a
store built with ``-march=x86-64-v3`` is a clean miss on a host without
it).  Any later process pointing an engine at the same store —
including every :class:`~repro.serve.server.Server` worker — warm-starts
each of those kernels from disk without running a single compiler phase.

The manifest is provenance, not a lookup table the engine needs: the
store stays content-addressed, and a serving process reconstructs the
same keys from the same :class:`~repro.engine.request.CompileRequest`
values.  ``tools/aot.py`` is the install-time CLI.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Sequence

from repro.engine.pipeline import Engine
from repro.engine.request import CompileRequest

__all__ = [
    "AOT_MANIFEST",
    "MANIFEST_SCHEMA",
    "zoo_kernel_requests",
    "prebuild",
    "load_manifest",
]

#: Manifest filename at the artifact-store root.
AOT_MANIFEST = "aot_manifest.json"

#: Schema identifier of the manifest document.
MANIFEST_SCHEMA = "repro.serve.aot/v1"

#: Row-chunk size of the serving kernel grid.  Smaller than the bench
#: default (32) on purpose: every schedule in the ladder then runs on
#: any image whose inner height is a multiple of ``chunk * strip`` = 8,
#: which the serving-path tests satisfy.
DEFAULT_AOT_CHUNK = 4


def zoo_kernel_requests(
    backends: Sequence[str] = ("python",),
    chunk: int | None = None,
    vec: int | None = None,
    strip: int | None = None,
    pipelines: Sequence[str] | None = None,
    schedules: Sequence[str] | None = None,
    sizes: dict | None = None,
    applicable_only: bool = True,
) -> list[tuple[str, CompileRequest]]:
    """The registry-wide kernel set: every zoo pipeline x its schedules.

    Enumerates the :mod:`pipeline registry <repro.pipelines.registry>`
    and emits one ``(kernel_name, request)`` pair per (pipeline,
    schedule, backend), addressed through the engine's ``"zoo"``
    source so the requests are plain JSON options — exactly
    what a serving process reconstructs.  With ``applicable_only`` (the
    default) only schedules that structurally apply to each pipeline are
    prebuilt; prebuilding a no-op schedule would publish a kernel
    identical to naive under an optimized name.
    """
    from repro.pipelines import registry
    from repro.strategies.schedules import DEFAULT_STRIP, DEFAULT_VEC

    chunk = chunk if chunk is not None else DEFAULT_AOT_CHUNK
    vec = vec if vec is not None else DEFAULT_VEC
    strip = strip if strip is not None else DEFAULT_STRIP
    names = tuple(pipelines) if pipelines is not None else registry.names()
    requests: list[tuple[str, CompileRequest]] = []
    for pipeline in names:
        spec = registry.get(pipeline)
        if schedules is not None:
            wanted = tuple(schedules)
        elif applicable_only:
            reports = registry.applicable_schedules(
                spec, chunk=chunk, vec=vec, strip=strip
            )
            wanted = tuple(s for s in registry.SCHEDULE_NAMES if reports[s].applies)
        else:
            wanted = registry.SCHEDULE_NAMES
        for backend in backends:
            for schedule in wanted:
                requests.append(
                    (
                        f"zoo-{pipeline}-{schedule}@{backend}",
                        CompileRequest(
                            source="zoo",
                            options={
                                "pipeline": pipeline,
                                "schedule": schedule,
                                "chunk": chunk,
                                "vec": vec,
                                "strip": strip,
                            },
                            backend=backend,
                            sizes=sizes,
                        ),
                    )
                )
    return requests


def prebuild(
    cache_dir: Path | str,
    requests: Sequence[tuple[str, CompileRequest]] | None = None,
    backends: Sequence[str] = ("python",),
    engine: Engine | None = None,
) -> dict:
    """Compile every named kernel into ``cache_dir``; returns the manifest.

    ``requests`` defaults to the Harris set,
    ``zoo_kernel_requests(backends, pipelines=("harris",))``.  Re-running over a warm store is cheap and idempotent:
    already-published kernels are cache hits, and the manifest records
    per-kernel cache status so an install script can verify that a
    second pass performed zero builds.
    """
    cache_dir = Path(cache_dir)
    if requests is None:
        requests = zoo_kernel_requests(backends, pipelines=("harris",))
    eng = engine if engine is not None else Engine(cache_dir=cache_dir)
    kernels = []
    for kernel_name, request in requests:
        pipeline = eng.compile_request(request)
        kernels.append(
            {
                "kernel": kernel_name,
                "key": pipeline.key,
                "cflags": list(pipeline.request.cflags),
                "backend": pipeline.backend,
                "program": pipeline.program.name,
                "cache": pipeline.cache_status,
                "compile_ms": round(pipeline.compile_ms, 3),
            }
        )
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "built_at": round(time.time(), 3),
        "store": str(cache_dir),
        "kernels": kernels,
    }
    cache_dir.mkdir(parents=True, exist_ok=True)
    (cache_dir / AOT_MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def load_manifest(cache_dir: Path | str) -> dict:
    """Read and schema-check the manifest under ``cache_dir``."""
    path = Path(cache_dir) / AOT_MANIFEST
    doc = json.loads(path.read_text())
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: unknown AOT manifest schema {doc.get('schema')!r} "
            f"(expected {MANIFEST_SCHEMA!r})"
        )
    return doc
