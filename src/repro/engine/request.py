"""The typed compile-request surface: :class:`CompileRequest`.

``repro.compile()`` grew keyword by keyword; serving the compiler to
concurrent callers needs a *value* instead — one frozen, validated,
hashable-by-content description of a compilation that can be queued,
coalesced, logged and echoed back in reports.  Everything above the
engine (the :mod:`repro.serve` front door, the AOT prebuilder, the load
tester) speaks only :class:`CompileRequest`; ``Engine.compile(source,
**fields)`` builds ``CompileRequest(source=source, **fields)``, so the
two call styles are exactly equivalent::

    req = CompileRequest(source=harris(rgb), strategy=cbuf_version(env),
                         type_env=env, sizes={"n": 32, "m": 64})
    pipeline = repro.compile(req)          # ... == repro.compile(harris(rgb), ...)

A registered pipeline is named by plain data instead: ``source="zoo"``
with ``options={"pipeline": "harris", "schedule": "cbuf"}`` (any family
schedule or baseline of the :mod:`registry <repro.pipelines.registry>`).

Validation happens eagerly in ``__post_init__`` — a malformed request
fails at construction time on the caller's stack, not deep inside a
server worker where the traceback helps nobody.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Any, Mapping

from repro.codegen.ir import ImpProgram
from repro.exec import BACKEND_TABLE, DEFAULT_CFLAGS
from repro.observe.context import new_request_id
from repro.rise.expr import Expr

__all__ = ["CompileRequest", "BACKENDS", "DEFAULT_CFLAGS"]

#: The execution backends the engine can target (the backend table's names).
BACKENDS = tuple(BACKEND_TABLE)


def _frozen_mapping(value: Mapping | None, what: str) -> Mapping:
    """A read-only snapshot of ``value`` (``{}`` when ``None``)."""
    if value is None:
        return MappingProxyType({})
    if not isinstance(value, Mapping):
        raise TypeError(f"{what} must be a mapping, got {type(value).__name__}")
    return MappingProxyType(dict(value))


@dataclass(frozen=True)
class CompileRequest:
    """One validated, immutable description of a compilation.

    Fields are the keywords of :meth:`repro.engine.Engine.compile`:

    * ``source`` — a RISE :class:`~repro.rise.expr.Expr`, an
      :class:`~repro.codegen.ir.ImpProgram`, or the name ``"zoo"``;
    * ``strategy`` — optional ELEVATE strategy / Schedule applied before
      lowering (RISE sources only);
    * ``backend`` — a name in :data:`repro.exec.BACKEND_TABLE`;
    * ``sizes`` — default run-time size bindings (never part of the key);
    * ``type_env`` — free-identifier types for RISE sources;
    * ``name`` — program name for generated code;
    * ``options`` — the ``"zoo"`` source's pipeline, schedule and grid
      (``chunk``/``vec``/``strip``);
    * ``cflags`` — compiler flags, resolved by the backend before keying;
    * ``threads`` — default thread count for ``PARALLEL`` loops;
    * ``request_id`` — correlation identity for observability
      (auto-generated when omitted; stable across :meth:`replace`, so the
      engine's internal cflag normalization never changes a request's
      identity in spans, events, or the serve accounting).

    Instances are frozen; the mapping fields are snapshotted into
    read-only views at construction, so a request can be shared across
    threads and queues without defensive copying.
    """

    source: Expr | ImpProgram | str
    strategy: Any = None
    backend: str = "python"
    sizes: Mapping[str, int] | None = None
    type_env: Mapping[str, Any] | None = None
    name: str | None = None
    options: Mapping[str, Any] | None = None
    cflags: tuple[str, ...] = DEFAULT_CFLAGS
    threads: int | None = None
    request_id: str | None = None

    def __post_init__(self):
        """Validate field shapes eagerly; raises ``TypeError``/``ValueError``."""
        if not isinstance(self.source, (Expr, ImpProgram, str)):
            raise TypeError(
                f"source must be a RISE Expr, an ImpProgram, or the name "
                f"'zoo', got {type(self.source).__name__}"
            )
        if isinstance(self.source, str) and not self.source:
            raise ValueError("builder-name source must be non-empty")
        if self.backend not in BACKEND_TABLE:
            known = tuple(BACKEND_TABLE)
            raise ValueError(f"unknown backend {self.backend!r} (expected one of {known})")
        if self.strategy is not None and not hasattr(self.strategy, "apply"):
            raise TypeError(
                f"strategy must expose .apply(program), "
                f"got {type(self.strategy).__name__}"
            )
        if self.name is not None and not isinstance(self.name, str):
            raise TypeError(f"name must be a string, got {type(self.name).__name__}")
        sizes = _frozen_mapping(self.sizes, "sizes")
        for key, value in sizes.items():
            if not isinstance(key, str):
                raise TypeError(f"size names must be strings, got {key!r}")
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValueError(f"size {key!r} must be a positive int, got {value!r}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(
            self, "type_env", _frozen_mapping(self.type_env, "type_env")
        )
        object.__setattr__(self, "options", _frozen_mapping(self.options, "options"))
        if self.options and not isinstance(self.source, str):
            raise ValueError("options are only valid for builder-name sources")
        if isinstance(self.cflags, str):
            raise TypeError("cflags must be a sequence of flags, not a bare string")
        cflags = tuple(self.cflags)
        if not all(isinstance(flag, str) for flag in cflags):
            raise TypeError(f"cflags must be strings, got {cflags!r}")
        object.__setattr__(self, "cflags", cflags)
        if self.threads is not None:
            if not isinstance(self.threads, int) or isinstance(self.threads, bool):
                raise TypeError(
                    f"threads must be an int or None, got {type(self.threads).__name__}"
                )
            if self.threads < 1:
                raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.request_id is None:
            object.__setattr__(self, "request_id", new_request_id())
        elif not isinstance(self.request_id, str) or not self.request_id:
            raise TypeError(
                f"request_id must be a non-empty string, got {self.request_id!r}"
            )

    # -- derived views ----------------------------------------------------

    @property
    def kind(self) -> str:
        """The source kind: ``"expr"``, ``"program"`` or ``"builder"``."""
        if isinstance(self.source, str):
            return "builder"
        if isinstance(self.source, ImpProgram):
            return "program"
        return "expr"

    def replace(self, **changes) -> "CompileRequest":
        """A new request with ``changes`` applied (re-validated)."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return CompileRequest(**current)

    def __reduce__(self):
        """Pickle as constructor arguments, so unpickling re-freezes the
        mappings and re-validates every field.

        Only plain data pickles: a request carrying a live ``strategy``
        object (ELEVATE strategies close over local functions) raises
        ``TypeError`` here, on the sending side.
        """
        if self.strategy is not None:
            raise TypeError(
                f"a CompileRequest with a live strategy does not pickle "
                f"({self.describe()}); only plain-data requests cross processes"
            )
        return (
            CompileRequest,
            tuple(
                dict(value) if isinstance(value, MappingProxyType) else value
                for value in (getattr(self, f.name) for f in fields(self))
            ),
        )

    def describe(self) -> str:
        """A short human-readable label (logs, load-test output)."""
        if isinstance(self.source, str):
            src = self.source
        elif isinstance(self.source, ImpProgram):
            src = f"program:{self.source.name}"
        else:
            src = self.name or "expr"
        strategy = getattr(self.strategy, "name", None)
        parts = [src]
        if strategy:
            parts.append(str(strategy))
        parts.append(self.backend)
        return "/".join(parts)

    def to_dict(self) -> dict:
        """A JSON-ready echo of the request (for ``pipeline.report()``).

        ``source``/``strategy`` are summarized, not serialized — the
        report documents provenance, it is not a wire format.
        """
        return {
            "kind": self.kind,
            "source": (
                self.source
                if isinstance(self.source, str)
                else (
                    f"program:{self.source.name}"
                    if isinstance(self.source, ImpProgram)
                    else "expr"
                )
            ),
            "strategy": getattr(self.strategy, "name", None)
            if self.strategy is not None
            else None,
            "backend": self.backend,
            "sizes": dict(self.sizes or {}),
            "type_env": sorted(self.type_env or {}),
            "name": self.name,
            "options": dict(self.options or {}),
            "cflags": list(self.cflags),
            "threads": self.threads,
            "request_id": self.request_id,
        }
