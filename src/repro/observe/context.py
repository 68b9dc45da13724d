"""Request correlation: one ``request_id``/``trace_id`` per served compile.

The metrics registry can say *p99 compile latency is 32s* without being
able to say *which request* — coalesced followers, deadline-expired
builds and AOT warm hits are indistinguishable in a process-global
histogram.  This module is the missing join key: a
:class:`RequestContext` carried in a :mod:`contextvars` context variable
so that every span (:mod:`repro.observe.core`) and every structured
event (:mod:`repro.observe.events`) recorded while serving one request
carries the same ``request_id``, no matter which thread, pool worker or
backend it was recorded on.

Propagation is by construction, not by plumbing arguments around:

* the asyncio server captures ``contextvars.copy_context()`` at
  admission and runs the engine call inside it, so its worker threads
  see the submitting request's context (and the active observer);
* :class:`~repro.engine.batch.BatchRunner` already submits thread-pool
  items through ``copy_context()`` — the request context rides along;
* process-pool items cannot share a context variable, so their
  pre-timed spans are stamped at :meth:`~repro.observe.core.Observer.
  attach` time in the parent, which *does* hold the context.

Usage::

    with request_scope(request_id=req.request_id) as ctx:
        ...   # every span()/emit() here carries ctx.request_id

:func:`ensure_request` is the idempotent variant used by library entry
points (``Engine.compile_request``, ``CompiledPipeline.run``): it
activates a scope only when none is active, so a server-assigned
context is never clobbered by the layers below it.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "RequestContext",
    "new_request_id",
    "new_trace_id",
    "new_span_id",
    "current_request",
    "request_scope",
    "ensure_request",
]

_REQUEST: ContextVar[Optional["RequestContext"]] = ContextVar(
    "repro_request_context", default=None
)


def new_request_id() -> str:
    """A fresh globally unique request identifier (``req-`` + 12 hex)."""
    return f"req-{uuid.uuid4().hex[:12]}"


def new_trace_id() -> str:
    """A fresh trace identifier (16 hex chars, W3C-trace-context sized)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh span identifier (8 hex chars, unique within a trace)."""
    return uuid.uuid4().hex[:8]


@dataclass(frozen=True)
class RequestContext:
    """The correlation identity of one in-flight request.

    ``request_id`` names the logical request (stable across retries of
    the same :class:`~repro.engine.request.CompileRequest` object);
    ``trace_id`` names one end-to-end span tree.  Both are free-form
    strings — the engine never parses them, only stamps them onto spans
    and events.
    """

    request_id: str
    trace_id: str

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {"request_id": self.request_id, "trace_id": self.trace_id}


def current_request() -> Optional[RequestContext]:
    """The active request context, or ``None`` outside any request scope."""
    return _REQUEST.get()


@contextmanager
def request_scope(
    request_id: str | None = None, trace_id: str | None = None
) -> Iterator[RequestContext]:
    """Activate a request context for the dynamic extent of the block.

    Missing identifiers are generated; nesting replaces the outer
    context for the inner extent (a server handling request B inside a
    span of request A is a bug upstream, not something this layer hides).
    """
    ctx = RequestContext(
        request_id=request_id if request_id is not None else new_request_id(),
        trace_id=trace_id if trace_id is not None else new_trace_id(),
    )
    token = _REQUEST.set(ctx)
    try:
        yield ctx
    finally:
        _REQUEST.reset(token)


@contextmanager
def ensure_request(request_id: str | None = None) -> Iterator[RequestContext]:
    """The active context, or a new scope when none is active.

    Library entry points wrap themselves in this so direct calls are
    correlated too, while server-assigned contexts pass through
    untouched (the serve layer activates the scope first and owns the
    identifiers).
    """
    existing = _REQUEST.get()
    if existing is not None:
        yield existing
        return
    with request_scope(request_id=request_id) as ctx:
        yield ctx
