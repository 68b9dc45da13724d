"""Spans: the one timing record of the observability subsystem.

An :class:`Observer` collects a tree of timed *spans*.  Activation is
scoped with the :func:`observing` context manager; instrumented code
calls the module-level :func:`span` helper, a no-op (one
context-variable read) when no observer is active — so instrumentation
can stay in hot paths permanently without a measurable cost when
disabled.  Every layer opens one span named after it (``elevate.rewrite``,
``codegen.lower`` and its phases, ``codegen.print``, ``exec.gcc``, …);
the compile profile of :func:`repro.observe.report.compile_profiles` and
the Chrome trace are views of the same tree.  Counts live in the
process-wide :mod:`repro.observe.metrics` registry, not here.

    with observing() as obs:
        with span("compile", program="harris"):
            ...
    print(obs.render_text())

Both the active observer *and* the current span position live in
:mod:`contextvars` context variables, so concurrent recording is safe by
construction: a thread pool that submits work through
``contextvars.copy_context()`` (as :class:`repro.engine.batch.
BatchRunner` does) hands every worker the observer and the span it
should attach under, each worker nests its own spans independently, and
an instance lock serializes the actual tree mutations.  Spans
record their start time (one shared monotonic clock) and recording
thread id, which is what lets :mod:`repro.observe.traceevent` lay them
out on a multi-thread timeline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.observe.context import current_request, new_span_id

__all__ = [
    "Span",
    "Observer",
    "observing",
    "active",
    "span",
    "current_span",
]

_OBSERVER: ContextVar[Optional["Observer"]] = ContextVar("repro_observer", default=None)

#: The innermost open span of the current context, tagged with the
#: observer that owns it (so nested ``observing()`` blocks never attach
#: spans to an outer observer's tree).  Copied by ``copy_context`` —
#: that is how pool workers inherit their parent span.
_CURRENT_SPAN: ContextVar[Optional[tuple["Observer", "Span"]]] = ContextVar(
    "repro_current_span", default=None
)


@dataclass
class Span:
    """One timed region: a name, a wall-clock duration, free-form metadata
    and the spans that were opened while it was active.

    ``t0`` is the opening timestamp on the shared ``perf_counter`` clock
    (0.0 for synthesized spans with no measured start) and ``tid`` the
    recording thread's identifier — both feed the Chrome trace exporter
    and neither appears in :meth:`to_dict`, keeping the report schema
    unchanged.

    ``span_id``/``parent_id``/``request_id`` are the correlation fields
    of :mod:`repro.observe.context`: assigned at recording time when a
    request scope is active, empty otherwise.  They *do* appear in
    :meth:`to_dict` (when set) — that is their point: a span in a run
    report or event log names the exact request it belongs to.
    """

    name: str
    duration_ms: float = 0.0
    meta: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    t0: float = 0.0
    tid: int = 0
    span_id: str = ""
    parent_id: str = ""
    request_id: str = ""

    def to_dict(self) -> dict:
        """JSON-ready representation (durations rounded to microseconds)."""
        out: dict = {"name": self.name, "duration_ms": round(self.duration_ms, 3)}
        if self.span_id:
            out["span_id"] = self.span_id
        if self.parent_id:
            out["parent_id"] = self.parent_id
        if self.request_id:
            out["request_id"] = self.request_id
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class Observer:
    """Collects the span tree of one observed region.

    Safe for concurrent recording: span-tree mutations are guarded by an
    instance lock, and the *position* in the tree is context-local (see
    :data:`_CURRENT_SPAN`), so parallel workers each extend their own
    branch.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, **meta) -> Iterator[Span]:
        """Open a timed span; nested ``span`` calls become its children.

        The parent is the innermost span open *in this context* — worker
        threads entered via ``copy_context`` therefore nest under the
        span that was open when their work item was submitted.  The span
        is stamped with a fresh ``span_id``, its parent's id, and the
        active request context's ``request_id`` (if any).
        """
        entry = Span(name, meta=dict(meta), tid=threading.get_ident())
        self.attach(entry)
        token = _CURRENT_SPAN.set((self, entry))
        entry.t0 = time.perf_counter()
        try:
            yield entry
        finally:
            entry.duration_ms = (time.perf_counter() - entry.t0) * 1e3
            _CURRENT_SPAN.reset(token)

    def attach(self, entry: Span) -> None:
        """Insert an externally built span at the current tree position.

        Used for spans whose timing happened elsewhere (process-pool
        workers report wall times back to the parent, which attaches one
        pre-timed span per item).  The attaching context stamps the
        correlation fields: the parent's ``span_id`` and the active
        request's ``request_id`` — which is how synthetic pool-worker
        spans stay attributable to their request even though the worker
        process never saw the context variable.
        """
        current = _CURRENT_SPAN.get()
        parent = current[1] if current is not None and current[0] is self else None
        if not entry.span_id:
            entry.span_id = new_span_id()
        if parent is not None and not entry.parent_id:
            entry.parent_id = parent.span_id
        if not entry.request_id:
            ctx = current_request()
            if ctx is not None:
                entry.request_id = ctx.request_id
        with self._lock:
            (parent.children if parent is not None else self.spans).append(entry)

    # -- reading ---------------------------------------------------------

    def flat_spans(self) -> list[Span]:
        """All spans in pre-order, flattened out of the tree."""
        out: list[Span] = []

        def visit(s: Span) -> None:
            out.append(s)
            for c in s.children:
                visit(c)

        for s in list(self.spans):
            visit(s)
        return out

    def to_dict(self) -> dict:
        """JSON-ready representation of all spans."""
        return {"spans": [s.to_dict() for s in self.spans]}

    def render_text(self) -> str:
        """Human-readable span tree."""
        lines: list[str] = []

        def visit(s: Span, depth: int) -> None:
            meta = (
                "  " + " ".join(f"{k}={v}" for k, v in s.meta.items())
                if s.meta
                else ""
            )
            lines.append(f"{'  ' * depth}{s.name:<32} {s.duration_ms:9.3f} ms{meta}")
            for c in s.children:
                visit(c, depth + 1)

        for s in self.spans:
            visit(s, 0)
        return "\n".join(lines)


@contextmanager
def observing(observer: Observer | None = None) -> Iterator[Observer]:
    """Activate an observer for the dynamic extent of the ``with`` block."""
    obs = observer if observer is not None else Observer()
    token = _OBSERVER.set(obs)
    try:
        yield obs
    finally:
        _OBSERVER.reset(token)


def active() -> Observer | None:
    """The currently active observer, or ``None`` when observation is off."""
    return _OBSERVER.get()


def current_span() -> Span | None:
    """The innermost open span of the *active* observer, or ``None``.

    Used by the engine's singleflight layer: the coalescing leader
    publishes its open ``engine.compile`` span's identity on the flight
    so follower spans can link to it.
    """
    obs = _OBSERVER.get()
    current = _CURRENT_SPAN.get()
    if obs is None or current is None or current[0] is not obs:
        return None
    return current[1]


class _NullSpan:
    """Shared do-nothing span context used when no observer is active."""

    def __enter__(self) -> Span:
        return Span("<disabled>")

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **meta):
    """Module-level :meth:`Observer.span`; a no-op context manager when no
    observer is active."""
    obs = _OBSERVER.get()
    if obs is None:
        return _NULL_SPAN
    return obs.span(name, **meta)
