"""Observability: rewrite tracing, layer spans, run reports.

The paper's thesis is that optimizations are *inspectable, user-defined
rewrite sequences*; this package is the inspection half of that claim.
Two switches, both off by default and scoped with context managers
(zero behavioural effect on rewriting, codegen or execution when
disabled), activate its recorders:

* :mod:`repro.observe.core` — the one span record: every layer (rewrite,
  codegen phases, C print, gcc, kernel runs, engine, serve) opens a
  timed span (:func:`observing`, :func:`span`);
* :mod:`repro.observe.trace` — per-rule rewrite tracing threaded through
  ``Strategy.__call__`` (:func:`tracing`, :class:`TraceCollector`);
* :mod:`repro.observe.report` / :mod:`repro.observe.derivation` — the
  JSON run report, its per-program compile profile (a view over the
  span tree, :func:`compile_profiles`) and the paper-style derivation
  pretty-printer;
* :mod:`repro.observe.metrics` — the always-on process-wide metrics
  registry (counters, gauges, quantile histograms) with a JSON
  snapshot exporter (:func:`metrics_registry`, :func:`inc`, ...);
* :mod:`repro.observe.traceevent` — Chrome trace-event export of any
  observer's span tree (:func:`save_trace`), loadable in Perfetto;
* :mod:`repro.observe.context` — per-request correlation
  (``request_id``/``trace_id`` context variables stamped onto every span
  and event recorded while serving one request);
* :mod:`repro.observe.events` — the structured JSONL event log
  (``repro.observe.events/v1``): a ring-buffered flight recorder plus an
  optional rotating file sink for serve/engine decision events.
"""

from repro.observe.context import (
    RequestContext,
    current_request,
    ensure_request,
    new_request_id,
    new_span_id,
    new_trace_id,
    request_scope,
)
from repro.observe.core import (
    Observer,
    Span,
    active,
    current_span,
    observing,
    span,
)
from repro.observe.events import (
    EVENTS_SCHEMA,
    EventLog,
    emit,
    event_log,
    read_events,
    request_timeline,
    reset_event_log,
)
from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    inc,
    observe_value,
    registry as metrics_registry,
    reset_registry,
    set_gauge,
)
from repro.observe.traceevent import (
    save_trace,
    to_chrome_trace,
    trace_events,
    validate_chrome_trace,
)
from repro.observe.derivation import derivation_stats, format_derivation
from repro.observe.report import SCHEMA, RunReport, compile_profiles
from repro.observe.trace import RuleEvent, TraceCollector, trace_active, tracing

__all__ = [
    "Observer",
    "Span",
    "active",
    "observing",
    "span",
    "RuleEvent",
    "TraceCollector",
    "trace_active",
    "tracing",
    "SCHEMA",
    "RunReport",
    "compile_profiles",
    "derivation_stats",
    "format_derivation",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_registry",
    "reset_registry",
    "inc",
    "set_gauge",
    "observe_value",
    "save_trace",
    "to_chrome_trace",
    "trace_events",
    "validate_chrome_trace",
    "RequestContext",
    "current_request",
    "current_span",
    "ensure_request",
    "new_request_id",
    "new_span_id",
    "new_trace_id",
    "request_scope",
    "EVENTS_SCHEMA",
    "EventLog",
    "emit",
    "event_log",
    "read_events",
    "request_timeline",
    "reset_event_log",
]
