"""Structured run reports: one JSON document per compile-and-run.

A :class:`RunReport` bundles everything the observability layer collects
about one end-to-end run — derivation statistics, per-phase compile
timings, executed kernels and quality metrics — under a stable schema
(:data:`SCHEMA`), with JSON and text renderers.  The bench harness and
``examples/harris_pipeline.py --trace`` both emit it.

The ``compile`` section is :func:`compile_profiles`, a read-only view
over an :class:`~repro.observe.core.Observer`'s span tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.observe.core import Observer, Span

__all__ = ["SCHEMA", "RunReport", "compile_profiles"]

#: Schema identifier; bump the version when report keys change shape.
#: v2 added the ``engine`` section (compile-cache and batch-execution
#: statistics, itself schema-versioned as ``repro.engine.report/v1``);
#: v3 dropped ``execution.counters`` (counts live in ``metrics.registry``).
SCHEMA = "repro.observe.report/v3"

#: The fixed top-level keys of every report, in serialization order.
TOP_LEVEL_KEYS = (
    "schema",
    "name",
    "environment",
    "derivation",
    "compile",
    "engine",
    "execution",
    "metrics",
)


@dataclass
class RunReport:
    """One run's worth of observability data.

    Sections:
        environment: run parameters (image sizes, chunk/vec factors, …).
        derivation: per-schedule rewrite statistics
            (see :func:`repro.observe.derivation.derivation_stats`).
        compile: per-program compile profiles (see :func:`compile_profiles`).
        engine: compile-cache hit/miss accounting and batch-execution
            throughput from :mod:`repro.engine` (schema-versioned).
        execution: executed kernels and their timings.
        metrics: quality/performance numbers (PSNR, modeled runtimes).
    """

    name: str
    environment: dict = field(default_factory=dict)
    derivation: dict = field(default_factory=dict)
    compile: list = field(default_factory=list)
    engine: dict = field(default_factory=dict)
    execution: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The full report as a JSON-ready dict with stable key order."""
        return {
            "schema": SCHEMA,
            "name": self.name,
            "environment": self.environment,
            "derivation": self.derivation,
            "compile": self.compile,
            "engine": self.engine,
            "execution": self.execution,
            "metrics": self.metrics,
        }

    def to_json(self, indent: int = 2) -> str:
        """The full report serialized as JSON."""
        return json.dumps(self.to_dict(), indent=indent, default=_jsonable)

    def save(self, path) -> None:
        """Write the JSON report to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def render_text(self) -> str:
        """A compact human-readable summary of every populated section."""
        lines = [f"run report: {self.name}   ({SCHEMA})"]
        if self.environment:
            lines.append("environment:")
            for key, value in self.environment.items():
                lines.append(f"  {key} = {value}")
        for schedule, stats in self.derivation.items():
            rules = stats.get("rules", {})
            applications = rules.get("rule_applications")
            suffix = f"  rule applications={applications}" if applications is not None else ""
            lines.append(f"derivation [{schedule}]: {len(stats.get('steps', []))} steps{suffix}")
            for row in rules.get("top_fired", [])[:5]:
                lines.append(f"  fired {row['rule']:<44} {row['count']:>6}")
        for profile in self.compile:
            phases = profile.get("phases", [])
            total = sum(p.get("wall_ms", 0.0) for p in phases)
            lines.append(f"compile [{profile.get('program')}]: {total:.1f} ms")
            for p in phases:
                extra = " ".join(
                    f"{k}={v}" for k, v in p.items()
                    if k not in ("name", "wall_ms", "calls")
                )
                lines.append(
                    f"  {p['name']:<18} {p['wall_ms']:9.3f} ms  x{p['calls']:<4} {extra}"
                )
        if self.engine:
            lines.append("engine:")
            cache = self.engine.get("cache", {})
            if cache:
                lines.append(
                    f"  cache: {cache.get('hits', 0)} hits"
                    f" ({cache.get('memory_hits', 0)} memory,"
                    f" {cache.get('disk_hits', 0)} disk),"
                    f" {cache.get('misses', 0)} misses"
                )
            batch = self.engine.get("batch", {})
            if batch:
                lines.append(
                    f"  batch: {batch.get('items', 0)} items x"
                    f" {batch.get('workers', 0)} workers ({batch.get('mode', '?')}),"
                    f" {batch.get('throughput_items_per_s', 0)} items/s"
                )
        if self.execution:
            lines.append("execution:")
            for key, value in self.execution.items():
                lines.append(f"  {key} = {value}")
        if self.metrics:
            lines.append("metrics:")
            for key, value in self.metrics.items():
                lines.append(f"  {key} = {value}")
        return "\n".join(lines)


#: The spans that compile one program, keyed by their ``program=`` meta:
#: ``codegen.lower`` (its descendants are the phases) and
#: ``codegen.print`` (a phase of its own).
PROGRAM_SPANS = ("codegen.lower", "codegen.print")


def compile_profiles(observer: Observer) -> list[dict]:
    """Per-program compile profiles: a view over ``observer``'s spans.

    Each program's phases are the spans below its ``codegen.lower``
    spans plus its ``codegen.print`` spans, summed by span name in
    first-seen order (``calls`` counts repeats, e.g. one
    ``codegen.vectorize`` per strip loop; nested phases double-count, as
    ``codegen.vectorize`` runs inside ``codegen.emit``).  Returns
    ``[{"program", **lower_meta, "phases": [{"name", "wall_ms",
    "calls", **meta}]}]``.
    """
    profiles: dict[Any, tuple[dict, dict]] = {}

    def add(table: dict, s: Span, meta: dict) -> None:
        stat = table.setdefault(s.name, {"name": s.name, "wall_ms": 0.0, "calls": 0})
        stat["wall_ms"] += s.duration_ms
        stat["calls"] += 1
        stat.update(meta)

    def phases(s: Span) -> Iterator[Span]:
        for child in s.children:
            if child.name not in PROGRAM_SPANS:
                yield child
                yield from phases(child)

    for s in observer.flat_spans():
        if s.name not in PROGRAM_SPANS:
            continue
        program = s.meta.get("program")
        head, table = profiles.setdefault(program, ({"program": program}, {}))
        meta = {k: v for k, v in s.meta.items() if k != "program"}
        if s.name == "codegen.print":
            add(table, s, meta)
            continue
        head.update(meta)
        for p in phases(s):
            add(table, p, p.meta)
    return [
        {**head, "phases": [{**st, "wall_ms": round(st["wall_ms"], 3)} for st in table.values()]}
        for head, table in profiles.values()
    ]


def _jsonable(value: Any):
    """Fallback serializer for numpy scalars and other oddballs."""
    for attr in ("item",):
        if hasattr(value, attr):
            return value.item()
    return str(value)
