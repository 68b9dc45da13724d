"""Turning search results into replayable schedules.

A search result is an action-name sequence.  This module makes it a
first-class artifact:

* :func:`schedule_from_actions` — rebuild the exact
  :class:`~repro.strategies.schedules.Schedule` (actions + the fixed
  completion suffix) from recorded names, under a deterministic
  ``tuned-<digest>`` name, so a discovered schedule replays anywhere the
  hand-written ones do (``repro.compile(expr, strategy=sched, ...)``);
* :func:`handwritten_costs` — the hand-written schedules' scores under
  the same objective, the bar a discovery must clear;
* :func:`wall_rank` — optional measured ranking of finalists through
  the engine's :class:`~repro.engine.batch.BatchRunner`.
"""

from __future__ import annotations

import hashlib
import math
from typing import Mapping, Sequence

from repro.engine.pipeline import Engine
from repro.perf.objective import CostObjective
from repro.rise.types import Type
from repro.strategies.schedules import (
    Schedule,
    cbuf_rrot_version,
    cbuf_version,
    naive_version,
)
from repro.tune.space import (
    DEFAULT_CHUNK_GRID,
    DEFAULT_STRIP_GRID,
    DEFAULT_VEC_GRID,
    completion_steps,
    resolve_actions,
)

__all__ = [
    "discovered_name",
    "schedule_from_actions",
    "size_multiples",
    "handwritten_costs",
    "wall_rank",
]

def discovered_name(action_names: Sequence[str]) -> str:
    """Deterministic schedule name for an action sequence:
    ``tuned-<8 hex chars of blake2b over the names>``."""
    digest = hashlib.blake2b(
        "|".join(action_names).encode("utf-8"), digest_size=4
    ).hexdigest()
    return f"tuned-{digest}"


def schedule_from_actions(
    action_names: Sequence[str],
    type_env: Mapping[str, Type],
    name: str | None = None,
    chunks: Sequence[int] = DEFAULT_CHUNK_GRID,
    vecs: Sequence[int] = DEFAULT_VEC_GRID,
    strips: Sequence[int] = DEFAULT_STRIP_GRID,
) -> Schedule:
    """Rebuild the runnable schedule a search discovered.

    The schedule's steps are the resolved action strategies followed by
    the same :func:`~repro.tune.space.completion_steps` the search
    scored with, so the exported schedule is exactly the program the
    search ranked — not a re-derivation that might diverge.
    """
    actions = resolve_actions(action_names, type_env, chunks, vecs, strips)
    steps = [a.strategy for a in actions] + completion_steps(type_env)
    return Schedule(name=name or discovered_name(action_names), steps=steps)


def size_multiples(
    action_names: Sequence[str],
    type_env: Mapping[str, Type],
    chunks: Sequence[int] = DEFAULT_CHUNK_GRID,
    vecs: Sequence[int] = DEFAULT_VEC_GRID,
    strips: Sequence[int] = DEFAULT_STRIP_GRID,
) -> tuple[int, int]:
    """The ``(n, m)`` divisibility an action sequence imposes on sizes."""
    n_mult = m_mult = 1
    for a in resolve_actions(action_names, type_env, chunks, vecs, strips):
        n_mult = math.lcm(n_mult, a.n_multiple)
        m_mult = math.lcm(m_mult, a.m_multiple)
    return n_mult, m_mult


def handwritten_costs(
    seed_expr,
    type_env: Mapping[str, Type],
    objective: CostObjective | None = None,
    engine: Engine | None = None,
) -> dict[str, float]:
    """Objective scores of the hand-written schedules — the bar to clear.

    Returns ``schedule name -> modeled ms`` for ``naive``, ``cbuf`` and
    ``cbuf+rot`` under exactly the search objective, so "matches or
    beats ``cbuf+rot``" is a comparison of like with like.
    """
    objective = objective or CostObjective()
    eng = engine if engine is not None else Engine()
    out: dict[str, float] = {}
    for sched in (
        naive_version(dict(type_env)),
        cbuf_version(dict(type_env)),
        cbuf_rrot_version(dict(type_env)),
    ):
        program = eng.compile(
            seed_expr,
            strategy=sched,
            type_env=dict(type_env),
            name=sched.name.replace("-", "_"),
        ).program
        out[sched.name] = objective.score(program)
    return out


def wall_rank(
    schedules: Mapping[str, Schedule],
    seed_expr,
    type_env: Mapping[str, Type],
    sizes: Mapping[str, int],
    inputs: Mapping[str, "object"],
    repeats: int = 3,
    backend: str | None = None,
    engine: Engine | None = None,
) -> dict[str, float]:
    """Measured wall-clock ranking of finalist schedules.

    Compiles each schedule once (C backend when a host compiler exists,
    Python otherwise) and batches ``repeats`` identical runs through
    :meth:`~repro.engine.pipeline.CompiledPipeline.run_batch`, taking the
    min item latency (min-of-k).  Returns ``schedule name -> ms``, cheapest first.
    """
    from repro.exec import available_backends

    if backend is None:
        backend = "c" if "c" in available_backends() else "python"
    eng = engine if engine is not None else Engine()
    ranked: dict[str, float] = {}
    for name, sched in schedules.items():
        pipeline = eng.compile(
            seed_expr,
            strategy=sched,
            type_env=dict(type_env),
            backend=backend,
            sizes=dict(sizes),
            name=name.replace("-", "_"),
        )
        batch = pipeline.run_batch([dict(inputs) for _ in range(max(1, repeats))])
        ranked[name] = min(batch.item_wall_ms)
    return dict(sorted(ranked.items(), key=lambda kv: kv[1]))
