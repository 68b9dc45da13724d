"""Automated schedule discovery: beam search over ELEVATE rewrites.

The autotuner closes the loop the paper series points at — strategies
were designed to be *searched*, not only authored.  It composes the
repo's existing subsystems rather than growing new machinery:

* the search space is named macro-actions over :mod:`repro.rules`
  rewrites (:mod:`repro.tune.space`), probed for applicability through
  :func:`repro.rules.match.rewrite_sites`;
* candidates are scored by the analytic cost model via a frozen
  :class:`repro.perf.objective.CostObjective`;
* states are deduplicated and memoized through the engine's
  alpha-invariant :func:`~repro.engine.hashing.structural_hash` and
  :class:`~repro.engine.memo.Memo` tables;
* survivors are validated against the differential oracle
  (:mod:`repro.tune.verify`) before export;
* winners become ordinary :class:`~repro.strategies.schedules.Schedule`
  objects (:mod:`repro.tune.export`).

Run it via ``tools/tune.py`` (resumable search logs) or
programmatically::

    from repro.tune import TuneConfig, beam_search
    result = beam_search(harris(rgb), env, TuneConfig(beam=4, steps=6))
    sched = schedule_from_actions(result.best.actions, env)
"""

from repro.tune.export import (
    discovered_name,
    handwritten_costs,
    schedule_from_actions,
    size_multiples,
    wall_rank,
)
from repro.tune.search import (
    SEARCH_LOG_SCHEMA,
    Candidate,
    TuneConfig,
    TuneResult,
    beam_search,
)
from repro.tune.space import (
    Action,
    completion_steps,
    default_action_pool,
    resolve_actions,
)
from repro.tune.verify import make_inputs, verification_sizes, verify_schedule

__all__ = [
    "SEARCH_LOG_SCHEMA",
    "TuneConfig",
    "Candidate",
    "TuneResult",
    "beam_search",
    "Action",
    "default_action_pool",
    "completion_steps",
    "resolve_actions",
    "discovered_name",
    "schedule_from_actions",
    "size_multiples",
    "handwritten_costs",
    "wall_rank",
    "verify_schedule",
    "verification_sizes",
    "make_inputs",
]
