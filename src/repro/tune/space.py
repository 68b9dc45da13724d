"""The autotuner's search space: named macro-actions over ELEVATE rewrites.

A search step is not a single rule application.  Raw rules compose into
astronomically many mostly-equivalent sequences, and the paper's own
schedules show the useful granularity: *macro* moves ("split the
pipeline and parallelize it", "separate the convolutions") that bundle
one optimization decision with the cleanup normalization it needs.  Each
:class:`Action` wraps such a move as an ELEVATE strategy, optionally
paired with a cheap *probe* rule the search uses (via
:func:`repro.rules.match.rewrite_sites`) to count applicable sites
before paying for the full rewrite.

The :func:`default_action_pool` enumerates the paper's optimization
vocabulary with small parameter grids (chunk sizes, vector widths, strip
factors); :func:`completion_steps` is the fixed lowering suffix applied
to every candidate before scoring — the search explores *optimization*
decisions, and completion makes any prefix of them executable (or fails,
pruning candidates that cannot be lowered).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.elevate.core import Strategy, normalize, seq, try_
from repro.rise.types import AddressSpace, Type
from repro.rules.algorithmic import let_inline
from repro.rules.conv import (
    rotate_values_consume,
    separate_conv_line,
    separate_conv_line_zip,
)
from repro.rules.lowering import slide_to_circular_buffer
from repro.strategies.harris import (
    circular_buffer_stages,
    fuse_operators,
    parallel,
    sequential,
    share_stages,
    simplify,
    split_pipeline,
    strip_parallel,
    unroll_reductions,
    use_private_memory,
    vectorize_reductions,
)

__all__ = [
    "Action",
    "DEFAULT_CHUNK_GRID",
    "DEFAULT_VEC_GRID",
    "DEFAULT_STRIP_GRID",
    "default_action_pool",
    "completion_steps",
    "resolve_actions",
]

#: Chunk-size grid for the split actions (lines per parallel chunk).
DEFAULT_CHUNK_GRID = (16, 32, 64)

#: Vector-width grid (f32 lanes) for the vectorization actions.
DEFAULT_VEC_GRID = (4, 8)

#: Strip-factor grid (chunks per thread strip) for strip parallelization.
DEFAULT_STRIP_GRID = (2,)


@dataclass
class Action:
    """One named move in the search space.

    ``strategy`` performs the move (a full-program ELEVATE strategy); a
    ``Failure`` from it marks the action inapplicable in the current
    state, which the search prunes without error.  ``probe``, when set,
    is a cheap leaf rule whose :func:`~repro.rules.match.rewrite_sites`
    count predicts applicability — zero sites lets the search skip the
    strategy entirely.  ``n_multiple`` / ``m_multiple`` record the
    divisibility this action imposes on the output sizes (a chunked
    split needs ``chunk | n``; a vectorized line needs ``vec | m``), so
    verification can pick the smallest legal concrete sizes for any
    action sequence.
    """

    name: str
    strategy: Strategy
    probe: Strategy | None = None
    n_multiple: int = 1
    m_multiple: int = 1


def completion_steps(type_env: Mapping[str, Type]) -> list[Strategy]:
    """The fixed lowering suffix appended to every candidate.

    Inline the dataflow lets (a no-op after ``fuse``), clean up, lower
    the remaining high-level patterns to sequential loops, pin rotation
    windows to private memory and unroll the small reductions — the
    steps every hand schedule ends with.  Scoring and export both use
    this suffix, so the cost the search minimizes is the cost of the
    schedule it ultimately exports.
    """
    del type_env  # completion is untyped today; keep the typed signature
    inline = normalize(let_inline)
    return [
        inline,
        simplify,
        sequential,
        use_private_memory(),
        unroll_reductions,
    ]


def default_action_pool(
    type_env: Mapping[str, Type],
    chunks: Sequence[int] = DEFAULT_CHUNK_GRID,
    vecs: Sequence[int] = DEFAULT_VEC_GRID,
    strips: Sequence[int] = DEFAULT_STRIP_GRID,
) -> list[Action]:
    """The paper-vocabulary action pool for a program typed by ``type_env``.

    Each action bundles one optimization decision with its natural
    cleanup (the generic sharing pass — the paper's ``harrisIxWithIy`` —
    after moves that duplicate producers), mirroring how listings 5 and
    9 compose.  Nothing in the pool is specific to Harris: split, strip
    and vector factors are grid parameters, the separation rules match
    any constant-size stencil, and a named schedule that does not fire
    on a registered pipeline raises
    :class:`~repro.strategies.schedules.ScheduleNotApplicable`.  The
    vocabulary:

    * ``fuse`` — inline and fuse the dataflow graph into a line pipeline;
    * ``split(c)+parallel`` — chunk the output into ``c``-line chunks and
      run chunks across global threads;
    * ``separateConvolutions`` — factor the 2D stencils into vertical x
      horizontal passes;
    * ``vectorize(w)`` — SIMD-vectorize the per-line loops at width ``w``;
    * ``circularBufferStages`` — buffer lines between stages;
    * ``rotateValues`` — consume separated convolutions through rotating
      register windows;
    * ``stripParallel(k)`` — regroup the global chunk map into per-thread
      strips of ``k`` chunks.

    The grids keep the space small but genuinely multi-choice: the
    search must discover both the *order* of moves and the *parameters*
    the hand schedules hard-code.
    """
    pool: list[Action] = [
        Action("fuse", seq(fuse_operators, share_stages)),
    ]
    for c in chunks:
        pool.append(
            Action(
                f"split({c})+parallel",
                seq(seq(split_pipeline(c), parallel), seq(simplify, share_stages)),
                n_multiple=int(c),
            )
        )
    sepconv = separate_conv_line | separate_conv_line_zip
    pool.append(
        Action(
            "separateConvolutions",
            normalize(sepconv),
            probe=sepconv,
        )
    )
    for w in vecs:
        pool.append(
            Action(
                f"vectorize({w})",
                seq(vectorize_reductions(w, type_env), share_stages),
                m_multiple=int(w),
            )
        )
    pool.append(
        Action(
            "circularBufferStages",
            circular_buffer_stages,
            probe=slide_to_circular_buffer(AddressSpace.GLOBAL),
        )
    )
    pool.append(
        Action(
            "rotateValues",
            normalize(rotate_values_consume),
            probe=rotate_values_consume,
        )
    )
    for k in strips:
        pool.append(
            Action(
                f"stripParallel({k})",
                strip_parallel(k),
                n_multiple=int(k),
            )
        )
    # Name each strategy after its action so search logs, schedule step
    # names and strategy identities all agree.  Safe because every
    # strategy here is either freshly composed or (circularBufferStages)
    # a shared object whose name already equals the action name.
    for action in pool:
        action.strategy.name = action.name
    return pool


def resolve_actions(
    names: Sequence[str],
    type_env: Mapping[str, Type],
    chunks: Sequence[int] = DEFAULT_CHUNK_GRID,
    vecs: Sequence[int] = DEFAULT_VEC_GRID,
    strips: Sequence[int] = DEFAULT_STRIP_GRID,
) -> list[Action]:
    """Resolve recorded action names back to live :class:`Action` objects.

    The inverse of a search log / exported schedule: given the names a
    search recorded, rebuild the actions against a (possibly different)
    ``type_env``.  Unknown names raise ``KeyError`` listing the pool, so
    a log replayed against a mismatched grid fails loudly instead of
    silently skipping moves.
    """
    pool = {
        a.name: a for a in default_action_pool(type_env, chunks, vecs, strips)
    }
    missing = [n for n in names if n not in pool]
    if missing:
        known = ", ".join(sorted(pool))
        raise KeyError(f"unknown action(s) {missing!r} (known: {known})")
    return [pool[n] for n in names]
