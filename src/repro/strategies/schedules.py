"""Complete optimization schedules (paper listings 5 and 9) plus the
baseline lowerings used in the evaluation.

A schedule is a named composition of the strategies of
:mod:`repro.strategies.harris` that takes a high-level program to a
low-level program ready for code generation.  Its ``try_``/``repeat``
steps change nothing on a program without the structure they rewrite,
so a schedule fails unless its output has the markers it ``requires``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.elevate.core import Strategy, StrategyError, normalize, try_
from repro.rise.expr import Expr
from repro.rise.traverse import subterms
from repro.rise.types import Type
from repro.rules.conv import rotate_values_consume, separate_conv_line, separate_conv_line_zip
from repro.strategies.harris import (
    circular_buffer_stages,
    fuse_operators,
    harris_ix_with_iy,
    parallel,
    sequential,
    simplify,
    split_pipeline,
    strip_parallel,
    unroll_reductions,
    use_private_memory,
    vectorize_reductions,
)

__all__ = [
    "Schedule",
    "ScheduleNotApplicable",
    "MARKER_KINDS",
    "markers",
    "cbuf_version",
    "cbuf_rrot_version",
    "cbuf_par_version",
    "cbuf_rrot_par_version",
    "naive_version",
    "DEFAULT_CHUNK",
    "DEFAULT_VEC",
    "DEFAULT_STRIP",
]

DEFAULT_CHUNK = 32
DEFAULT_VEC = 4

#: Chunks per thread strip of the strip-parallel schedule variants: each
#: global thread owns ``DEFAULT_STRIP`` consecutive 32-line chunks.
DEFAULT_STRIP = 2


#: The node kinds that witness a schedule's optimizations in its output.
MARKER_KINDS = ("CircularBuffer", "RotateValues", "MapSeqVec", "MapGlobal", "Split")


def markers(expr: Expr) -> dict[str, int]:
    """Count the :data:`MARKER_KINDS` nodes of ``expr`` in one walk."""
    kinds = Counter(type(node).__name__ for node in subterms(expr))
    return {kind: kinds[kind] for kind in MARKER_KINDS}


class ScheduleNotApplicable(StrategyError):
    """A schedule ran, but the optimization it names did not fire;
    ``counts`` are the :func:`markers` of the program it produced."""

    def __init__(self, schedule: str, missing: str, counts: Mapping[str, int]):
        super().__init__(schedule, missing, counts)
        self.schedule, self.missing, self.counts = schedule, missing, dict(counts)

    def __str__(self) -> str:
        found = ", ".join(f"{k}={v}" for k, v in self.counts.items())
        return f"schedule {self.schedule!r} does not apply: no {self.missing} in its output ({found})"


@dataclass
class Schedule:
    """A named strategy pipeline from high-level to low-level RISE whose
    output must contain the :data:`MARKER_KINDS` it ``requires``."""

    name: str
    steps: list[Strategy]
    requires: tuple[str, ...] = ()

    def apply(self, program: Expr) -> Expr:
        """Run every step, then check :attr:`requires`."""
        for _, program in self._derive(program):
            pass
        return program

    def apply_traced(self, program: Expr) -> list[tuple[str, Expr]]:
        """Apply, returning (step name, program after step) pairs."""
        return list(self._derive(program))

    def _derive(self, program: Expr) -> Iterator[tuple[str, Expr]]:
        yield "input", program
        for step in self.steps:
            program = step.apply(program)
            yield step.name, program
        if self.requires:
            counts = markers(program)
            for kind in self.requires:
                if not counts[kind]:
                    raise ScheduleNotApplicable(self.name, kind, counts)


def cbuf_version(
    type_env: Mapping[str, Type],
    chunk: int = DEFAULT_CHUNK,
    vec: int = DEFAULT_VEC,
) -> Schedule:
    """Listing 5: the ELEVATE strategy reproducing the reference Halide
    schedule — operator fusion, multi-threading over 32-line chunks,
    vectorization, sobel sharing, circular buffering, sequential line
    loops and unrolled reductions."""
    return Schedule(
        name="rise-cbuf",
        steps=[
            fuse_operators,
            harris_ix_with_iy,
            split_pipeline(chunk),
            parallel,
            simplify,
            harris_ix_with_iy,
            vectorize_reductions(vec, type_env),
            harris_ix_with_iy,
            circular_buffer_stages,
            sequential,
            use_private_memory(),
            unroll_reductions,
        ],
        requires=("CircularBuffer",),
    )


def cbuf_rrot_version(
    type_env: Mapping[str, Type],
    chunk: int = DEFAULT_CHUNK,
    vec: int = DEFAULT_VEC,
) -> Schedule:
    """Listing 9: listing 5 plus convolution separation and register
    rotation — the optimizations beyond Halide."""
    return Schedule(
        name="rise-cbuf-rrot",
        steps=[
            fuse_operators,
            harris_ix_with_iy,
            split_pipeline(chunk),
            parallel,
            simplify,
            harris_ix_with_iy,
            try_(normalize(separate_conv_line | separate_conv_line_zip)),
            vectorize_reductions(vec, type_env),
            harris_ix_with_iy,
            circular_buffer_stages,
            try_(normalize(rotate_values_consume)),
            sequential,
            use_private_memory(),
            unroll_reductions,
        ],
        requires=("RotateValues",),
    )


def cbuf_par_version(
    type_env: Mapping[str, Type],
    chunk: int = DEFAULT_CHUNK,
    vec: int = DEFAULT_VEC,
    strip: int = DEFAULT_STRIP,
) -> Schedule:
    """``cbuf+par``: listing 5 plus explicit strip parallelization — the
    chunk-level ``mapGlobal`` is regrouped into per-thread strips of
    ``strip`` chunks (Halide's ``parallel(y)`` with static chunking), so
    the multicore backends execute one strip per thread (``stripParallel``
    fails on a program with no ``mapGlobal``)."""
    base = cbuf_version(type_env, chunk=chunk, vec=vec)
    return Schedule("rise-cbuf-par", [*base.steps, strip_parallel(strip)], base.requires)


def cbuf_rrot_par_version(
    type_env: Mapping[str, Type],
    chunk: int = DEFAULT_CHUNK,
    vec: int = DEFAULT_VEC,
    strip: int = DEFAULT_STRIP,
) -> Schedule:
    """``cbuf+rot+par``: listing 9 plus strip parallelization — the
    schedule the wall-clock evaluation runs across thread counts."""
    base = cbuf_rrot_version(type_env, chunk=chunk, vec=vec)
    return Schedule("rise-cbuf-rrot-par", [*base.steps, strip_parallel(strip)], base.requires)


def naive_version(type_env: Mapping[str, Type] | None = None) -> Schedule:
    """A deliberately unoptimized lowering: inline everything and implement
    every pattern sequentially (no fusion control, no parallelism, no
    vectorization, no buffering).  Used as a sanity baseline."""
    from repro.rules.algorithmic import let_inline
    from repro.rules.lowering import use_map_seq, use_reduce_seq
    from repro.elevate.core import normalize

    return Schedule(
        name="rise-naive",
        steps=[
            normalize(let_inline),
            simplify,
            try_(normalize(use_map_seq | use_reduce_seq)),
        ],
    )
