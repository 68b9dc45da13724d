"""Ablation study: the contribution of each optimization strategy.

DESIGN.md E6: section IV motivates each strategy; this bench toggles them
individually, costing each variant on one machine so the benefit of
multi-threading, vectorization, circular buffering, convolution separation
and register rotation can be read off directly.  (The paper shows the
endpoints of this spectrum in figs. 1 and 8; the ablation is our index of
the design choices in between.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.codegen import compile_program
from repro.elevate.core import apply_once, normalize, try_
from repro.image import PAPER_IMAGE_SMALL
from repro.perf.cost import estimate_runtime_ms
from repro.perf.machines import CORTEX_A53, Machine
from repro.pipelines import registry
from repro.rules.conv import rotate_values_consume, separate_conv_line, separate_conv_line_zip
from repro.strategies import Schedule
from repro.strategies.harris import (
    circular_buffer_stages,
    fuse_operators,
    harris_ix_with_iy,
    parallel,
    sequential,
    simplify,
    split_pipeline,
    unroll_reductions,
    use_private_memory,
    vectorize_reductions,
)

__all__ = ["ablation_variants", "run_ablation", "AblationRow"]


def _sequential_chunk():
    """Implement the chunk map with a sequential loop instead of mapGlobal."""
    from repro.rules.lowering import use_map_seq

    strategy = apply_once(use_map_seq)
    strategy.name = "sequentialChunk"
    return strategy


@dataclass
class AblationRow:
    variant: str
    runtime_ms: float
    slowdown_vs_full: float


def ablation_variants(type_env, chunk: int = 32, vec: int = 4) -> dict[str, Schedule]:
    """Listing 9 with one optimization removed.  The two variants that
    are paper schedules themselves are not restated here: the full
    schedule is listing 9 (``cbuf-rot``) and "no rotation" is listing 5
    (``cbuf``), both compiled by :func:`~repro.bench.harness.compile_all`."""
    sep = try_(normalize(separate_conv_line | separate_conv_line_zip))
    rot = try_(normalize(rotate_values_consume))

    def schedule(name, steps):
        return Schedule(name=name, steps=steps)

    base_prefix = [fuse_operators, harris_ix_with_iy, split_pipeline(chunk), parallel, simplify, harris_ix_with_iy]
    tail = [sequential, use_private_memory(), unroll_reductions]

    return {
        "no circular buffering": schedule(
            "no-cbuf",
            base_prefix + [sep, vectorize_reductions(vec, type_env), harris_ix_with_iy, rot] + tail,
        ),
        "no vectorization": schedule(
            "no-vec",
            base_prefix + [sep, circular_buffer_stages, rot] + tail,
        ),
        "no multi-threading": schedule(
            "no-parallel",
            [fuse_operators, harris_ix_with_iy, split_pipeline(chunk),
             _sequential_chunk(), simplify, harris_ix_with_iy,
             sep, vectorize_reductions(vec, type_env), harris_ix_with_iy,
             circular_buffer_stages, rot]
            + tail,
        ),
        "no unrolling": schedule(
            "no-unroll",
            base_prefix
            + [sep, vectorize_reductions(vec, type_env), harris_ix_with_iy,
               circular_buffer_stages, rot, sequential, use_private_memory()],
        ),
    }


@lru_cache(maxsize=2)
def _compiled_variants(chunk: int = 32, vec: int = 4):
    from repro.bench.harness import compile_all

    programs = compile_all(chunk, vec)
    out = {
        "full (cbuf+rot)": programs["RISE (cbuf+rot)"],
        "no rotation (cbuf)": programs["RISE (cbuf)"],
    }
    spec = registry.get("harris")
    senv = spec.type_env()
    for name, sched in ablation_variants(senv, chunk, vec).items():
        low = sched.apply(spec.expr())
        out[name] = compile_program(low, senv, sched.name.replace("-", "_"))
    return out


def run_ablation(
    machine: Machine = CORTEX_A53, chunk: int = 32, vec: int = 4
) -> list[AblationRow]:
    """Cost every variant on one machine (paper image, small)."""
    from repro.bench.harness import padded_sizes

    programs = _compiled_variants(chunk, vec)
    sizes = padded_sizes(PAPER_IMAGE_SMALL, chunk, vec)
    times = {
        name: estimate_runtime_ms(prog, sizes, machine, registry.RISE_KIND).runtime_ms
        for name, prog in programs.items()
    }
    full = times["full (cbuf+rot)"]
    return [
        AblationRow(name, t, t / full)
        for name, t in sorted(times.items(), key=lambda kv: kv[1])
    ]
