"""ELEVATE optimization strategies for the Harris pipeline (paper section IV)."""

from repro.strategies.discovered import (
    TUNED_SCHEDULES, register_tuned_schedule, tuned_schedule,
)
from repro.strategies.harris import (
    circular_buffer_stages, fuse_operators, harris_ix_with_iy, lower_dot, share_stages,
    parallel, sequential, simplify, split_pipeline, strip_parallel,
    unroll_reductions, use_private_memory, vectorize_reductions,
)
from repro.strategies.schedules import (
    DEFAULT_CHUNK, DEFAULT_STRIP, DEFAULT_VEC, Schedule, ScheduleNotApplicable,
    cbuf_par_version, cbuf_rrot_par_version, cbuf_rrot_version, cbuf_version,
    markers, naive_version,
)
from repro.strategies.scoping import down_arg, in_chunk_function
