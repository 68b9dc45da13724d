"""The LIFT baseline: per-operator compilation without cross-stage fusion.

The paper compares against the LIFT implementation of [7], which optimizes
individual stencil operators well (parallelism, vectorization) but "lacks
crucial optimizations for image processing pipelines: notably operator
fusion and circular buffering" (section V-B).  We model it faithfully to
that diagnosis: every ``def`` of the high-level Harris program (listing 3)
is compiled as its *own* kernel — parallelized over rows and vectorized
along lines — with every intermediate materialized in a full-size global
buffer, and one OpenCL launch per kernel.
"""

from repro.lift.compile import build_harris_lift_program, compile_pipeline_per_operator

__all__ = ["build_harris_lift_program", "compile_pipeline_per_operator"]
