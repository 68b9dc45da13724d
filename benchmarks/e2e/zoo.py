"""Zoo kernels as the benchmark addresses them: a request, an image and
the NumPy reference output for that image.

The reference always comes from ``PipelineSpec.reference_output`` — an
independent NumPy implementation — never from the compiler under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import CompileRequest
from repro.pipelines import registry
from repro.strategies.schedules import DEFAULT_CHUNK, DEFAULT_STRIP, DEFAULT_VEC

from catalog import kernel_id
from harness import output_error


def request(pipeline: str, schedule: str, **grid) -> CompileRequest:
    """A C-backend request for one zoo kernel; ``grid`` overrides the
    default chunk/vec/strip (and so names a different cache key)."""
    return CompileRequest(
        source="zoo",
        options={"pipeline": pipeline, "schedule": schedule, **grid},
        backend="c",
    )


def smallest_sizes(pipeline: str, schedule: str) -> dict:
    """The smallest image the schedule's default divisibility allows."""
    if schedule == "naive":
        return registry.get(pipeline).concrete_sizes()
    return registry.get(pipeline).concrete_sizes(
        DEFAULT_CHUNK, DEFAULT_VEC, DEFAULT_STRIP if schedule.endswith("-par") else 1
    )


@dataclass
class Case:
    """One (kernel, image): what to run and what must come out."""

    pipeline: str
    schedule: str
    sizes: dict
    inputs: dict
    ref: np.ndarray
    #: the first verified output; later frames must equal it.
    first: np.ndarray | None = None

    @property
    def id(self) -> str:
        return kernel_id(self.pipeline, self.schedule)


class Cases:
    """Builds cases, sharing one image and reference per (pipeline,
    sizes): four Harris kernels at 1536x2560 need one 2 s reference."""

    def __init__(self, seed: int):
        self.seed = seed
        self._shared: dict = {}

    def make(self, pipeline: str, schedule: str, sizes: dict) -> Case:
        key = (pipeline, tuple(sorted(sizes.items())))
        if key not in self._shared:
            spec = registry.get(pipeline)
            inputs = spec.make_inputs(sizes, seed=self.seed)
            self._shared[key] = (inputs, spec.reference_output(inputs))
        inputs, ref = self._shared[key]
        return Case(pipeline, schedule, dict(sizes), inputs, ref)


def frame_error(run, case: Case, out, min_psnr_db: float | None = None) -> str | None:
    """Why this frame is wrong, or ``None``: the first frame of a case
    is held against the reference, later frames bit-for-bit against
    that first verified frame."""
    out = run.maybe_corrupt(np.asarray(out))
    if case.first is None:
        reason = output_error(case.pipeline, out, case.ref, min_psnr_db)
        if reason is None:
            case.first = out
        return reason
    if np.array_equal(out, case.first):
        return None
    return "frame differs bitwise from the first verified frame"


def verify(run, case: Case, out, op: str, min_psnr_db: float | None = None) -> bool:
    """Count one op in the run's ledger by :func:`frame_error`."""
    return run.ledger.check(op, frame_error(run, case, out, min_psnr_db))
