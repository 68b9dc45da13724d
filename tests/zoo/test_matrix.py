"""The differential test matrix: (pipeline x schedule x backend).

Every *applicable* (pipeline, schedule) pair from the registry is
compiled through the engine's ``"zoo"`` builder and executed on each
backend at the registry's smallest legal sizes; the output must match
the registry's NumPy reference.  Harris is exercised by the strategy
and engine suites at these exact settings, so the matrix covers the
five non-Harris pipelines.

The C-backend half is gated on ``requires_gcc`` (skipped, with a
reason, when the container has no host compiler).
"""

import numpy as np
import pytest

import repro
from repro.pipelines import registry

CHUNK, VEC, STRIP = 4, 4, 2

ZOO_PIPELINES = tuple(n for n in registry.names() if n != "harris")


def _matrix(pipelines=ZOO_PIPELINES, vec=VEC, naive=True):
    cells = []
    for name in pipelines:
        reports = registry.applicable_schedules(name, chunk=CHUNK, vec=vec, strip=STRIP)
        for schedule, report in reports.items():
            if report.applies and (naive or schedule != "naive"):
                cells.append((name, schedule))
    return cells


MATRIX = _matrix()

#: 8-lane vectors through every pipeline, Harris included: its rotated
#: schedules once declared an 8-lane shared value as ``v4f``, which gcc
#: rejects.  Naive code has no vectors, so it has no rows here.
VEC8_MATRIX = _matrix(registry.names(), vec=8, naive=False)


def _run_cell(pipeline: str, schedule: str, backend: str, vec: int = VEC):
    spec = registry.get(pipeline)
    sizes = spec.concrete_sizes(CHUNK, vec, STRIP)
    inputs = spec.make_inputs(sizes, seed=11)
    expected = spec.reference_output(inputs)
    compiled = repro.compile(
        "zoo",
        options={
            "pipeline": pipeline,
            "schedule": schedule,
            "chunk": CHUNK,
            "vec": vec,
            "strip": STRIP,
        },
        backend=backend,
        sizes=sizes,
    )
    out = compiled.run(**inputs).reshape(expected.shape)
    np.testing.assert_allclose(out, expected, rtol=1e-3, atol=1e-4)


class TestDifferentialMatrix:
    def test_matrix_covers_every_pipeline(self):
        assert {p for p, _ in MATRIX} == set(ZOO_PIPELINES)
        # The matrix is applicability-driven: pyramid contributes only
        # its naive cell, fully-covered pipelines all five.
        assert ("pyramid", "naive") in MATRIX
        assert ("gaussian-blur", "cbuf-rot-par") in MATRIX
        assert ("sobel-magnitude", "cbuf-rot") not in MATRIX

    @pytest.mark.parametrize("pipeline,schedule", MATRIX)
    def test_python_backend_matches_reference(self, pipeline, schedule):
        _run_cell(pipeline, schedule, "python")

    @pytest.mark.requires_gcc
    @pytest.mark.parametrize("pipeline,schedule", MATRIX)
    def test_c_backend_matches_reference(self, pipeline, schedule):
        _run_cell(pipeline, schedule, "c")

    @pytest.mark.requires_gcc
    @pytest.mark.parametrize("pipeline,schedule", VEC8_MATRIX)
    def test_c_backend_at_vec8_matches_reference(self, pipeline, schedule):
        _run_cell(pipeline, schedule, "c", vec=8)


class TestParameterOverrides:
    def test_params_flow_through_the_engine(self):
        """Builder options carry pipeline parameters: amount=0 turns
        unsharp masking into the grayscale identity."""
        spec = registry.get("unsharp-mask")
        sizes = spec.concrete_sizes()
        inputs = spec.make_inputs(sizes, seed=2)
        expected = spec.reference_output(inputs, amount=0.0)
        out = repro.compile(
            "zoo",
            options={"pipeline": "unsharp-mask", "schedule": "naive", "amount": 0.0},
            sizes=sizes,
        ).run(**inputs)
        np.testing.assert_allclose(
            out.reshape(expected.shape), expected, rtol=1e-3, atol=1e-4
        )

    def test_distinct_params_get_distinct_cache_keys(self):
        """Options are part of the content address: the same builder with
        different parameters must land on different cache entries."""
        from repro.engine.pipeline import Engine
        from repro.engine.request import CompileRequest

        eng = Engine(cache_dir=None)
        a = eng.compile_request(
            CompileRequest(
                source="zoo",
                options={"pipeline": "unsharp-mask", "schedule": "naive", "amount": 0.5},
            )
        )
        b = eng.compile_request(
            CompileRequest(
                source="zoo",
                options={"pipeline": "unsharp-mask", "schedule": "naive", "amount": 0.0},
            )
        )
        assert a.key != b.key
