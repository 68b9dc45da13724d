"""The paper claims its optimizations 'are generalizable and applicable to
other such compositions' (section III).  These tests apply the *unchanged*
Harris schedules to a different pipeline — the zoo's two-stage Gaussian
blur chain with a pointwise ``2v - 0.5`` tail, a composition no registry
entry has — and check correctness and the expected low-level structure.
That the rotation pays off on the registry's ``gaussian-blur`` on every
modeled CPU is row ``G.gaussian-blur`` of
:func:`repro.bench.harness.paper_claims`."""

import numpy as np
import pytest

import repro
from repro.codegen import compile_program
from repro.image import synthetic_rgb, reference
from repro.pipelines import gaussian3x3
from repro.pipelines.operators import map2d
from repro.pipelines.zoo import gaussian_blur_input_type
from repro.rise import Identifier
from repro.rise.dsl import fun, let, lit
from repro.rise.traverse import subterms
from repro.strategies import cbuf_rrot_version, cbuf_version

SENV = {"img": gaussian_blur_input_type()}


def blur_pipeline(image):
    """Two chained 3x3 Gaussians, then ``2v - 0.5`` per pixel."""
    return let(
        gaussian3x3(image),
        lambda once: let(
            gaussian3x3(once),
            lambda twice: map2d(fun(lambda v: v * lit(2.0) - lit(0.5)), twice),
            name="twice",
        ),
        name="once",
    )


def _reference(image: np.ndarray) -> np.ndarray:
    g = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.float32) / 16
    once = reference.conv2d_valid(image, g)
    twice = reference.conv2d_valid(once, g)
    return (twice * 2 - 0.5).astype(np.float32)


@pytest.fixture(scope="module")
def blur_case():
    image = synthetic_rgb(16, 20, seed=5)[0]
    return image, _reference(image)


class TestBlurGeneralization:
    @pytest.mark.parametrize("make", [cbuf_version, cbuf_rrot_version])
    def test_schedules_transfer_unchanged(self, blur_case, make):
        image, expected = blur_case
        schedule = make(SENV, chunk=4, vec=4)
        low = schedule.apply(blur_pipeline(Identifier("img")))
        prog = compile_program(low, SENV, "blur")
        out = repro.compile(prog, sizes={"n": 12, "m": 16}).run(img=image)
        np.testing.assert_allclose(out.reshape(12, 16), expected, rtol=1e-3, atol=1e-4)

    def test_cbuf_structure_transfers(self, blur_case):
        from repro.rise.expr import CircularBuffer, MapGlobal

        low = cbuf_version(SENV, chunk=4, vec=4).apply(blur_pipeline(Identifier("img")))
        kinds = [type(n).__name__ for n in subterms(low)]
        assert kinds.count("MapGlobal") == 1
        assert kinds.count("CircularBuffer") >= 1  # blur stages buffered

    def test_separation_fires_on_gaussian(self, blur_case):
        """The Gaussian kernel is separable, so the rot schedule separates
        and rotates it just like the sobel kernels."""
        low = cbuf_rrot_version(SENV, chunk=4, vec=4).apply(blur_pipeline(Identifier("img")))
        kinds = [type(n).__name__ for n in subterms(low)]
        assert kinds.count("RotateValues") >= 1
