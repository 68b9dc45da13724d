"""Full-stack integration: every implementation of the evaluation is
compiled to C, built with the host C compiler, executed on a real image,
and checked against the numpy reference.  This is the repository's
equivalent of running the paper's artifact end to end."""

import numpy as np
import pytest

import repro
from repro.codegen import compile_program
from repro.image import synthetic_rgb, reference
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier
from repro.strategies import cbuf_rrot_version, cbuf_version

pytestmark = pytest.mark.requires_gcc

SENV = {"rgb": harris_input_type()}


@pytest.fixture(scope="module")
def image():
    img = synthetic_rgb(20, 24, seed=13)
    return img, reference.harris(img)


def _sizes(ref):
    return {"n": ref.shape[0], "m": ref.shape[1]}


class TestAllImplementationsThroughGcc:
    def test_rise_cbuf(self, image):
        img, ref = image
        out = repro.compile(
            harris(Identifier("rgb")),
            strategy=cbuf_version(SENV, chunk=4),
            type_env=SENV,
            backend="c",
            sizes=_sizes(ref),
            name="cbuf",
        ).run(rgb=img)
        np.testing.assert_allclose(out.reshape(ref.shape), ref, rtol=1e-3, atol=1e-4)

    def test_rise_cbuf_rrot(self, image):
        img, ref = image
        out = repro.compile(
            harris(Identifier("rgb")),
            strategy=cbuf_rrot_version(SENV, chunk=4),
            type_env=SENV,
            backend="c",
            sizes=_sizes(ref),
            name="rot",
        ).run(rgb=img)
        np.testing.assert_allclose(out.reshape(ref.shape), ref, rtol=1e-3, atol=1e-4)

    def test_halide(self, image):
        img, ref = image
        out = repro.compile(
            "zoo",
            options={"pipeline": "harris", "schedule": "halide", "chunk": 4, "vec": 4},
            backend="c",
            sizes=_sizes(ref),
        ).run(rgb=img)
        np.testing.assert_allclose(out.reshape(ref.shape), ref, rtol=1e-3, atol=1e-4)

    def test_lift(self, image):
        img, ref = image
        out = repro.compile(
            "zoo",
            options={"pipeline": "harris", "schedule": "lift"},
            backend="c",
            sizes=_sizes(ref),
        ).run(rgb=img)
        np.testing.assert_allclose(out.reshape(ref.shape), ref, rtol=1e-3, atol=1e-4)

    def test_opencv(self, image):
        img, ref = image
        hwc = np.ascontiguousarray(img.transpose(1, 2, 0))
        out = repro.compile(
            "zoo",
            options={"pipeline": "harris", "schedule": "opencv"},
            backend="c",
            sizes=_sizes(ref),
        ).run(rgb_hwc=hwc)
        np.testing.assert_allclose(out.reshape(ref.shape), ref, rtol=1e-3, atol=1e-4)

    def test_c_and_python_backends_bitwise_close(self, image):
        img, ref = image
        prog = compile_program(
            cbuf_rrot_version(SENV, chunk=4).apply(harris(Identifier("rgb"))),
            SENV,
            "rot2",
        )
        py = repro.compile(prog, sizes=_sizes(ref)).run(rgb=img)
        c = repro.compile(prog, backend="c", sizes=_sizes(ref)).run(rgb=img)
        np.testing.assert_allclose(py, c, rtol=1e-5, atol=1e-6)
