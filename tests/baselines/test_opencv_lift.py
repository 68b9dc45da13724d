"""Tests for the OpenCV-library and LIFT per-operator baselines."""

import numpy as np
import pytest

import repro
from repro.image import synthetic_rgb, reference
from repro.lift import compile_pipeline_per_operator


OPENCV = {"pipeline": "harris", "schedule": "opencv"}
LIFT = {"pipeline": "harris", "schedule": "lift"}


@pytest.fixture(scope="module")
def image():
    img = synthetic_rgb(16, 20)
    return img, reference.harris(img)


class TestOpenCV:
    @pytest.fixture(scope="class")
    def prog(self):
        return repro.compile("zoo", options=OPENCV).program

    def test_correct(self, prog, image):
        img, ref = image
        hwc = np.ascontiguousarray(img.transpose(1, 2, 0))
        out = repro.compile("zoo", options=OPENCV, sizes={"n": 12, "m": 16}).run(
            rgb_hwc=hwc
        )
        np.testing.assert_allclose(out.reshape(12, 16), ref, rtol=1e-3, atol=1e-4)

    def test_one_kernel_per_library_call(self, prog):
        names = [f.name for f in prog.functions]
        assert names == [
            "cv_cvtColor",
            "cv_makeBorder_gray",
            "cv_sobel_dx",
            "cv_sobel_dy",
            "cv_cov",
            "cv_makeBorder_cov",
            "cv_boxFilter",
            "cv_cornerResponse",
        ]
        assert prog.launch_overheads == len(names)

    def test_single_threaded(self, prog):
        from repro.codegen.ir import For, LoopKind, walk_stmts

        for fn in prog.functions:
            kinds = [s.kind for s in walk_stmts(fn.body) if isinstance(s, For)]
            assert LoopKind.PARALLEL not in kinds, fn.name

    def test_interleaved_input_layout(self, prog):
        # channel-interleaved loads: index arithmetic multiplies by 3
        from repro.exec import program_to_python
        from repro.codegen.sizes import resolve_sizes

        src = program_to_python(prog, resolve_sizes(prog, {"n": 12, "m": 16}))
        assert "* 3)" in src


class TestLift:
    @pytest.fixture(scope="class")
    def prog(self):
        return repro.compile("zoo", options=LIFT).program

    def test_correct(self, prog, image):
        img, ref = image
        out = repro.compile("zoo", options=LIFT, sizes={"n": 12, "m": 16}).run(rgb=img)
        np.testing.assert_allclose(out.reshape(12, 16), ref, rtol=1e-3, atol=1e-4)

    def test_one_kernel_per_operator(self, prog):
        # listing 3 has 9 defs + the final coarsity = 10 kernels
        assert len(prog.functions) == 10
        assert prog.launch_overheads == 10

    def test_kernels_parallel_and_vectorized(self, prog):
        from repro.codegen.ir import For, LoopKind, walk_stmts

        for fn in prog.functions:
            kinds = [s.kind for s in walk_stmts(fn.body) if isinstance(s, For)]
            assert LoopKind.PARALLEL in kinds, fn.name

    def test_generic_pipeline_compiler(self, image):
        """compile_pipeline_per_operator works for other Let pipelines too:
        here the gradient magnitude ``Ix^2 + Iy^2`` of a gray image, one
        let-bound stage per operator."""
        from repro.nat import nat
        from repro.pipelines.operators import map2d, mul2d, sobel_x, sobel_y, zip2d
        from repro.rise import Identifier
        from repro.rise.dsl import fst, fun, let, snd
        from repro.rise.types import array2d, f32

        img = Identifier("img")
        sobel_magnitude = let(
            sobel_x(img),
            lambda ix: let(
                sobel_y(img),
                lambda iy: let(
                    mul2d(ix, ix),
                    lambda ixx: let(
                        mul2d(iy, iy),
                        lambda iyy: map2d(fun(lambda p: fst(p) + snd(p)), zip2d(ixx, iyy)),
                        name="Iyy",
                    ),
                    name="Ixx",
                ),
                name="Iy",
            ),
            name="Ix",
        )
        img2d = synthetic_rgb(12, 14)[0]
        prog = compile_pipeline_per_operator(
            sobel_magnitude,
            {"img": array2d(nat("n") + 4, nat("m") + 4, f32)},
            name="sobelmag",
        )
        # one 3x3 stage: output is [n+2][m+2]
        out = repro.compile(prog, sizes={"n": 8, "m": 10}).run(img=img2d)
        expected = reference.sobel_x(img2d) ** 2 + reference.sobel_y(img2d) ** 2
        np.testing.assert_allclose(
            out.reshape(expected.shape), expected, rtol=1e-3, atol=1e-4
        )
