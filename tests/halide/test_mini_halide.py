"""Tests for the mini-Halide baseline compiler."""

import numpy as np
import pytest

from repro.halide import Func, HVar, ImageParam, compile_halide
from repro.halide.hir import _offset_of
from repro.halide.lower import _infer_bounds, HalideLowerError
import repro
from repro.image import synthetic_rgb, reference
from repro.nat import nat

x, y = HVar("x"), HVar("y")


class TestExprAlgebra:
    def test_offset_parsing(self):
        assert _offset_of(x, "x") == 0
        assert _offset_of(x + 2, "x") == 2
        assert _offset_of(x - 1, "x") == -1
        assert _offset_of(2 + x, "x") == 2

    def test_offset_wrong_dim(self):
        with pytest.raises(ValueError):
            _offset_of(x, "y")

    def test_define_once(self):
        f = Func("f")
        f[x, y] = x  # type: ignore[assignment]
        with pytest.raises(ValueError):
            f.define(x)


class TestBoundsInference:
    def test_stencil_chain(self):
        img = ImageParam("im")
        a = Func("a")
        a[x, y] = img[0](x, y) * 2.0
        b = Func("b")
        b[x, y] = a(x, y) + a(x + 2, y + 2)
        out = Func("out")
        out[x, y] = b(x, y) + b(x + 1, y + 1)
        a.compute_at(out, "yi").store_at(out, "yo")
        b.compute_at(out, "yi").store_at(out, "yo")
        ranges = _infer_bounds(out)
        rb = ranges[b]
        assert (rb.dx_min, rb.dx_max, rb.dy_min, rb.dy_max) == (0, 1, 0, 1)
        ra = ranges[a]
        # a's range flows through b's: 0..1 (+) 0..2 = 0..3
        assert (ra.dx_min, ra.dx_max, ra.dy_min, ra.dy_max) == (0, 3, 0, 3)

    def test_inline_funcs_flow_through(self):
        img = ImageParam("im")
        a = Func("a")
        a[x, y] = img[0](x, y)
        mid = Func("mid")  # inline
        mid[x, y] = a(x + 1, y + 1)
        out = Func("out")
        out[x, y] = mid(x + 1, y + 1)
        a.compute_at(out, "yi").store_at(out, "yo")
        ranges = _infer_bounds(out)
        ra = ranges[a]
        assert (ra.dx_min, ra.dy_max) == (2, 2)

    def test_undefined_func_rejected(self):
        out = Func("out")
        ghost = Func("ghost")
        ghost.compute_at(out, "yi")
        out[x, y] = ghost(x, y)
        with pytest.raises(HalideLowerError):
            _infer_bounds(out)


def _halide(chunk: int) -> dict:
    """Options of the registry's Halide baseline of Harris."""
    return {"pipeline": "harris", "schedule": "halide", "chunk": chunk, "vec": 4}


class TestHarrisBaseline:
    @pytest.fixture(scope="class")
    def prog(self):
        return repro.compile("zoo", options=_halide(4)).program

    def test_single_kernel(self, prog):
        assert len(prog.functions) == 1

    def test_correct(self, prog):
        img = synthetic_rgb(16, 20)
        out = repro.compile(
            "zoo", options=_halide(4), sizes={"n": 12, "m": 16}
        ).run(rgb=img)
        np.testing.assert_allclose(
            out.reshape(12, 16), reference.harris(img), rtol=1e-3, atol=1e-4
        )

    def test_other_split(self):
        img = synthetic_rgb(14, 16)
        out = repro.compile(
            "zoo", options=_halide(2), sizes={"n": 10, "m": 12}
        ).run(rgb=img)
        np.testing.assert_allclose(
            out.reshape(10, 12), reference.harris(img), rtol=1e-3, atol=1e-4
        )

    def test_parallel_outer_loop(self, prog):
        from repro.codegen.ir import For, LoopKind, walk_stmts

        kinds = [s.kind for s in walk_stmts(prog.functions[0].body) if isinstance(s, For)]
        assert LoopKind.PARALLEL in kinds
        assert LoopKind.VEC in kinds

    def test_three_folded_buffers(self, prog):
        # gray + Ix + Iy are store_at'ed: three line buffers
        assert len(prog.functions[0].temporaries) == 3

    def test_compute_with_fuses_loops(self, prog):
        """Ix.compute_with(Iy, x): one x-loop computes both sobel rows, so
        the steady state has 3 row loops (gray, iy+ix fused, output), not 4."""
        from repro.codegen.ir import For, LoopKind, walk_stmts

        vec_loops = [
            s for s in walk_stmts(prog.functions[0].body)
            if isinstance(s, For) and s.kind is LoopKind.VEC
        ]
        # prologue rows (4 gray + 2 sobel = 6 emissions) + steady (3) + output
        # exact count depends on unrolled prologue; fused sobel means strictly
        # fewer loops than with separate Ix and Iy computation
        assert len(vec_loops) <= 12
