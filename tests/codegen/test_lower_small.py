"""Codegen + execution tests on small single-pattern programs: each
low-level pattern lowers to imperative code that computes the same values
as the RISE interpreter."""

import numpy as np
import pytest

import repro
from repro.codegen import CodegenError, compile_program
from repro.nat import nat
from repro.rise import Identifier, array, array2d, f32
from repro.rise.dsl import (
    as_scalar,
    as_vector,
    circular_buffer,
    dot,
    arr,
    fst,
    fun,
    join,
    let,
    lit,
    map_,
    map_global,
    map_seq,
    map_seq_unroll,
    map_vec,
    make_pair,
    pipe,
    reduce_seq,
    reduce_seq_unroll,
    rotate_values,
    slide,
    snd,
    split,
    to_mem,
    transpose,
    zip_,
)
from repro.rise.expr import MapSeqVec, App
from repro.rise.types import AddressSpace

xs = Identifier("xs")
img = Identifier("img")


def compile_run(prog_expr, type_env, sizes, inputs):
    prog = compile_program(prog_expr, type_env, "k")
    return repro.compile(prog, sizes=sizes).run(**inputs)


class TestElementaryPatterns:
    def test_map_seq(self):
        out = compile_run(
            map_seq(fun(lambda v: v * lit(2.0)), xs),
            {"xs": array("n", f32)}, {"n": 5}, {"xs": np.arange(5.0)},
        )
        np.testing.assert_allclose(out, np.arange(5.0) * 2)

    def test_map_global(self):
        out = compile_run(
            map_global(fun(lambda v: v + lit(1.0)), xs),
            {"xs": array("n", f32)}, {"n": 4}, {"xs": np.arange(4.0)},
        )
        np.testing.assert_allclose(out, np.arange(4.0) + 1)

    def test_map_seq_unroll(self):
        out = compile_run(
            map_seq_unroll(fun(lambda v: v * v), xs),
            {"xs": array(4, f32)}, {}, {"xs": np.arange(4.0)},
        )
        np.testing.assert_allclose(out, np.arange(4.0) ** 2)

    def test_map_seq_vec_with_tail(self):
        prog = App(App(MapSeqVec(width=nat(4)), fun(lambda v: v * lit(3.0))), xs)
        out = compile_run(prog, {"xs": array("n", f32)}, {"n": 10}, {"xs": np.arange(10.0)})
        np.testing.assert_allclose(out, np.arange(10.0) * 3)

    def test_reduce_seq(self):
        out = compile_run(
            map_seq(fun(lambda row: reduce_seq(fun(lambda a, b: a + b), lit(0.0), row)), img),
            {"img": array2d("n", "m", f32)}, {"n": 3, "m": 4},
            {"img": np.arange(12.0).reshape(3, 4)},
        )
        np.testing.assert_allclose(out, np.arange(12.0).reshape(3, 4).sum(axis=1))

    def test_reduce_seq_unroll(self):
        out = compile_run(
            map_seq(fun(lambda row: reduce_seq_unroll(fun(lambda a, b: a + b), lit(0.0), row)), img),
            {"img": array2d("n", 3, f32)}, {"n": 2}, {"img": np.arange(6.0).reshape(2, 3)},
        )
        np.testing.assert_allclose(out, [3.0, 12.0])


class TestViewPatterns:
    def test_transpose(self):
        data = np.arange(6.0).reshape(2, 3)
        out = compile_run(
            map_seq(fun(lambda r: map_seq(fun(lambda v: v), r)), transpose(img)),
            {"img": array2d(2, 3, f32)}, {}, {"img": data},
        )
        np.testing.assert_allclose(out.reshape(3, 2), data.T)

    def test_slide_windows(self):
        out = compile_run(
            map_seq(fun(lambda w: reduce_seq_unroll(fun(lambda a, b: a + b), lit(0.0), w)),
                    slide(3, 1, xs)),
            {"xs": array("n", f32)}, {"n": 6}, {"xs": np.arange(6.0)},
        )
        np.testing.assert_allclose(out, [3, 6, 9, 12])

    def test_split_join_roundtrip(self):
        out = compile_run(
            map_seq(fun(lambda v: v), join(split(2, xs))),
            {"xs": array(6, f32)}, {}, {"xs": np.arange(6.0)},
        )
        np.testing.assert_allclose(out, np.arange(6.0))

    def test_zip_projections(self):
        ys = Identifier("ys")
        out = compile_run(
            map_seq(fun(lambda p: fst(p) * snd(p)), zip_(xs, ys)),
            {"xs": array(4, f32), "ys": array(4, f32)}, {},
            {"xs": np.arange(4.0), "ys": np.arange(4.0) + 1},
        )
        np.testing.assert_allclose(out, np.arange(4.0) * (np.arange(4.0) + 1))

    def test_dot_with_weights(self):
        out = compile_run(
            map_seq(dot(arr([1, 2, 1])), slide(3, 1, xs)),
            {"xs": array(5, f32)}, {}, {"xs": np.arange(5.0)},
        )
        np.testing.assert_allclose(out, [4, 8, 12])


class TestMemoryPatterns:
    def test_to_mem(self):
        prog = map_seq(
            fun(lambda v: v + lit(1.0)),
            to_mem(AddressSpace.GLOBAL, map_seq(fun(lambda v: v * lit(2.0)), xs)),
        )
        out = compile_run(prog, {"xs": array(4, f32)}, {}, {"xs": np.arange(4.0)})
        np.testing.assert_allclose(out, np.arange(4.0) * 2 + 1)

    def test_circular_buffer_stream(self):
        load = fun(lambda v: v * lit(10.0))
        prog = map_seq(
            fun(lambda w: reduce_seq_unroll(fun(lambda a, b: a + b), lit(0.0), w)),
            circular_buffer(AddressSpace.GLOBAL, 3, load, xs),
        )
        out = compile_run(prog, {"xs": array("n", f32)}, {"n": 6}, {"xs": np.arange(6.0)})
        np.testing.assert_allclose(out, [30, 60, 90, 120])

    def test_rotate_values_scalar(self):
        prog = map_seq(
            fun(lambda w: reduce_seq_unroll(fun(lambda a, b: a + b), lit(0.0), w)),
            rotate_values(AddressSpace.PRIVATE, 3, map_seq(fun(lambda v: v * lit(2.0)), xs)),
        )
        out = compile_run(prog, {"xs": array("n", f32)}, {"n": 6}, {"xs": np.arange(6.0)})
        np.testing.assert_allclose(out, [6, 12, 18, 24])

    def test_let_shares_scalar(self):
        prog = map_seq(
            fun(lambda v: let(v * v, lambda sq: sq + sq)),
            xs,
        )
        out = compile_run(prog, {"xs": array(3, f32)}, {}, {"xs": np.arange(3.0)})
        np.testing.assert_allclose(out, 2 * np.arange(3.0) ** 2)


class TestVectors:
    def test_as_vector_roundtrip(self):
        prog = map_seq(fun(lambda v: v), as_scalar(as_vector(4, xs)))
        out = compile_run(prog, {"xs": array(8, f32)}, {}, {"xs": np.arange(8.0)})
        np.testing.assert_allclose(out, np.arange(8.0))

    def test_lane_constant_map_vec_is_broadcast(self):
        """A mapVec body that ignores its lane still yields a vector."""
        prog = as_scalar(map_(fun(lambda v: map_vec(fun(lambda x: lit(0.5)), v)), as_vector(2, xs)))
        out = compile_run(prog, {"xs": array(6, f32)}, {}, {"xs": np.arange(6.0)})
        np.testing.assert_allclose(out, np.full(6, 0.5))


class TestErrors:
    def test_unbound_identifier(self):
        from repro.rise.types import TypeError_

        with pytest.raises((CodegenError, TypeError_)):
            compile_program(map_seq(fun(lambda v: v), Identifier("nope")), {}, "k")

    def test_pair_output_rejected(self):
        prog = make_pair(lit(1.0), lit(2.0))
        with pytest.raises(CodegenError):
            compile_program(prog, {}, "k")

    def test_vector_output_rejected(self):
        """C has no vector-typed output buffer; the result must be scalars."""
        with pytest.raises(CodegenError, match="must be scalars"):
            compile_program(as_vector(2, xs), {"xs": array(6, f32)}, "k")
