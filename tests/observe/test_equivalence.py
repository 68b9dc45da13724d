"""Tracing must be a pure observer: results with tracing/observing on are
identical to results with them off (the acceptance bar for the whole
observability layer)."""

import itertools

from repro.codegen import compile_program
from repro.codegen.cprint import program_to_c
from repro.observe import compile_profiles, observing, tracing
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier
from repro.rise import expr as expr_mod
from repro.rise.traverse import alpha_equal
from repro.strategies import cbuf_rrot_version, cbuf_version


def _pin_gensym(start: int = 1_000_000) -> None:
    # Fresh names come from a global counter, so two identical pipeline
    # runs differ in variable numbering; pinning the counter makes the
    # runs bit-comparable instead of merely alpha-equivalent.
    expr_mod.Fresh._counter = itertools.count(start)


def _lowered(senv, version=cbuf_version):
    _pin_gensym()
    return version(senv, chunk=4).apply(harris(Identifier("rgb")))


def _assert_traced_equals_untraced(version):
    senv = {"rgb": harris_input_type()}
    untraced = _lowered(senv, version)
    with tracing() as t:
        traced = _lowered(senv, version)
    assert t.rule_fired, "sanity: the traced run actually recorded rules"
    assert traced == untraced  # bit-identical with the counter pinned
    assert alpha_equal(traced, untraced)


class TestTracedEqualsUntraced:
    def test_rewrite_result_identical(self):
        _assert_traced_equals_untraced(cbuf_version)

    def test_rewrite_result_identical_with_rotation(self):
        _assert_traced_equals_untraced(cbuf_rrot_version)

    def test_compiled_code_identical_under_observing(self):
        senv = {"rgb": harris_input_type()}
        low = _lowered(senv, cbuf_rrot_version)
        _pin_gensym(2_000_000)
        plain = program_to_c(compile_program(low, senv, "rise_cbuf_rrot_eq"))
        _pin_gensym(2_000_000)
        with observing() as obs:
            observed = program_to_c(compile_program(low, senv, "rise_cbuf_rrot_eq"))
        [profile] = compile_profiles(obs)
        assert profile["program"] == "rise_cbuf_rrot_eq", "sanity: phases recorded"
        assert observed == plain

    def test_execution_identical_under_observing(self):
        import numpy as np

        import repro
        from repro.image import synthetic_rgb
        from repro.rise import array, f32
        from repro.rise.dsl import fun, lit, map_seq

        xs = Identifier("xs")
        prog = compile_program(
            map_seq(fun(lambda v: v * lit(2.0)), xs),
            {"xs": array("n", f32)},
            "dbl",
        )
        data = synthetic_rgb(4, 4, seed=3)[0, 0].astype(np.float32)
        pipeline = repro.compile(prog, sizes={"n": data.size})
        plain = pipeline.run(xs=data)
        with observing():
            observed = pipeline.run(xs=data)
        np.testing.assert_array_equal(plain, observed)
