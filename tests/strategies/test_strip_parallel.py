"""Strip parallelization: the stripParallel rule, the cbuf+par /
cbuf+rot+par schedule variants and their multicore determinism on both
backends (1, 2 and 4 threads, bit-identical and PSNR-valid)."""

import numpy as np
import pytest

from repro.codegen import compile_program
from repro.exec.pyexec import execute_program, strippable_parallel_loop, _loop_extent
from repro.image import reference, synthetic_rgb
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier, evaluate, from_numpy, to_numpy
from repro.rise.expr import App, Identifier as Id, MapGlobal, MapSeq
from repro.rise.traverse import subterms
from repro.strategies import (
    DEFAULT_STRIP,
    cbuf_par_version,
    cbuf_rrot_par_version,
    strip_parallel,
)

SENV = {"rgb": harris_input_type()}

# 16x16 output: 4 chunks of 4 rows, regrouped into 2 strips of 2 chunks.
SIZES = {"n": 16, "m": 16}


@pytest.fixture(scope="module")
def image():
    img = synthetic_rgb(20, 20, seed=11)
    return img, reference.harris(img)


@pytest.fixture(scope="module")
def lowered():
    high = harris(Identifier("rgb"))
    return {
        "cbuf+par": cbuf_par_version(SENV, chunk=4, vec=4, strip=2).apply(high),
        "cbuf+rot+par": cbuf_rrot_par_version(SENV, chunk=4, vec=4, strip=2).apply(
            high
        ),
    }


class TestRule:
    def test_strip_parallel_map_shape(self):
        """mapGlobal(f) $ x  -->  join(mapGlobal(mapSeq(f))(split(k, x)))"""
        from repro.rules.lowering import strip_parallel_map

        expr = App(App(MapGlobal(), Id("f")), Id("x"))
        result = strip_parallel_map(2).apply(expr)
        kinds = [type(n).__name__ for n in subterms(result)]
        assert kinds.count("MapGlobal") == 1
        assert kinds.count("MapSeq") == 1
        assert kinds.count("Split") == 1
        assert kinds.count("Join") == 1

    def test_rule_needs_applied_map_global(self):
        from repro.elevate.core import Failure
        from repro.rules.lowering import strip_parallel_map

        result = strip_parallel_map(2)(App(MapSeq(), Id("f")))
        assert isinstance(result, Failure)

    def test_strategy_fails_without_map_global(self):
        from repro.elevate.core import StrategyError

        with pytest.raises(StrategyError):
            strip_parallel(2).apply(Id("x"))

    def test_par_step_fails_on_a_lowered_program_without_map_global(self):
        """A ``-par`` schedule fails by itself where its base left no
        chunk-level ``mapGlobal``: ``stripParallel`` is applied once, so
        no comparison with the base schedule's output is needed."""
        from repro.elevate.core import StrategyError
        from repro.pipelines import registry

        spec = registry.get("box-blur")
        naive = spec.schedule("naive").apply(spec.expr())
        assert not any(isinstance(n, MapGlobal) for n in subterms(naive))
        with pytest.raises(StrategyError):
            strip_parallel(2).apply(naive)


class TestStructure:
    @pytest.mark.parametrize("name", ["cbuf+par", "cbuf+rot+par"])
    def test_single_map_global_survives(self, lowered, name):
        kinds = [type(n).__name__ for n in subterms(lowered[name])]
        assert kinds.count("MapGlobal") == 1

    @pytest.mark.parametrize("name", ["cbuf+par", "cbuf+rot+par"])
    def test_parallel_extent_is_strip_count(self, lowered, name):
        prog = compile_program(lowered[name], SENV, "k")
        loop = strippable_parallel_loop(prog.functions[-1])
        assert loop is not None
        # 16 rows / chunk 4 = 4 chunks / strip 2 = 2 thread strips
        assert _loop_extent(loop, prog_sizes(prog)) == 2

    def test_default_strip_exported(self):
        assert DEFAULT_STRIP >= 2


def prog_sizes(prog):
    from repro.codegen.sizes import resolve_sizes

    return resolve_sizes(prog, SIZES)


class TestSemantics:
    @pytest.mark.parametrize("name", ["cbuf+par", "cbuf+rot+par"])
    def test_interpreter_matches_reference(self, lowered, image, name):
        img, ref = image
        out = to_numpy(evaluate(lowered[name], {"rgb": from_numpy(img)}))
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    @pytest.mark.parametrize("name", ["cbuf+par", "cbuf+rot+par"])
    def test_python_backend_deterministic_across_threads(self, lowered, image, name):
        img, ref = image
        prog = compile_program(lowered[name], SENV, "k")
        outs = {
            t: execute_program(prog, SIZES, {"rgb": img}, threads=t)
            for t in (1, 2, 4)
        }
        np.testing.assert_allclose(
            outs[1].reshape(16, 16), ref, rtol=1e-3, atol=1e-4
        )
        assert np.array_equal(outs[1], outs[2])
        assert np.array_equal(outs[1], outs[4])

    @pytest.mark.parametrize("name", ["cbuf+par", "cbuf+rot+par"])
    def test_repeated_runs_bit_identical(self, lowered, image, name):
        img, _ = image
        prog = compile_program(lowered[name], SENV, "k")
        first = execute_program(prog, SIZES, {"rgb": img}, threads=2)
        for _ in range(3):
            again = execute_program(prog, SIZES, {"rgb": img}, threads=2)
            assert np.array_equal(first, again)


@pytest.mark.requires_gcc
class TestSemanticsC:
    @pytest.mark.parametrize("name", ["cbuf+par", "cbuf+rot+par"])
    def test_c_backend_deterministic_across_threads(self, lowered, image, name):
        from repro.exec import cbridge

        img, ref = image
        prog = compile_program(lowered[name], SENV, "k")
        lib = cbridge.compile_c_library(prog, extra_flags=cbridge.effective_cflags())
        try:
            outs = {
                t: np.array(
                    cbridge.execute_with_library(
                        lib, prog, SIZES, {"rgb": img}, threads=t
                    ),
                    copy=True,
                )
                for t in (1, 2, 4)
            }
        finally:
            lib.close()
        np.testing.assert_allclose(
            outs[1].reshape(16, 16), ref, rtol=1e-3, atol=1e-4
        )
        assert np.array_equal(outs[1], outs[2])
        assert np.array_equal(outs[1], outs[4])

    def test_c_and_python_agree_bitwise(self, lowered, image):
        from repro.exec import cbridge

        img, _ = image
        prog = compile_program(lowered["cbuf+rot+par"], SENV, "k")
        py = execute_program(prog, SIZES, {"rgb": img}, threads=2)
        lib = cbridge.compile_c_library(prog, extra_flags=cbridge.effective_cflags())
        try:
            c = cbridge.execute_with_library(lib, prog, SIZES, {"rgb": img}, threads=2)
        finally:
            lib.close()
        np.testing.assert_allclose(py, c, rtol=1e-6, atol=1e-6)
