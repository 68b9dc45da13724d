"""Tests for the execution backends: Python source emission and (when a C
compiler is available) the gcc/ctypes bridge."""

import numpy as np
import pytest

from repro.codegen import compile_program
from repro.codegen.cprint import nat_to_c, program_to_c
import repro
from repro.exec import program_to_python
from repro.nat import nat
from repro.rise import Identifier, array, array2d, f32
from repro.rise.dsl import fun, lit, map_seq, reduce_seq, slide

xs = Identifier("xs")


@pytest.fixture(scope="module")
def double_prog():
    prog = map_seq(fun(lambda v: v * lit(2.0)), xs)
    # NB: not "double" — kernel names become C identifiers
    return compile_program(prog, {"xs": array("n", f32)}, "dbl")


class TestPythonBackend:
    def test_source_is_valid_python(self, double_prog):
        source = program_to_python(double_prog, {"n": 4})
        compile(source, "<test>", "exec")
        assert "def dbl(" in source

    def test_run(self, double_prog):
        out = repro.compile(double_prog, sizes={"n": 4}).run(xs=np.arange(4.0))
        np.testing.assert_allclose(out, np.arange(4.0) * 2)

    def test_input_shapes_flattened(self, double_prog):
        out = repro.compile(double_prog, sizes={"n": 4}).run(
            xs=np.arange(4.0).reshape(2, 2)
        )
        assert out.shape == (4,)

    def test_missing_input_raises(self, double_prog):
        with pytest.raises(KeyError):
            repro.compile(double_prog, sizes={"n": 4}).run()

    def test_float32_semantics(self):
        # accumulation happens in float32, like the generated C
        prog = reduce_seq(fun(lambda a, b: a + b), lit(0.0), xs)
        from repro.rise.dsl import map_seq as ms

        wrapped = ms(fun(lambda row: reduce_seq(fun(lambda a, b: a + b), lit(0.0), row)),
                     Identifier("img"))
        compiled = compile_program(wrapped, {"img": array2d(1, "m", f32)}, "k")
        data = np.full(10_000, 0.1, dtype=np.float32).reshape(1, -1)
        out = repro.compile(compiled, sizes={"m": 10_000}).run(img=data)
        expected = np.float32(0)
        for _ in range(10_000):
            expected = np.float32(expected + np.float32(0.1))
        assert out[0] == expected


class TestInputSizes:
    """A wrong-sized input is an error, not a zero-filled or truncated
    buffer that yields a wrong answer."""

    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("c", marks=pytest.mark.requires_gcc)]
    )
    @pytest.mark.parametrize("length", [3, 5])
    def test_wrong_sized_input_raises(self, double_prog, backend, length):
        pipeline = repro.compile(double_prog, backend=backend, sizes={"n": 4})
        with pytest.raises(ValueError, match=f"'xs' holds 4 elements, got {length}"):
            pipeline.run(xs=np.arange(float(length)))


class TestCPrinter:
    def test_nat_to_c(self):
        n = nat("n")
        assert nat_to_c(n + 4) == "(4 + n)"
        assert nat_to_c(n * 2) == "(2 * n)"
        assert nat_to_c(nat(7)) == "7"
        assert "/" in nat_to_c((n + 1) // 2)
        assert "%" in nat_to_c((n + 1) % 2)

    def test_program_compilable_structure(self, double_prog):
        source = program_to_c(double_prog)
        assert "void dbl(" in source
        assert "restrict" in source
        assert "#include" in source

    def test_vector_helpers_present(self, double_prog):
        source = program_to_c(double_prog)
        assert "v4f_load" in source and "v4f_splat" in source

    def test_wide_vectors_get_their_own_types(self):
        # 8-lane values must print through 8-lane types: emitting them as
        # v4f silently dropped half the lanes (caught by the autotuner's
        # differential verification of vectorize(8) candidates)
        from repro.codegen.ir import (
            Block, Buffer, DeclVec, ImpFunction, ImpProgram, IConst,
            VLoad, VStore,
        )

        body = Block([
            DeclVec("v", 8, VLoad("xs", IConst(0), 8)),
            VStore("out", IConst(0), VLoad("xs", IConst(0), 8), 8),
        ])
        fn = ImpFunction(
            "wide", [Buffer("xs", nat(8))], Buffer("out", nat(8)), [], body
        )
        source = program_to_c(ImpProgram("wide", [fn], []))
        assert "typedef float v8f __attribute__((vector_size(32)))" in source
        assert "v8f_load" in source and "v8f_store" in source
        assert "v8f v = v8f_load" in source


@pytest.mark.requires_gcc
class TestCBridge:
    def test_simple_program(self, double_prog):
        out = repro.compile(double_prog, backend="c", sizes={"n": 6}).run(
            xs=np.arange(6.0)
        )
        np.testing.assert_allclose(out, np.arange(6.0) * 2)

    def test_agrees_with_python_backend(self):
        prog_expr = map_seq(
            fun(lambda w: reduce_seq(fun(lambda a, b: a + b), lit(0.0), w)),
            slide(3, 1, xs),
        )
        prog = compile_program(prog_expr, {"xs": array("n", f32)}, "sums")
        data = np.linspace(-2, 2, 9).astype(np.float32)
        py = repro.compile(prog, sizes={"n": 9}).run(xs=data)
        c = repro.compile(prog, backend="c", sizes={"n": 9}).run(xs=data)
        np.testing.assert_allclose(py, c, rtol=1e-6)

    def test_rejected_source_names_the_kernel_and_keeps_diagnostics(self, double_prog):
        from repro.exec.cbridge import STDERR_TAIL_LINES, CCompileError, compile_c_library

        with pytest.raises(CCompileError) as info:
            compile_c_library(double_prog, source="void dbl(void) { not C at all; }\n")
        assert isinstance(info.value, RuntimeError)
        assert info.value.kernel == "dbl"
        assert "error" in info.value.stderr_tail
        assert 0 < len(info.value.stderr_tail.splitlines()) <= STDERR_TAIL_LINES
        assert "'dbl'" in str(info.value) and info.value.stderr_tail in str(info.value)


class TestWedgedCompiler:
    def test_compiler_past_the_limit_is_killed(self, double_prog, tmp_path, monkeypatch):
        from repro.exec import cbridge

        fake = tmp_path / "fake-cc"
        fake.write_text("#!/bin/sh\nexec sleep 30\n")
        fake.chmod(0o755)
        monkeypatch.setattr(cbridge, "_compiler", lambda: str(fake))
        monkeypatch.setattr(cbridge, "GCC_TIMEOUT_S", 0.5)
        with pytest.raises(cbridge.CCompileError, match="'dbl' timed out after 0.5 s"):
            cbridge.compile_c_library(double_prog, out_dir=tmp_path / "out")
