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


@pytest.fixture(scope="module")
def sums_prog():
    """Windowed sums: every output reads three neighbouring inputs, so a
    mis-ordered or mis-strided input changes the answer."""
    expr = map_seq(
        fun(lambda w: reduce_seq(fun(lambda a, b: a + b), lit(0.0), w)),
        slide(3, 1, xs),
    )
    return compile_program(expr, {"xs": array("n", f32)}, "sums")


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

    def test_agrees_with_python_backend(self, sums_prog):
        data = np.linspace(-2, 2, 9).astype(np.float32)
        py = repro.compile(sums_prog, sizes={"n": 9}).run(xs=data)
        c = repro.compile(sums_prog, backend="c", sizes={"n": 9}).run(xs=data)
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


BACKENDS = ["python", pytest.param("c", marks=pytest.mark.requires_gcc)]


def _copied_bytes() -> float:
    from repro.observe.metrics import registry

    return registry().counter("exec.copy_bytes").value


def _doubling_kernel(pad: int, read_at):
    """``out[i] = 2 * xs[read_at(i)]`` over ``n``, both buffers declaring
    ``pad``."""
    from repro.codegen.ir import (
        BinOp, Block, Buffer, FConst, For, ImpFunction, ImpProgram, Load,
        NatE, Store, Var,
    )

    n = nat("n")
    body = Block([
        For("i", NatE(n), Block([
            Store("out", Var("i"), BinOp("mul", FConst(2.0), Load("xs", read_at(Var("i"))))),
        ])),
    ])
    fn = ImpFunction(
        f"dbl_pad{pad}",
        [Buffer("xs", n, pad=pad)],
        Buffer("out", n, pad=pad),
        ["n"],
        body,
    )
    return ImpProgram(fn.name, [fn], ["n"])


class TestBufferOwnership:
    """Caller arrays are read in place when they already have the
    kernel's layout, converted once otherwise, and never written; every
    run returns a fresh output."""

    DATA = np.linspace(-2, 2, 12).astype(np.float32)

    def _run(self, prog, backend, **inputs):
        return repro.compile(prog, backend=backend, sizes={"n": 12}).run(**inputs)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_inputs_are_never_written(self, sums_prog, backend):
        data = self.DATA.copy()
        self._run(sums_prog, backend, xs=data)
        np.testing.assert_array_equal(data, self.DATA)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_run_returns_a_fresh_output(self, sums_prog, backend):
        pipeline = repro.compile(sums_prog, backend=backend, sizes={"n": 12})
        first = pipeline.run(xs=self.DATA)
        second = pipeline.run(xs=self.DATA)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, self.DATA)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "convert",
        [
            lambda a: a.astype(np.float64),
            lambda a: np.asfortranarray(a.reshape(3, 4)),
            lambda a: np.repeat(a, 2)[::2],
        ],
        ids=["float64", "fortran", "strided"],
    )
    def test_other_layouts_match_contiguous_float32(
        self, sums_prog, backend, convert, fresh_metrics_registry
    ):
        expected = self._run(sums_prog, backend, xs=self.DATA)
        assert _copied_bytes() == 0
        other = convert(self.DATA)
        assert not (other.dtype == np.float32 and other.flags.c_contiguous)
        out = self._run(sums_prog, backend, xs=other)
        np.testing.assert_array_equal(out, expected)
        assert _copied_bytes() == self.DATA.nbytes

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_declared_parameter_pad_takes_the_copy_path(self, backend, fresh_metrics_registry):
        """Artifacts lowered before parameter pads were dropped carry
        ``pad=8``: they are copied into padded buffers and stay correct."""
        out = self._run(_doubling_kernel(8, lambda i: i), backend, xs=self.DATA)
        np.testing.assert_array_equal(out, 2 * self.DATA)
        assert out.size == self.DATA.size
        assert _copied_bytes() == self.DATA.nbytes

    def test_declared_pad_is_allocated(self):
        """Regression: the runtimes allocated ``size + 8`` whatever pad the
        IR declared, so a read inside a pad of 16 raised ``IndexError``."""
        from repro.codegen.ir import NatE

        prog = _doubling_kernel(16, lambda i: NatE(nat("n") + 12))
        out = self._run(prog, "python", xs=self.DATA)
        np.testing.assert_array_equal(out, np.zeros(12, dtype=np.float32))

    @pytest.mark.requires_gcc
    def test_thread_batch_on_a_never_run_pipeline(
        self, sums_prog, fresh_engine, fresh_metrics_registry
    ):
        """Concurrent first calls share one library and race to build its
        call plan: exactly one is built, and every item still sees its own
        inputs and output."""
        import sys

        pipeline = fresh_engine.compile(sums_prog, backend="c", sizes={"n": 12})
        items = [{"xs": self.DATA * k} for k in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = pipeline.run_batch(items, workers=8, mode="thread")
        finally:
            sys.setswitchinterval(interval)
        assert batch.mode == "thread"
        assert fresh_metrics_registry.histogram("exec.bind_ms").count == 1
        expected = [pipeline.run(**item) for item in items]
        for out, want in zip(batch.outputs, expected):
            np.testing.assert_array_equal(out, want)
        assert len({o.ctypes.data for o in batch.outputs}) == len(items)
