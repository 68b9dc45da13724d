"""Lowering decides by type, before it emits anything.

A rotation consumer ``map(f)(rotateValues(m)(values))`` rotates values
through registers when their element type is a register tree and reads
a sliding window otherwise; a ``mapSeqVec`` becomes vector strips unless
the element is not a register tree or the vectorizer refuses its code.
So no probe code stays in a kernel, a lowering error propagates (it is
never caught into a half-emitted block), and each fallback taken counts
one ``codegen.fallback.*``.
"""

import pytest

from repro.bench.ablation import ablation_variants
from repro.codegen import CodegenError, compile_program
from repro.codegen import lower
from repro.codegen.ir import count_ir_nodes
from repro.codegen.vectorize import VectorizeError
from repro.pipelines import registry
from tests.support import fallback_counts


@pytest.fixture(scope="module")
def no_cbuf():
    """The E6 "no circular buffering" variant at chunk 32, vec 4, lowered
    once: ``(program, fallbacks its lowering took)``."""
    spec = registry.get("harris")
    env = spec.type_env()
    low = ablation_variants(env, 32, 4)["no circular buffering"].apply(spec.expr())
    before = fallback_counts()
    prog = compile_program(low, env, "no_cbuf")
    return prog, {k: v - before[k] for k, v in fallback_counts().items()}


def test_no_cbuf_rotates_one_array_through_a_window(no_cbuf):
    """Its rotated values are whole lines (arrays), which no register holds."""
    assert no_cbuf[1] == {
        "codegen.fallback.rotate_window": 1,
        "codegen.fallback.scalar_loop": 0,
    }


def test_no_cbuf_carries_no_probe_code(no_cbuf):
    """Evaluating element 0 to learn its shape emitted ~3,000 IR nodes
    nothing read (13,440 nodes in all); the window alone is ~10,400."""
    assert count_ir_nodes(no_cbuf[0]) <= 11_000


def test_default_kernels_take_no_fallback(fresh_zoo_grid):
    """The 24 applicable pairs and the 3 Harris baselines: every rotation
    is in registers and every mapSeqVec is vector code."""
    assert fresh_zoo_grid[3] == {
        "codegen.fallback.rotate_window": 0,
        "codegen.fallback.scalar_loop": 0,
    }


def test_vector_rotation_error_propagates(monkeypatch):
    """An error building the vector rotation window reaches the caller.
    Caught, it once left the kernel body in a block never popped: a
    "successful" compile with no store to ``out``."""

    def refuse(*args):
        raise CodegenError("injected")

    monkeypatch.setattr(lower, "VShuffle", refuse)
    spec = registry.get("gaussian-blur")
    low = spec.schedule("cbuf-rot", chunk=4, vec=4, strip=2).apply(spec.expr())
    with pytest.raises(CodegenError, match="injected"):
        compile_program(low, spec.type_env(), "gaussian_cbuf_rot")


def test_vectorize_refusal_is_a_lowering_refusal():
    """The tuner prunes and the fuzzer skips on ``CodegenError`` alone."""
    assert issubclass(VectorizeError, CodegenError)
