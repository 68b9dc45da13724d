"""Smoke tests for the experiment harness (the paper's claims are
``tests/bench/test_paper_claims.py``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import compile_all, padded_sizes
from repro.image import PAPER_IMAGE_LARGE, PAPER_IMAGE_SMALL


class TestHarness:
    def test_padded_sizes_alignment(self):
        sizes = padded_sizes(PAPER_IMAGE_SMALL, chunk=32, vec=4)
        assert sizes["n"] % 32 == 0
        assert sizes["m"] % 4 == 0
        assert sizes["n"] >= PAPER_IMAGE_SMALL.height - 4
        assert sizes["m"] >= PAPER_IMAGE_SMALL.width - 4

    def test_padding_is_small(self):
        for spec in (PAPER_IMAGE_SMALL, PAPER_IMAGE_LARGE):
            sizes = padded_sizes(spec)
            overhead = sizes["n"] * sizes["m"] / ((spec.height - 4) * (spec.width - 4))
            assert overhead < 1.03  # <3% extra work from rounding

    def test_compile_all_caches(self):
        a = compile_all()
        b = compile_all()
        assert a is b
        assert set(a) == {
            "OpenCV",
            "Lift",
            "Halide",
            "RISE (cbuf)",
            "RISE (cbuf+rot)",
        }

    def test_single_vs_multi_kernel(self):
        programs = compile_all()
        assert len(programs["Halide"].functions) == 1
        assert len(programs["RISE (cbuf)"].functions) == 1
        assert len(programs["Lift"].functions) > 1
        assert len(programs["OpenCV"].functions) > 1


@pytest.mark.parametrize("module", ["repro.bench.harness", "repro.bench.zoo"])
def test_module_cli_runs_one_copy_of_itself(module):
    """``python -m repro.bench.<module>`` must not find the module already
    imported by its package (runpy then warns and runs a second copy)."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
