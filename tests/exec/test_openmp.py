"""OpenMP toolchain probing and flag wiring (the dead-pragma fix).

The C printer has always emitted ``#pragma omp parallel for`` on
``PARALLEL`` loops, but the bridge never passed ``-fopenmp``, so the
pragma was dead in every build.  These tests pin the fix: the configure
probe, the effective-flag resolution that every C compile now goes
through, and the exported thread-control helpers.
"""

import numpy as np
import pytest

from repro.codegen import compile_program
from repro.codegen.cprint import program_to_c
from repro.exec import cbridge
from repro.image import reference, synthetic_rgb
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier
from repro.strategies import cbuf_version

SENV = {"rgb": harris_input_type()}


def _parallel_program(name="k"):
    low = cbuf_version(SENV, chunk=4, vec=4).apply(harris(Identifier("rgb")))
    return compile_program(low, SENV, name)


class TestProbe:
    def test_probe_returns_bool(self):
        assert isinstance(cbridge.openmp_available(), bool)

    def test_probe_is_cached(self):
        assert cbridge.openmp_available() is cbridge.openmp_available()

    def test_no_compiler_means_no_openmp(self, monkeypatch):
        monkeypatch.setattr(cbridge, "have_c_compiler", lambda: False)
        cbridge.toolchain.cache_clear()
        try:
            assert cbridge.openmp_available() is False
        finally:
            cbridge.toolchain.cache_clear()


class TestEffectiveFlags:
    def test_flag_present_when_supported(self):
        """Regression: every effective flag set carries -fopenmp on a
        supporting toolchain (the pragma is not dead anymore)."""
        flags = cbridge.effective_cflags()
        if cbridge.openmp_available():
            assert cbridge.OPENMP_FLAG in flags
        else:
            assert cbridge.OPENMP_FLAG not in flags

    def test_flag_not_duplicated(self):
        flags = cbridge.effective_cflags(("-O2", cbridge.OPENMP_FLAG))
        assert flags.count(cbridge.OPENMP_FLAG) <= 1

    def test_base_flags_preserved(self):
        flags = cbridge.effective_cflags(("-O3", "-g"))
        assert flags[0] == "-O3" and flags[1] == "-g"


class TestGeneratedC:
    def test_pragma_on_parallel_loop(self):
        src = program_to_c(_parallel_program())
        assert "#pragma omp parallel for schedule(static)" in src

    def test_thread_helpers_exported(self):
        src = program_to_c(_parallel_program())
        assert "repro_set_threads" in src
        assert "repro_openmp_enabled" in src
        assert "repro_max_threads" in src

    def test_helpers_guarded_for_sequential_builds(self):
        # The helpers must compile without OpenMP too (graceful fallback).
        src = program_to_c(_parallel_program())
        assert "#ifdef _OPENMP" in src


@pytest.mark.requires_gcc
class TestOpenmpBuild:
    def test_set_library_threads_reports_openmp(self):
        prog = _parallel_program()
        lib = cbridge.compile_c_library(prog, extra_flags=cbridge.effective_cflags())
        try:
            enabled = cbridge.set_library_threads(lib, 2)
            assert enabled == cbridge.openmp_available()
        finally:
            lib.close()

    def test_sequential_build_pins_as_noop(self):
        prog = _parallel_program()
        lib = cbridge.compile_c_library(prog, extra_flags=("-O2",))
        try:
            assert cbridge.set_library_threads(lib, 4) is False
        finally:
            lib.close()

    def test_openmp_build_matches_reference(self):
        img = synthetic_rgb(20, 24, seed=13)
        ref = reference.harris(img)
        prog = _parallel_program()
        lib = cbridge.compile_c_library(prog, extra_flags=cbridge.effective_cflags())
        try:
            out = cbridge.execute_with_library(
                lib, prog, {"n": ref.shape[0], "m": ref.shape[1]}, {"rgb": img}
            )
            np.testing.assert_allclose(
                out.reshape(ref.shape), ref, rtol=1e-3, atol=1e-4
            )
        finally:
            lib.close()
