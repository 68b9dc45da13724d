"""Parallel execution: thread resolution, Python-backend strip dispatch,
determinism, fallback accounting, the batch oversubscription policy and
the C backend's multicore speedup."""

import os
import time

import numpy as np
import pytest

from repro.codegen import compile_program
from repro.codegen.ir import Block, For, IConst, ImpFunction, LoopKind, Buffer
from repro.exec.parallel import (
    MAX_THREADS,
    batch_worker_scope,
    effective_threads,
    in_batch_worker,
    resolve_threads,
)
from repro.exec.pyexec import (
    count_parallel_loops,
    execute_program,
    function_to_python_strips,
    program_to_python,
    strip_bounds,
    strippable_parallel_loop,
)
from repro.image import reference, synthetic_rgb
from repro.nat import nat
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier
from repro.strategies import cbuf_rrot_par_version, cbuf_version, naive_version

SENV = {"rgb": harris_input_type()}


@pytest.fixture(scope="module")
def parallel_program():
    low = cbuf_version(SENV, chunk=4, vec=4).apply(harris(Identifier("rgb")))
    return compile_program(low, SENV, "k")


@pytest.fixture(scope="module")
def image():
    img = synthetic_rgb(20, 20, seed=5)
    return img, reference.harris(img)


class TestThreadResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "7")
        assert resolve_threads(3) == 3

    def test_repro_env_beats_omp_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "5")
        monkeypatch.setenv("OMP_NUM_THREADS", "9")
        assert resolve_threads() == 5

    def test_omp_env_honored(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        assert resolve_threads() == 3

    def test_clamped_to_bounds(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert resolve_threads(0) == 1
        assert resolve_threads(-4) == 1
        assert resolve_threads(10_000) == MAX_THREADS

    def test_garbage_env_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "lots")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert resolve_threads() == 2

    def test_batch_scope_degrades_to_one(self):
        assert not in_batch_worker()
        with batch_worker_scope():
            assert in_batch_worker()
            assert effective_threads(8) == 1
        assert not in_batch_worker()
        assert effective_threads(8) == 8


class TestStripBounds:
    def test_partition_covers_range(self):
        for extent in (1, 3, 7, 8, 16):
            for threads in (1, 2, 3, 4, 9):
                bounds = strip_bounds(extent, threads)
                covered = [i for lo, hi in bounds for i in range(lo, hi)]
                assert covered == list(range(extent))

    def test_static_balance(self):
        sizes = [hi - lo for lo, hi in strip_bounds(10, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_no_empty_strips(self):
        assert strip_bounds(2, 8) == [(0, 1), (1, 2)]


class TestLoopKindSurfacing:
    def test_parallel_comment_in_source(self, parallel_program):
        """Satellite fix: pyexec used to silently drop LoopKind.PARALLEL;
        the generated source now surfaces it."""
        src = program_to_python(parallel_program, {"n": 16, "m": 16})
        assert "LoopKind.PARALLEL" in src

    def test_sequential_program_has_no_marker(self):
        low = naive_version().apply(harris(Identifier("rgb")))
        prog = compile_program(low, SENV, "k")
        src = program_to_python(prog, {"n": 16, "m": 16})
        assert "LoopKind.PARALLEL" not in src

    def test_count_parallel_loops(self, parallel_program):
        assert count_parallel_loops(parallel_program.functions[-1]) == 1


class TestStrippability:
    def test_cbuf_kernel_is_strippable(self, parallel_program):
        loop = strippable_parallel_loop(parallel_program.functions[-1])
        assert loop is not None and loop.kind is LoopKind.PARALLEL

    def test_two_top_level_parallel_loops_are_not(self):
        par = lambda var: For(var, IConst(4), Block([]), kind=LoopKind.PARALLEL)
        fn = ImpFunction(
            name="f",
            inputs=[Buffer("x", nat(16))],
            output=Buffer("out", nat(16)),
            size_vars=[],
            body=Block([par("i"), par("j")]),
        )
        assert strippable_parallel_loop(fn) is None

    def test_trailing_sequential_loop_blocks_stripping(self):
        fn = ImpFunction(
            name="f",
            inputs=[],
            output=Buffer("out", nat(16)),
            size_vars=[],
            body=Block(
                [
                    For("i", IConst(4), Block([]), kind=LoopKind.PARALLEL),
                    For("j", IConst(4), Block([])),
                ]
            ),
        )
        assert strippable_parallel_loop(fn) is None

    def test_strip_source_has_bounded_loop(self, parallel_program):
        src = function_to_python_strips(
            parallel_program.functions[-1], {"n": 16, "m": 16}
        )
        assert "__strip(_lo, _hi," in src
        assert "range(_lo, _hi)" in src


class TestStripExecution:
    def test_bit_identical_across_thread_counts(self, parallel_program, image):
        img, ref = image
        outs = {
            t: execute_program(
                parallel_program, {"n": 16, "m": 16}, {"rgb": img}, threads=t
            )
            for t in (1, 2, 4)
        }
        np.testing.assert_allclose(
            outs[1].reshape(16, 16), ref, rtol=1e-3, atol=1e-4
        )
        assert np.array_equal(outs[1], outs[2])
        assert np.array_equal(outs[1], outs[4])

    def test_strip_metrics_recorded(
        self, parallel_program, image, fresh_metrics_registry
    ):
        img, _ = image
        execute_program(parallel_program, {"n": 16, "m": 16}, {"rgb": img}, threads=2)
        snap = fresh_metrics_registry.snapshot()
        assert any(k.startswith("exec.py.parallel.strips") for k in snap["counters"])
        assert any(k.startswith("exec.py.parallel.loops") for k in snap["counters"])
        assert any(
            k.startswith("exec.py.parallel.span_ms") for k in snap["histograms"]
        )

    def test_sequential_fallback_counted(
        self, parallel_program, image, fresh_metrics_registry
    ):
        img, _ = image
        execute_program(parallel_program, {"n": 16, "m": 16}, {"rgb": img}, threads=1)
        snap = fresh_metrics_registry.snapshot()
        keys = [k for k in snap["counters"] if "exec.py.parallel.sequential" in k]
        assert keys and any("reason=threads" in k for k in keys)

    def test_batch_worker_degrades_nested_parallelism(
        self, parallel_program, image, fresh_metrics_registry
    ):
        """Oversubscription policy: inside a batch worker the strip pool
        is disabled even when threads would otherwise be > 1."""
        img, _ = image
        with batch_worker_scope():
            execute_program(
                parallel_program, {"n": 16, "m": 16}, {"rgb": img}, threads=4
            )
        snap = fresh_metrics_registry.snapshot()
        assert any("exec.py.parallel.sequential" in k for k in snap["counters"])
        assert not any("exec.py.parallel.strips" in k for k in snap["counters"])


class TestBatchOversubscription:
    def test_thread_batch_runs_items_sequentially_inside(
        self, image, fresh_metrics_registry, fresh_engine
    ):
        img, ref = image
        pipeline = fresh_engine.compile(
            harris(Identifier("rgb")),
            strategy=cbuf_version(SENV, chunk=4, vec=4),
            type_env=SENV,
            sizes={"n": 16, "m": 16},
        )
        batch = pipeline.run_batch([{"rgb": img}] * 3, workers=2, mode="thread")
        for out in batch.outputs:
            np.testing.assert_allclose(
                out.reshape(16, 16), ref, rtol=1e-3, atol=1e-4
            )
        snap = fresh_metrics_registry.snapshot()
        # every item saw the batch scope: nested parallel loops serialized
        assert not any("exec.py.parallel.strips" in k for k in snap["counters"])


@pytest.mark.requires_gcc
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="speedup check needs >= 4 CPU cores"
)
class TestSpeedupAcceptance:
    def test_parallel_schedule_speeds_up_at_four_threads(self, fresh_engine):
        """Acceptance: >= 1.3x wall speedup for cbuf+rot+par at 4 vs 1
        threads with gcc + OpenMP (min of 3 runs at 516x516)."""
        from repro.exec.cbridge import openmp_available

        if not openmp_available():
            pytest.skip("toolchain lacks OpenMP")
        pipeline = fresh_engine.compile(
            harris(Identifier("rgb")),
            strategy=cbuf_rrot_par_version(SENV, chunk=4, vec=4, strip=2),
            type_env=SENV,
            backend="c",
            sizes={"n": 512, "m": 512},
        )
        img = synthetic_rgb(516, 516, seed=7)

        def min_ms(threads):
            runs = []
            for _ in range(3):
                t0 = time.perf_counter()
                pipeline.run(threads=threads, rgb=img)
                runs.append(time.perf_counter() - t0)
            return min(runs)

        assert min_ms(1) / min_ms(4) >= 1.3
