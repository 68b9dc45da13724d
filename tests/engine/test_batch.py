"""Batch execution: parallel fan-out must be bit-identical to a
sequential loop, whatever pool flavor actually runs."""

import numpy as np
import pytest

from repro.engine import BatchRunner, Engine
from repro.image import synthetic_rgb
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq
from repro.strategies import cbuf_version

SENV = {"rgb": harris_input_type()}
SIZES = {"n": 12, "m": 16}


@pytest.fixture(scope="module")
def pipeline():
    return Engine().compile(
        harris(Identifier("rgb")),
        strategy=cbuf_version(SENV, chunk=4),
        type_env=SENV,
        sizes=SIZES,
        name="harris_batch",
    )


@pytest.fixture(scope="module")
def items():
    # the acceptance bar: at least 8 distinct Harris inputs
    return [{"rgb": synthetic_rgb(16, 20, seed=s)} for s in range(8)]


class TestBatchEquivalence:
    def test_batch_is_bit_identical_to_sequential(self, pipeline, items):
        sequential = [pipeline.run(**item) for item in items]
        batch = pipeline.run_batch(items, workers=2)
        assert len(batch) == len(items)
        assert batch.mode in ("process", "sequential")  # degrades w/o fork
        for seq_out, batch_out in zip(sequential, batch.outputs):
            np.testing.assert_array_equal(seq_out, batch_out)

    def test_thread_mode_matches_too(self, pipeline, items):
        sequential = [pipeline.run(**item) for item in items]
        batch = pipeline.run_batch(items, workers=2, mode="thread")
        for seq_out, batch_out in zip(sequential, batch.outputs):
            np.testing.assert_array_equal(seq_out, batch_out)

    def test_order_is_preserved(self, pipeline, items):
        # items are distinct images, so order mix-ups are detectable
        batch = pipeline.run_batch(items, workers=2)
        redo = pipeline.run_batch(list(reversed(items)), workers=2)
        for a, b in zip(batch.outputs, reversed(redo.outputs)):
            np.testing.assert_array_equal(a, b)


class TestBatchResult:
    def test_single_worker_runs_sequentially(self, pipeline, items):
        batch = pipeline.run_batch(items[:2], workers=1)
        assert batch.mode == "sequential"
        assert batch.workers == 1

    def test_report_shape(self, pipeline, items):
        batch = pipeline.run_batch(items, workers=2)
        d = batch.to_dict()
        assert d["items"] == 8
        assert d["workers"] == batch.workers
        assert d["mode"] == batch.mode
        assert d["total_wall_ms"] > 0
        assert d["throughput_items_per_s"] > 0
        assert len(batch.item_wall_ms) == 8

    def test_invalid_mode_is_rejected(self, pipeline):
        with pytest.raises(ValueError, match="mode"):
            BatchRunner(pipeline, mode="gpu")

    @pytest.mark.requires_gcc
    def test_process_mode_is_refused_on_a_thread_pool_backend(self):
        """A C batch forced into processes used to run the Python runtime
        there and still report ``mode="process"``."""
        scale = Engine().compile(
            map_seq(fun(lambda v: v * lit(2.0)), Identifier("xs")),
            type_env={"xs": array("n", f32)},
            backend="c",
            sizes={"n": 8},
            name="batch_scale",
        )
        items = [{"xs": np.arange(8, dtype=np.float32)}] * 2
        with pytest.raises(ValueError, match="backend 'c'"):
            scale.run_batch(items, workers=2, mode="process")
        assert scale.run_batch(items, workers=2).mode == "thread"
