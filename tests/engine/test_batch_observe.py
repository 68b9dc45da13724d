"""Concurrent observability: batch workers must not drop or corrupt
spans or registry counts (the observer context propagates into pool
threads, and process-pool timings aggregate back into the parent
observer).  Exact concurrent counting on the registry itself is
``tests/observe/test_metrics.py::TestThreadSafety``."""

import threading

import pytest

from repro.engine import Engine
from repro.image import synthetic_rgb
from repro.observe import Observer, metrics_registry, observing, reset_registry
from repro.observe.traceevent import trace_events
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier
from repro.strategies import cbuf_version

SENV = {"rgb": harris_input_type()}
SIZES = {"n": 12, "m": 16}
N_ITEMS = 8


@pytest.fixture(scope="module")
def pipeline():
    return Engine().compile(
        harris(Identifier("rgb")),
        strategy=cbuf_version(SENV, chunk=4),
        type_env=SENV,
        sizes=SIZES,
        name="harris_batch_obs",
    )


@pytest.fixture(scope="module")
def items():
    return [{"rgb": synthetic_rgb(16, 20, seed=s)} for s in range(N_ITEMS)]


@pytest.fixture(scope="module")
def thread_batch(pipeline, items):
    """One observed 2-thread batch: ``(batch, observer, registry counters)``."""
    reset_registry()
    with observing() as obs:
        batch = pipeline.run_batch(items, workers=2, mode="thread")
    return batch, obs, metrics_registry().snapshot()["counters"]


def _item_spans(obs):
    roots = [s for s in obs.spans if s.name == "engine.batch"]
    assert len(roots) == 1, [s.name for s in obs.spans]
    return [c for c in roots[0].children if c.name == "engine.batch.item"]


class TestThreadPoolEmission:
    def test_every_item_counter_is_recorded(self, thread_batch):
        batch, obs, counters = thread_batch
        assert batch.mode == "thread"
        # one span per item, recorded in the pool threads
        assert len(_item_spans(obs)) == N_ITEMS
        assert counters["engine.batch.items{mode=thread}"] == N_ITEMS
        assert counters["engine.batch.runs{mode=thread}"] == 1

    def test_span_tree_is_well_formed(self, thread_batch):
        item_spans = _item_spans(thread_batch[1])
        assert len(item_spans) == N_ITEMS
        assert sorted(s.meta["index"] for s in item_spans) == list(range(N_ITEMS))
        for s in item_spans:
            # each item nests its own engine.run (no cross-thread mixing)
            child_names = {c.name for c in s.children}
            assert child_names == {"engine.run"}
            assert s.duration_ms >= 0.0
            assert s.tid > 0

    def test_trace_export_has_item_events(self, thread_batch):
        events = [e for e in trace_events(thread_batch[1]) if e["ph"] == "X"]
        item_events = [e for e in events if e["name"] == "engine.batch.item"]
        assert len(item_events) == N_ITEMS
        # workers record real thread ids; with >1 worker the pool *may*
        # interleave, but every tid must be a live thread-ident-shaped int
        assert all(e["tid"] > 0 for e in item_events)


class TestProcessPoolEmission:
    def test_item_counters_survive_process_workers(
        self, pipeline, items, fresh_metrics_registry
    ):
        with observing() as obs:
            batch = pipeline.run_batch(items, workers=2, mode="process")
        # sandboxes without fork degrade to sequential; both paths must
        # record exactly one engine.batch.item span per input
        assert batch.mode in ("process", "sequential")
        counted = fresh_metrics_registry.counter("engine.batch.items", mode=batch.mode)
        assert counted.value == N_ITEMS
        item_spans = _item_spans(obs)
        assert len(item_spans) == N_ITEMS
        assert all(s.duration_ms > 0 for s in item_spans)


class TestObserverConcurrency:
    def test_concurrent_spans_do_not_corrupt_the_tree(self):
        obs = Observer()

        def worker(i):
            with obs.span(f"w{i}"):
                for j in range(50):
                    with obs.span(f"w{i}.{j}"):
                        pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 8 roots, each with exactly its own 50 children — no strays
        assert sorted(s.name for s in obs.spans) == sorted(f"w{i}" for i in range(8))
        for root in obs.spans:
            assert len(root.children) == 50
            assert all(c.name.startswith(root.name + ".") for c in root.children)
        assert len(obs.flat_spans()) == 8 * 51
