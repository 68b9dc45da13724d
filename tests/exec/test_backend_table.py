"""The backend table is the engine's one backend interface: a backend
put into :data:`repro.exec.BACKEND_TABLE` is compiled, keyed, run,
batched and printed through with no engine change."""

import numpy as np
import pytest

from repro.engine import CompileRequest, Engine
from repro.exec import BACKEND_TABLE, available_backends
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq


SCALE = map_seq(fun(lambda v: v * lit(2.0)), Identifier("xs"))
ENV = {"xs": array("n", f32)}


class FakeBackend:
    """Doubles its ``xs`` input and records what the engine asked of it."""

    BATCH_POOL = "thread"

    def __init__(self):
        self.built: list[tuple[str, list[str]]] = []
        self.runs: list[int] = []

    def available(self):
        return True

    def resolve_cflags(self, cflags):
        return ("-fake", *cflags)

    def build(self, entry, cflags):
        self.built.append((entry.key, list(cflags)))

    def source(self, entry, sizes):
        return f"fake {entry.program.name} {dict(sizes)}"

    def run(self, entry, store, sizes, inputs, threads):
        self.runs.append(threads)
        return 2 * np.asarray(inputs["xs"], dtype=np.float32)


@pytest.fixture
def fake(monkeypatch):
    backend = FakeBackend()
    monkeypatch.setitem(BACKEND_TABLE, "fake", backend)
    return backend


def test_a_table_entry_is_the_whole_backend(fake):
    engine = Engine()
    request = CompileRequest(
        source=SCALE,
        type_env=ENV,
        backend="fake",
        sizes={"n": 8},
        name="fake_scale",
        cflags=("-O1",),
    )

    # compile: one build, with the backend's resolved flags
    pipeline = engine.compile(request)
    assert fake.built == [(pipeline.key, ["-fake", "-O1"])]
    assert pipeline.backend == "fake"
    assert pipeline.report()["request"]["cflags"] == ["-fake", "-O1"]
    assert engine.compile(request).cache_status == "hit-memory"
    assert len(fake.built) == 1

    # key: the resolved flags and the backend name are keyed
    assert engine._keyed(request)[1] == pipeline.key
    assert engine._keyed(request.replace(backend="python"))[1] != pipeline.key

    # run and batch: the fake's run, on the fake's pool
    xs = np.arange(8, dtype=np.float32)
    np.testing.assert_array_equal(pipeline.run(xs=xs, threads=3), 2 * xs)
    batch = pipeline.run_batch([{"xs": xs}, {"xs": xs + 1}], workers=2)
    assert batch.mode == "thread"
    np.testing.assert_array_equal(batch.outputs[1], 2 * (xs + 1))
    assert fake.runs == [3, 1, 1]  # batch items run single-threaded

    # source, and availability
    assert pipeline.source == "fake fake_scale {'n': 8}"
    assert "fake" in available_backends()


@pytest.mark.requires_gcc
def test_c_run_rebuilds_a_closed_library_without_a_store():
    """A memory-only engine has no stored ``.so`` to reload, so the C
    backend's ``run`` rebuilds a closed library through ``build``."""
    pipeline = Engine().compile(SCALE, type_env=ENV, backend="c", sizes={"n": 8})
    xs = np.arange(8, dtype=np.float32)
    first = pipeline.run(xs=xs)
    closed = pipeline._entry.library
    closed.close()
    np.testing.assert_array_equal(pipeline.run(xs=xs), first)
    assert pipeline._entry.library is not closed
    assert not pipeline._entry.library.closed
