"""Where a miss is built, and what a build child leaves behind.

A miss of a plain-data request on a store-backed engine is built by a
short-lived child interpreter that publishes into the store; everything
else is built in a worker thread (:func:`repro.serve.builds_out_of_process`
is the one rule).  These tests pin the parts of that contract a caller
can count: the request crosses the process boundary intact (or is
refused), N concurrent submissions of one cold key are one ``"miss"``
and N-1 ``"coalesced"``, a wedged child is killed with a typed error,
and no child outlives :meth:`Server.stop` or holds its parent's pipes.
"""

import asyncio
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import CompileRequest, Engine
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq
from repro.serve import BuildTimeout, Server, builds_out_of_process
from repro.serve import server as server_module
from repro.strategies import cbuf_version

SRC = Path(__file__).resolve().parents[2] / "src"
xs = Identifier("xs")
ENV = {"xs": array("n", f32)}


def _request(factor: float = 2.0, backend: str = "python") -> CompileRequest:
    return CompileRequest(
        source=map_seq(fun(lambda v: v * lit(factor)), xs),
        type_env=ENV,
        name=f"scale{int(factor)}",
        sizes={"n": 6},
        backend=backend,
    )


def _live_strategy_request() -> CompileRequest:
    env = {"rgb": harris_input_type()}
    return CompileRequest(
        source=harris(Identifier("rgb")), strategy=cbuf_version(env), type_env=env
    )


def _spawned_pids(event_log) -> list[int]:
    return [
        r["attrs"]["pid"] for r in event_log.events() if r["event"] == "serve.build.spawn"
    ]


def _reaped(pid: int) -> bool:
    """True when ``pid`` is no child of this process awaiting collection."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestRequestPickling:
    def test_round_trip_refreezes_and_keeps_the_cache_key(self):
        request = _request(3.0).replace(threads=2, cflags=("-O1",))
        back = pickle.loads(pickle.dumps(request))
        assert back == request
        assert back.request_id == request.request_id
        with pytest.raises(TypeError):
            back.type_env["ys"] = f32  # the mappings are read-only again
        assert Engine().compile_request(back).key == Engine().compile_request(request).key

    def test_unpickling_revalidates(self):
        rebuild, args = CompileRequest(source="zoo").__reduce__()
        assert rebuild(*args) == CompileRequest(source="zoo", request_id=args[-1])
        tampered = list(args)
        tampered[2] = "cuda"  # the backend field
        with pytest.raises(ValueError, match="backend"):
            rebuild(*tampered)

    def test_live_strategy_is_refused(self):
        with pytest.raises(TypeError, match="live strategy"):
            pickle.dumps(_live_strategy_request())


class TestWhereAMissIsBuilt:
    def test_one_rule(self, tmp_path):
        stored = Engine(cache_dir=tmp_path / "store")
        assert builds_out_of_process(stored, _request())
        assert builds_out_of_process(stored, CompileRequest(source="zoo", backend="c"))
        assert not builds_out_of_process(stored, _live_strategy_request())
        assert not builds_out_of_process(Engine(), _request())


class TestChildBuilds:
    N = 3

    def test_duplicates_of_one_cold_key_are_one_miss(
        self, tmp_path, fresh_metrics_registry, fresh_event_log
    ):
        request = _request(5.0)
        key = Engine().compile_request(request).key  # content address, store-independent
        engine = Engine(cache_dir=tmp_path / "store")

        async def main():
            async with Server(engine, workers=self.N) as server:
                # the child blocks on the store's build lock until every
                # duplicate has reached a worker and joined the flight
                with engine.cache.store.build_lock(key):
                    pending = asyncio.gather(
                        *(server.submit(request.replace(request_id=None)) for _ in range(self.N))
                    )
                    for _ in range(3000):
                        await asyncio.sleep(0.01)
                        dequeued = [
                            r for r in fresh_event_log.events() if r["event"] == "serve.dequeue"
                        ]
                        if len(dequeued) == self.N and _spawned_pids(fresh_event_log):
                            break
                    # the child runs at lowered priority (held on the
                    # lock, it is still alive to be asked)
                    (pid,) = _spawned_pids(fresh_event_log)
                    wanted = min(19, os.getpriority(os.PRIO_PROCESS, 0) + server_module.BUILD_NICE)
                    for _ in range(3000):
                        niceness = os.getpriority(os.PRIO_PROCESS, pid)
                        if niceness == wanted:
                            break
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.25)
                return await pending, niceness, wanted

        pipelines, niceness, wanted = asyncio.run(main())
        assert niceness == wanted
        assert sorted(p.cache_status for p in pipelines) == ["coalesced"] * (self.N - 1) + ["miss"]
        assert {p.key for p in pipelines} == {key}
        assert engine.cache.store.contains(key)
        assert fresh_metrics_registry.counter("engine.compile.coalesced").value == self.N - 1
        (pid,) = _spawned_pids(fresh_event_log)
        assert _reaped(pid)
        out = pipelines[0].run(xs=np.arange(6.0))
        np.testing.assert_allclose(out, np.arange(6.0) * 5)

    def test_wedged_child_is_killed_with_a_typed_error(
        self, tmp_path, monkeypatch, fresh_event_log
    ):
        request = _request(7.0)
        key = Engine().compile_request(request).key
        engine = Engine(cache_dir=tmp_path / "store")
        monkeypatch.setattr(server_module, "BUILD_TIMEOUT_S", 1.0)

        async def main():
            async with Server(engine, workers=1) as server:
                # holding the build lock wedges the child on it for good
                with engine.cache.store.build_lock(key):
                    with pytest.raises(BuildTimeout, match="was killed"):
                        await server.submit(request)
                return server.stats

        stats = asyncio.run(main())
        assert stats.failed == 1
        assert not engine.cache.store.contains(key)
        (pid,) = _spawned_pids(fresh_event_log)
        assert _reaped(pid)
        exits = [r for r in fresh_event_log.events() if r["event"] == "serve.build.exit"]
        assert [e["attrs"]["outcome"] for e in exits] == ["timeout"]


#: Serves one cold C-backend request from a store-backed server, then
#: reports its status and which of the children it spawned are unreaped.
#: ``repro`` comes from argv[1], not from PYTHONPATH, as in the benchmark.
_LEAK_SCRIPT = """
import asyncio, json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from repro.engine import CompileRequest, Engine
from repro.observe.events import event_log
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq
from repro.serve import Server

request = CompileRequest(
    source=map_seq(fun(lambda v: v * lit(3.0)), Identifier("xs")),
    type_env={"xs": array("n", f32)}, name="leak", sizes={"n": 6}, backend="c",
)

async def main():
    async with Server(Engine(cache_dir=sys.argv[2]), workers=2) as server:
        pipeline = await server.submit(request)
    return pipeline

pipeline = asyncio.run(main())
pids = [r["attrs"]["pid"] for r in event_log().events() if r["event"] == "serve.build.spawn"]
unreaped = []
for pid in pids:
    try:
        os.waitpid(pid, os.WNOHANG)
        unreaped.append(pid)
    except ChildProcessError:
        pass
out = pipeline.run(xs=np.arange(6.0))
print(json.dumps({"status": pipeline.cache_status, "children": len(pids),
                  "unreaped": unreaped, "ok": bool(np.allclose(out, np.arange(6.0) * 3))}))
"""


@pytest.mark.requires_gcc
def test_server_process_exits_with_every_child_reaped(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", _LEAK_SCRIPT, str(SRC), str(tmp_path / "store")],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report == {"status": "miss", "children": 1, "unreaped": [], "ok": True}
