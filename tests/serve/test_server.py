"""Server admission control: bounded queue, deadlines, error surfaces."""

import asyncio
import threading

import numpy as np
import pytest

from repro.engine import CompileRequest, Engine
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq
from repro.serve import DeadlineExceeded, Server, ServerBusy, ServerError

xs = Identifier("xs")
ENV = {"xs": array("n", f32)}


def _request(factor: float = 2.0) -> CompileRequest:
    return CompileRequest(
        source=map_seq(fun(lambda v: v * lit(factor)), xs),
        type_env=ENV,
        name=f"scale{int(factor)}",
        sizes={"n": 6},
    )


class _SlowEngine(Engine):
    """An engine whose builds block until the test releases them."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()

    def _build_program(self, *args, **kwargs):
        assert self.release.wait(timeout=30)
        return super()._build_program(*args, **kwargs)


class TestLifecycle:
    def test_submit_outside_context_is_an_error(self):
        server = Server(Engine())

        async def main():
            with pytest.raises(ServerError, match="not running"):
                await server.submit(_request())

        asyncio.run(main())

    def test_submit_rejects_non_requests(self):
        async def main():
            async with Server(Engine()) as server:
                with pytest.raises(TypeError, match="CompileRequest"):
                    await server.submit({"source": "zoo"})

        asyncio.run(main())

    def test_stop_drains_a_full_queue(self):
        engine = _SlowEngine()

        async def main():
            server = await Server(engine, max_queue=1, workers=1).start()
            first = asyncio.ensure_future(server.submit(_request(2.0)))
            for _ in range(100):
                await asyncio.sleep(0.01)
                if server._queue.qsize() == 0:
                    break
            second = asyncio.ensure_future(server.submit(_request(3.0)))
            await asyncio.sleep(0.01)  # second fills the one queue slot
            asyncio.get_running_loop().call_later(0.05, engine.release.set)
            await server.stop()
            return await first, await second

        first, second = asyncio.run(main())
        assert (first.cache_status, second.cache_status) == ("miss", "miss")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_queue"):
            Server(Engine(), max_queue=0)
        with pytest.raises(ValueError, match="workers"):
            Server(Engine(), workers=0)


class TestHappyPath:
    def test_submit_returns_a_runnable_pipeline(self):
        async def main():
            async with Server(Engine()) as server:
                pipeline = await server.submit(_request())
                return pipeline

        pipeline = asyncio.run(main())
        out = pipeline.run(xs=np.arange(6.0))
        np.testing.assert_allclose(out, np.arange(6.0) * 2)
        assert pipeline.cache_status == "miss"

    def test_duplicate_submissions_share_one_build(self):
        async def main():
            engine = Engine()
            async with Server(engine, workers=4) as server:
                pipelines = await asyncio.gather(
                    *(server.submit(_request()) for _ in range(6))
                )
                return engine, pipelines

        engine, pipelines = asyncio.run(main())
        assert engine.cache.stats.stores == 1
        assert {p.key for p in pipelines} == {pipelines[0].key}

    def test_stats_track_completions(self):
        async def main():
            async with Server(Engine()) as server:
                await server.submit(_request())
                return server.to_dict()

        doc = asyncio.run(main())
        assert doc["submitted"] == 1
        assert doc["completed"] == 1
        assert doc["rejected"] == 0


class TestHitsBypassTheQueue:
    def test_hit_is_answered_while_every_build_slot_is_held(
        self, fresh_metrics_registry, fresh_event_log
    ):
        engine = _SlowEngine()
        warm = _request(7.0)
        engine.release.set()
        engine.compile_request(warm)
        engine.release.clear()

        async def main():
            async with Server(engine, max_queue=1, workers=2) as server:
                blocked = []
                for factor in (2.0, 3.0):
                    blocked.append(asyncio.ensure_future(server.submit(_request(factor))))
                    for _ in range(100):
                        await asyncio.sleep(0.01)
                        if server._queue.qsize() == 0:
                            break
                # both workers now sit in blocked builds; a third miss
                # takes the one queue slot
                queued = asyncio.ensure_future(server.submit(_request(5.0)))
                await asyncio.sleep(0.01)

                def admission():
                    return (
                        fresh_metrics_registry.gauge("serve.queue_depth").value,
                        server.stats.queue_high_water,
                        server.stats.rejected,
                    )

                before = admission()
                hit = await asyncio.wait_for(server.submit(warm), timeout=30)
                after = admission()
                engine.release.set()
                await asyncio.gather(*blocked, queued)
                return hit, before, after

        hit, before, after = asyncio.run(main())
        assert hit.cache_status == "hit-memory"
        assert before[0] == 1  # the queue is full ...
        assert after == before  # ... and the hit neither queued nor was refused
        waits = fresh_metrics_registry.histogram("serve.wait_ms")
        assert waits.count == 4  # three misses dequeued + the hit's zero wait
        admitted = [r for r in fresh_event_log.events() if r["event"] == "serve.admit"]
        assert len(admitted) == 3


class TestAdmissionControl:
    def test_full_queue_rejects_with_server_busy(self):
        engine = _SlowEngine()

        async def main():
            async with Server(engine, max_queue=1, workers=1) as server:
                first = asyncio.ensure_future(server.submit(_request(2.0)))
                # let the single worker pick up the blocking build
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    if server._queue.qsize() == 0:
                        break
                second = asyncio.ensure_future(server.submit(_request(3.0)))
                await asyncio.sleep(0.01)  # second occupies the one queue slot
                with pytest.raises(ServerBusy, match="queue full"):
                    await server.submit(_request(5.0))
                assert server.stats.rejected == 1
                engine.release.set()
                await asyncio.gather(first, second)

        asyncio.run(main())

    def test_deadline_exceeded_does_not_cancel_the_build(self):
        engine = _SlowEngine()

        async def main():
            async with Server(engine, workers=1) as server:
                with pytest.raises(DeadlineExceeded):
                    await server.submit(_request(), deadline_s=0.05)
                assert server.stats.deadline_exceeded == 1
                # the shielded build completes and warms the cache ...
                engine.release.set()
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if engine.cache.stats.stores:
                        break
                # ... so the retry is an immediate hit
                retry = await server.submit(_request(), deadline_s=5.0)
                return retry

        retry = asyncio.run(main())
        assert retry.cache_status in ("hit-memory", "hit-disk")

    def test_default_deadline_applies(self):
        engine = _SlowEngine()

        async def main():
            async with Server(
                engine, workers=1, default_deadline_s=0.05
            ) as server:
                with pytest.raises(DeadlineExceeded):
                    await server.submit(_request())
                engine.release.set()

        asyncio.run(main())

    def test_compile_errors_propagate_to_the_caller(self):
        async def main():
            async with Server(Engine()) as server:
                with pytest.raises(KeyError, match="no-such-builder"):
                    await server.submit(CompileRequest(source="no-such-builder"))
                assert server.stats.failed == 1

        asyncio.run(main())
