"""End-to-end request observability through the serving stack.

The regression this file pins down: ``loop.run_in_executor`` does *not*
propagate context variables, so without the per-ticket
``contextvars.copy_context()`` capture the server's worker threads would
record their engine spans into the void — a traced serve request would
show an empty ``serve.request`` span with no engine children.  The tests
assert the full span tree (server -> engine -> backend), the request_id
stamped on every span and event, and the deadline-salvage accounting.
"""

import asyncio
import threading

import pytest

from repro.engine import CompileRequest, Engine
from repro.observe import observing
from repro.observe.metrics import registry as metrics_registry
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq
from repro.serve import DeadlineExceeded, Server

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


def _spans_by_name(observer):
    index = {}
    for s in observer.flat_spans():
        index.setdefault(s.name, []).append(s)
    return index


class TestServeSpanTree:
    def test_traced_serve_request_contains_engine_children(
        self, fresh_metrics_registry, fresh_event_log
    ):
        request = _request()

        async def main():
            async with Server(Engine()) as server:
                await server.submit(request)

        # the observer is active on the event-loop thread; the ticket's
        # copied context must carry it into the executor worker
        with observing() as obs:
            asyncio.run(main())

        spans = _spans_by_name(obs)
        (serve_span,) = spans["serve.request"]
        (compile_span,) = spans["engine.compile"]
        (lower_span,) = spans["codegen.lower"]

        # one coherent tree: serve.request -> engine.compile -> codegen.lower
        assert compile_span.parent_id == serve_span.span_id
        assert lower_span.parent_id == compile_span.span_id
        assert compile_span in serve_span.children
        assert compile_span.meta["cache"] == "miss"

        # every span in the tree carries the submitting request's id
        for s in obs.flat_spans():
            assert s.request_id == request.request_id, s.name

    def test_serve_events_share_the_request_id(
        self, fresh_metrics_registry, fresh_event_log
    ):
        request = _request(3.0)

        async def main():
            async with Server(Engine()) as server:
                await server.submit(request)

        asyncio.run(main())

        events = {r["event"]: r for r in fresh_event_log.events()}
        for name in (
            "serve.admit",
            "serve.dequeue",
            "engine.build.start",
            "engine.build.done",
            "engine.compile.done",
            "serve.complete",
        ):
            assert name in events, f"missing event {name}"
            assert events[name]["request_id"] == request.request_id, name
        assert events["serve.complete"]["attrs"]["outcome"] == "ok"
        assert events["serve.complete"]["attrs"]["cache"] == "miss"

    def test_untraced_serving_still_emits_events(
        self, fresh_metrics_registry, fresh_event_log
    ):
        # no observer at all: spans are no-ops, the event log still records
        request = _request(5.0)

        async def main():
            async with Server(Engine()) as server:
                await server.submit(request)

        asyncio.run(main())
        names = [r["event"] for r in fresh_event_log.events()]
        assert "serve.admit" in names
        assert "serve.complete" in names


class TestRejectionEvents:
    def test_rejection_emits_a_failure_event(
        self, fresh_metrics_registry, fresh_event_log
    ):
        engine = _SlowEngine()

        async def main():
            async with Server(engine, max_queue=1, workers=1) as server:
                first = asyncio.ensure_future(server.submit(_request(2.0)))
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    if server._queue.qsize() == 0:
                        break
                second = asyncio.ensure_future(server.submit(_request(3.0)))
                await asyncio.sleep(0.01)
                from repro.serve import ServerBusy

                with pytest.raises(ServerBusy):
                    await server.submit(_request(5.0))
                engine.release.set()
                await asyncio.gather(first, second)

        asyncio.run(main())
        rejects = [
            r for r in fresh_event_log.events() if r["event"] == "serve.reject"
        ]
        assert len(rejects) == 1
        assert rejects[0]["attrs"]["outcome"] == "rejected"
        assert rejects[0] in fresh_event_log.failures()


class TestDeadlineSalvage:
    def test_salvaged_build_is_counted_and_logged(
        self, fresh_metrics_registry, fresh_event_log
    ):
        engine = _SlowEngine()
        request = _request()

        async def main():
            async with Server(engine, workers=1) as server:
                with pytest.raises(DeadlineExceeded):
                    await server.submit(request, deadline_s=0.05)
                # the shielded build keeps running; release it and wait
                # for the worker to finish the abandoned ticket
                engine.release.set()
                for _ in range(300):
                    await asyncio.sleep(0.01)
                    if server.stats.salvaged:
                        break
                return server.stats

        stats = asyncio.run(main())
        assert stats.deadline_exceeded == 1
        assert stats.salvaged == 1
        assert stats.to_dict()["salvaged"] == 1

        counters = metrics_registry().snapshot()["counters"]
        assert counters.get("serve.deadline.salvaged") == 1

        events = {r["event"]: r for r in fresh_event_log.events()}
        assert events["serve.deadline"]["attrs"]["outcome"] == "deadline"
        salvage = events["serve.deadline.salvaged"]
        assert salvage["attrs"]["outcome"] == "salvaged"
        assert salvage["request_id"] == request.request_id
        assert "serve.complete" not in events  # salvage replaces completion

    def test_fast_completion_never_salvages(
        self, fresh_metrics_registry, fresh_event_log
    ):
        async def main():
            async with Server(Engine()) as server:
                await server.submit(_request(), deadline_s=30.0)
                return server.stats

        stats = asyncio.run(main())
        assert stats.salvaged == 0
        assert stats.deadline_exceeded == 0
        names = [r["event"] for r in fresh_event_log.events()]
        assert "serve.deadline.salvaged" not in names
