"""Singleflight observability: follower spans link to the leader's build.

The acceptance scenario of the request-observability work: N threads
racing on one cold key produce exactly one leader span tree (the build)
plus N-1 follower ``engine.compile`` spans, each carrying the leader's
``span_id``/``request_id`` in its meta and an ``engine.coalesced``
event — so a trace of a thundering herd shows who actually built and
who drafted behind them.
"""

import threading

from repro.engine import CompileRequest, Engine
from repro.observe import Observer, observing
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq

xs = Identifier("xs")
ENV = {"xs": array("n", f32)}


def _request() -> CompileRequest:
    """Structurally identical requests (one cache key, distinct request_ids)."""
    return CompileRequest(
        source=map_seq(fun(lambda v: v * lit(7.0)), xs),
        type_env=ENV,
        name="scale7",
    )


class _GatedEngine(Engine):
    """An engine whose build blocks until the test releases it."""

    def __init__(self, started: threading.Event, release: threading.Event):
        super().__init__()
        self._started = started
        self._release = release

    def _build_program(self, *args, **kwargs):
        self._started.set()
        assert self._release.wait(timeout=30), "test never released the build"
        return super()._build_program(*args, **kwargs)


class TestCoalesceSpans:
    N = 6

    def _compile_spans(self, observer: Observer) -> list:
        return [s for s in observer.flat_spans() if s.name == "engine.compile"]

    def test_race_links_followers_to_leader(
        self, fresh_metrics_registry, fresh_event_log
    ):
        started, release = threading.Event(), threading.Event()
        engine = _GatedEngine(started, release)
        requests = [_request() for _ in range(self.N)]
        followers_ready = threading.Barrier(self.N, timeout=30)
        results: dict[int, tuple[Observer, str]] = {}
        results_lock = threading.Lock()

        def racer(index: int, wait_at_barrier: bool):
            # threads do not inherit contextvars: each racer activates its
            # own observer, exactly like independent library callers
            with observing() as obs:
                if wait_at_barrier:
                    followers_ready.wait()
                pipeline = engine.compile(requests[index])
                with results_lock:
                    results[index] = (obs, pipeline.cache_status)

        threads = [threading.Thread(target=racer, args=(0, False))]
        threads[0].start()
        assert started.wait(timeout=30), "leader never reached the build"
        threads += [
            threading.Thread(target=racer, args=(i, True))
            for i in range(1, self.N)
        ]
        for t in threads[1:]:
            t.start()
        followers_ready.wait()  # all followers running...
        release.wait(0.25)  # ...and into the in-flight wait
        release.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()

        statuses = [results[i][1] for i in range(self.N)]
        assert statuses[0] == "miss"
        assert statuses[1:] == ["coalesced"] * (self.N - 1)

        # exactly one leader tree: the miss observer has the build spans
        leader_obs = results[0][0]
        (leader_span,) = self._compile_spans(leader_obs)
        assert leader_span.meta["cache"] == "miss"
        assert leader_span.span_id
        assert leader_span.request_id == requests[0].request_id
        assert any(
            s.name == "codegen.lower" for s in leader_obs.flat_spans()
        ), "leader tree is missing the build phase"

        # every follower span carries the leader's identity
        for i in range(1, self.N):
            follower_obs = results[i][0]
            (follower_span,) = self._compile_spans(follower_obs)
            assert follower_span.meta["cache"] == "coalesced"
            assert follower_span.request_id == requests[i].request_id
            assert follower_span.request_id != leader_span.request_id
            assert follower_span.meta["leader_span_id"] == leader_span.span_id
            assert (
                follower_span.meta["leader_request_id"] == leader_span.request_id
            )
            # followers never ran the build themselves
            assert not any(
                s.name == "codegen.lower" for s in follower_obs.flat_spans()
            )

        # and said so in the event log
        coalesced = [
            r for r in fresh_event_log.events() if r["event"] == "engine.coalesced"
        ]
        assert len(coalesced) == self.N - 1
        for record in coalesced:
            assert record["attrs"]["leader_span_id"] == leader_span.span_id
            assert record["attrs"]["leader_request_id"] == leader_span.request_id
        follower_ids = {r["request_id"] for r in coalesced}
        assert follower_ids == {requests[i].request_id for i in range(1, self.N)}

    def test_uncontended_compile_has_no_leader_links(
        self, fresh_metrics_registry, fresh_event_log
    ):
        engine = Engine()
        with observing() as obs:
            pipeline = engine.compile(_request())
        assert pipeline.cache_status == "miss"
        (compile_span,) = self._compile_spans(obs)
        assert "leader_span_id" not in compile_span.meta
        assert not [
            r for r in fresh_event_log.events() if r["event"] == "engine.coalesced"
        ]
