"""Measurement helpers shared by the four workloads.

Nothing here imports ``repro``: the statistics, the span recorder, the
open-loop generator and the output oracle are plain Python + NumPy so
``test_harness.py`` can check them in milliseconds.
"""

from __future__ import annotations

import asyncio
import contextvars
import math
import re
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# -- names ------------------------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def valid_name(name: str) -> bool:
    """A metric or workload name: starts with a letter or digit, then at
    most 63 more letters, digits, ``_``, ``.`` and ``-``."""
    return bool(_NAME.match(name))


def step_label(step_name: str) -> str:
    """The stable label of one ``Schedule.steps`` entry.

    ``splitPipeline(32)`` -> ``splitPipeline``; ``try(normalize((useMapSeq
    <+ useReduceSeq)))`` -> ``useMapSeq``: combinator wrappers and
    numeric parameters are dropped, the first rule name stays.
    """
    for token in re.findall(r"[A-Za-z][A-Za-z0-9]*", step_name):
        if token not in ("try", "normalize"):
            return token
    return "other"


_NUMBERED = re.compile(r"\b([A-Za-z_][A-Za-z_0-9]*?)(\d+)\b")


def canonical_c(source: str) -> str:
    """``source`` with every numbered identifier (``szv_n282``) renamed
    by order of first appearance (``szv_n#0``).

    The compiler numbers fresh names from a process-wide counter, so two
    derivations of one program differ in those numbers and in nothing
    else; this is the form in which they are compared and sized.
    """
    seen: dict[str, str] = {}

    def rename(match: re.Match) -> str:
        return seen.setdefault(match.group(0), f"{match.group(1)}#{len(seen)}")

    return _NUMBERED.sub(rename, source)


# -- statistics ---------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Tail percentiles tried from the top; the first with at least
#: ``TAIL_MIN_BEYOND`` samples beyond it is the one reported.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def tail_rank(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond
    it; the median when even p75 has fewer."""
    for p in TAIL_CANDIDATES:
        # in whole per-mille, so 100 samples beyond p90 are 10, not 9.999...
        if n * (1000 - round(p * 10)) >= TAIL_MIN_BEYOND * 1000:
            return p
    return 50.0


def tail(samples) -> tuple[float, float]:
    """``(percentile used, its value)`` under :func:`tail_rank`."""
    p = tail_rank(len(samples))
    return p, percentile(samples, p)


#: Geometric mean of positive values (raises on anything else).
geomean = statistics.geometric_mean


def spearman(xs, ys) -> float:
    """Spearman rank correlation (average ranks for ties)."""

    def ranks(vs):
        order = sorted(range(len(vs)), key=lambda i: vs[i])
        out = [0.0] * len(vs)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vs[order[j + 1]] == vs[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return cov / var if var else 0.0


# -- spans ----------------------------------------------------------------------

_CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_current_span", default=None
)


@dataclass
class Span:
    """One timed call into a layer, recorded from outside the program."""

    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "op": self.op,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


class SpanRecorder:
    """In-memory spans; the parent is the span open in the calling
    context (a ``ContextVar``, so asyncio tasks and copied thread
    contexts nest correctly).  Written out once, when the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, op: str = ""):
        parent = _CURRENT_SPAN.get()
        entry = Span(
            id=len(self.spans),
            name=name,
            op=op or (parent.op if parent else ""),
            parent=parent.id if parent else None,
            start=self._clock(),
        )
        self.spans.append(entry)
        token = _CURRENT_SPAN.set(entry)
        try:
            yield entry
        finally:
            entry.end = self._clock()
            _CURRENT_SPAN.reset(token)

    def self_ms(self) -> dict[int, float]:
        """Per span id: its duration minus the part of that interval its
        child spans cover (overlapping children are counted once)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            edge = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge, s.start), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.id] = max(0.0, s.end - s.start - covered) * 1e3
        return out

    def total_ms(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.ms for s in self.spans if s.name == name)

    def overhead_ms(self, probes: int = 2000) -> float:
        """The recorder's own cost for the spans it holds: the median
        cost of an empty span, measured now, times the span count."""
        scratch = SpanRecorder(self._clock)
        costs = []
        for _ in range(probes):
            t0 = time.perf_counter()
            with scratch.span("probe"):
                pass
            costs.append(time.perf_counter() - t0)
        return statistics.median(costs) * len(self.spans) * 1e3


# -- the output oracle ----------------------------------------------------------

#: Largest tolerated |output - reference| per pipeline.  Harris multiplies
#: gradient products, so float32 reassociation moves it furthest.
ABS_TOLERANCE = {"harris": 2e-3}
DEFAULT_ABS_TOLERANCE = 2e-5

#: The paper's PSNR validation, applied at the paper's image size.
MIN_PSNR_DB = 100.0


def output_error(pipeline: str, out, ref, min_psnr_db: float | None = None) -> str | None:
    """Why ``out`` is not the reference output, or ``None`` if it is.

    Always the max-abs-error tolerance; with ``min_psnr_db`` also the
    paper's PSNR over the reference's dynamic range.  One difference
    array, reused in place: at 1536x2560 every temporary is 16 MB.
    """
    out = np.asarray(out)
    ref = np.asarray(ref)
    if out.size != ref.size:
        return f"size {out.size} != reference {ref.size}"
    diff = np.subtract(out.reshape(ref.shape), ref, dtype=np.float32)
    np.abs(diff, out=diff)
    worst = float(diff.max())
    limit = ABS_TOLERANCE.get(pipeline, DEFAULT_ABS_TOLERANCE)
    if not worst <= limit:  # also catches NaN
        return f"max abs error {worst:.3e} > {limit:.1e}"
    if min_psnr_db is not None:
        np.square(diff, out=diff)
        mse = float(diff.sum(dtype=np.float64)) / diff.size
        peak = float(ref.max() - ref.min()) or 1.0
        db = math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)
        if db < min_psnr_db:
            return f"PSNR {db:.1f} dB < {min_psnr_db:.0f} dB"
    return None


@dataclass
class Ledger:
    """Attempted and failed operations of one run, failures by op id."""

    attempted: int = 0
    failures: list[dict] = field(default_factory=list)

    def check(self, op: str, reason: str | None) -> bool:
        """Count one op; ``reason`` is ``None`` when it succeeded."""
        self.attempted += 1
        if reason is not None:
            self.failures.append({"op": op, "reason": reason})
        return reason is None

    def fail(self, op: str, reason: str) -> None:
        self.check(op, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- the open-loop generator -------------------------------------------------------


@dataclass
class Arrival:
    """One open-loop operation: when it was due, started and finished
    (seconds on the generator's clock, relative to the phase start)."""

    op: str
    due: float
    started: float = 0.0
    finished: float = 0.0
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        """Timed from the due time: a stalled generator or a queue in
        front of the op counts against the op, as its user would see."""
        return (self.finished - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        """How late the generator started the op."""
        return (self.started - self.due) * 1e3


def fixed_schedule(rate: float, seconds: float) -> list[float]:
    """Due offsets of ``rate`` arrivals per second for ``seconds``."""
    return [i / rate for i in range(int(rate * seconds))]


async def open_loop(arrivals: list[Arrival], run_op, clock=time.perf_counter):
    """Start every arrival at its due time whether or not earlier ones
    have finished; returns when all of them have.

    ``run_op(arrival)`` is a coroutine function; whatever it raises is
    recorded on the arrival as its error.  Arrivals must be sorted by
    ``due``.  Times are seconds since this call began.
    """
    t0 = clock()
    tasks = []

    async def one(arrival: Arrival):
        arrival.started = clock() - t0
        try:
            await run_op(arrival)
        except Exception as exc:  # the boundary: every failure is counted
            arrival.error = f"{type(exc).__name__}: {exc}"
        arrival.finished = clock() - t0

    for arrival in arrivals:
        delay = arrival.due - (clock() - t0)
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(arrival)))
    await asyncio.gather(*tasks)
    return arrivals


# -- one run -----------------------------------------------------------------------


class Run:
    """What one workload needs from the process that runs it: the seed,
    the time budget, a private scratch directory, the failure ledger,
    and — in a traced run only — the span recorder and layer metrics."""

    def __init__(
        self,
        seed: int,
        seconds: float,
        workdir,
        t0: float,
        trace: bool = False,
        smoke: bool = False,
        corrupt: bool = False,
    ):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.t0 = t0
        self.trace = trace
        self.smoke = smoke
        #: self-test: the first verified output is damaged before the
        #: oracle sees it, so the run must report a failure.
        self.corrupt = corrupt
        self.ledger = Ledger()
        self.rec = SpanRecorder() if trace else None
        self.layers: dict[str, float] = {}
        self._observed: dict[str, list[float]] = {}
        self.details: dict = {}
        self.setup_s = 0.0
        self._timed_from = 0.0

    # -- set-up and the timed region ---------------------------------------

    def setup(self, build, repeats: int = 1):
        """Run ``build()`` ``repeats`` times and start the timed region.

        ``setup_s`` is process start -> first ``build()`` (imports) plus
        the median ``build()`` duration, so one slow repeat (a cold page
        cache, a first-touch import) does not set the number.
        """
        before = time.perf_counter()
        durations = []
        for _ in range(max(1, repeats)):
            t = time.perf_counter()
            built = build()
            durations.append(time.perf_counter() - t)
        self.setup_s = (before - self.t0) + statistics.median(durations)
        self.details["setup_repeats_s"] = durations
        self._timed_from = time.perf_counter()
        return built

    def elapsed(self) -> float:
        """Seconds since the timed region began."""
        return time.perf_counter() - self._timed_from

    def fits(self, expected_ms: float) -> bool:
        """Whether an op that took ``expected_ms`` last time would end
        inside the timed region if started now."""
        return self.elapsed() + expected_ms / 1e3 <= self.seconds

    def tmp(self, name: str):
        """A fresh private directory under the run's scratch root."""
        path = self.workdir / name
        path.mkdir(parents=True, exist_ok=False)
        return path

    # -- layer metrics -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, op: str = ""):
        """A recorded span in a traced run; nothing otherwise."""
        if self.rec is None:
            yield None
        else:
            with self.rec.span(name, op) as entry:
                yield entry

    def add(self, name: str, value: float) -> None:
        """Accumulate a layer metric that is a sum over operations."""
        self.layers[name] = self.layers.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one sample of a layer metric reported as a median."""
        self._observed.setdefault(name, []).append(value)

    def layer_metrics(self) -> dict[str, float]:
        """Sums as accumulated, observed samples as their medians."""
        out = dict(self.layers)
        for name, values in self._observed.items():
            out[name] = statistics.median(values)
        return out

    def maybe_corrupt(self, out):
        """Damage one output, once, when the self-test asked for it."""
        if not self.corrupt:
            return out
        self.corrupt = False
        out = np.array(out, dtype=np.float32, copy=True)
        out.flat[out.size // 2] += 1.0
        return out
