"""Self-tests of the benchmark harness (not of the compiler).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Outside tier-1 ``testpaths``; under 15 s.  The last three tests drive
``run.py`` itself: the whole path on three cheap kernels, the damaged
output that must be reported, and the bare directory that must refuse.
"""

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import harness  # noqa: E402


# -- the percentile rule ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(3, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert harness.tail_rank(n) == expected


def test_percentile_interpolates_and_tail_reports_what_it_used():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 50) == 50.5
    assert harness.percentile(samples, 0) == 1
    assert harness.percentile(samples, 100) == 100
    assert harness.tail(samples) == (90.0, harness.percentile(samples, 90))
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_geomean_and_spearman():
    assert harness.geomean([2, 8]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        harness.geomean([1.0, -1.0])
    assert harness.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert harness.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


# -- open-loop accounting ------------------------------------------------------------------


def test_open_loop_times_from_the_due_time_across_a_stall():
    """One op blocks the event loop for 100 ms.  Ops due while it blocks
    start late, and that lateness is part of *their* latency."""
    stall_s = 0.1
    arrivals = [harness.Arrival(f"op{i}", due) for i, due in
                enumerate(harness.fixed_schedule(100.0, 0.3))]

    async def op(arrival):
        if arrival.op == "op5":
            time.sleep(stall_s)  # the injected stall: blocks the generator too
        await asyncio.sleep(0)

    asyncio.run(harness.open_loop(arrivals, op))
    assert len(arrivals) == 30 and all(a.error is None for a in arrivals)
    before, stalled, during = arrivals[2], arrivals[5], arrivals[8]
    assert before.latency_ms < 20
    assert stalled.latency_ms >= stall_s * 1e3
    # op8 was due 30 ms into a 100 ms stall: it could not start for ~70 ms
    assert during.late_ms > 40
    assert during.latency_ms >= during.late_ms
    assert during.finished - during.started < 0.02  # its own work was quick
    # the schedule is not pushed back: the last op is still due at 290 ms
    assert arrivals[-1].due == pytest.approx(0.29)
    assert arrivals[-1].late_ms < 20


def test_open_loop_records_a_raised_error_on_its_arrival():
    arrivals = [harness.Arrival("ok", 0.0), harness.Arrival("bad", 0.0)]

    async def op(arrival):
        if arrival.op == "bad":
            raise RuntimeError("refused")

    asyncio.run(harness.open_loop(arrivals, op))
    assert arrivals[0].error is None
    assert arrivals[1].error == "RuntimeError: refused"


# -- span arithmetic --------------------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_the_span_minus_what_its_children_cover():
    # parent 0..10; children 1..4 and 8..9; grandchild 2..3 inside the first
    rec = harness.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 8, 9, 10]))
    with rec.span("parent", "op-1"):
        with rec.span("child-a"):
            with rec.span("grandchild"):
                pass
        with rec.span("child-b"):
            pass
    by_name = {s.name: s for s in rec.spans}
    self_ms = rec.self_ms()
    assert by_name["child-a"].parent == by_name["parent"].id
    assert by_name["grandchild"].parent == by_name["child-a"].id
    assert {s.op for s in rec.spans} == {"op-1"}  # one op id for the request
    assert self_ms[by_name["parent"].id] == pytest.approx(6000.0)  # 10 - 3 - 1
    assert self_ms[by_name["child-a"].id] == pytest.approx(2000.0)  # 3 - 1
    assert self_ms[by_name["grandchild"].id] == pytest.approx(1000.0)
    assert rec.total_ms("child-b") == pytest.approx(1000.0)


def test_overlapping_children_are_covered_once():
    rec = harness.SpanRecorder()
    parent = harness.Span(0, "parent", "", None, 0.0, 10.0)
    rec.spans = [
        parent,
        harness.Span(1, "a", "", 0, 1.0, 4.0),
        harness.Span(2, "b", "", 0, 3.0, 6.0),   # overlaps a by 1 s
        harness.Span(3, "c", "", 0, 9.0, 12.0),  # runs past the parent's end
    ]
    assert rec.self_ms()[0] == pytest.approx(4000.0)  # 10 - (1..6) - (9..10)


# -- names, labels, sources ---------------------------------------------------------------------


def test_name_validation():
    for good in ("setup_s", "exec.run_ms.harris.cbuf-rot.t1", "9lives", "a" * 64):
        assert harness.valid_name(good)
    for bad in ("", ".hidden", "-x", "has space", "slash/name", "pct%", "a" * 65, "é"):
        assert not harness.valid_name(bad)


def test_step_labels_drop_wrappers_and_parameters():
    assert harness.step_label("splitPipeline(32)") == "splitPipeline"
    assert harness.step_label("try(normalize((useMapSeq <+ useReduceSeq)))") == "useMapSeq"
    assert harness.step_label("normalize(letInline)") == "letInline"
    assert harness.step_label("try(normalize())") == "other"


def test_canonical_c_forgets_fresh_numbering_and_nothing_else():
    a = "void k(int szv_n282, float *x12) { x12[0] = 1.0f + 32; v4f t; }"
    b = "void k(int szv_n565, float *x7) { x7[0] = 1.0f + 32; v4f t; }"
    c = "void k(int szv_n565, float *x7) { x7[0] = 2.0f + 32; v4f t; }"
    assert harness.canonical_c(a) == harness.canonical_c(b)
    assert harness.canonical_c(a) != harness.canonical_c(c)
    assert "1.0f + 32" in harness.canonical_c(a)


# -- the oracle ---------------------------------------------------------------------------------


def test_oracle_accepts_the_reference_and_names_what_is_wrong():
    ref = np.linspace(0, 1, 64, dtype=np.float32).reshape(8, 8)
    assert harness.output_error("box-blur", ref.ravel(), ref) is None
    assert harness.output_error("box-blur", ref.ravel(), ref, harness.MIN_PSNR_DB) is None
    off = ref.copy()
    off[3, 3] += 1.0
    assert "max abs error" in harness.output_error("box-blur", off, ref)
    assert "max abs error" in harness.output_error("box-blur", np.full_like(ref, np.nan), ref)
    assert "size" in harness.output_error("box-blur", ref.ravel()[:-1], ref)
    # inside the harris tolerance, outside everyone else's
    near = ref + np.float32(1e-4)
    assert harness.output_error("harris", near, ref) is None
    assert harness.output_error("box-blur", near, ref) is not None
    noisy = ref + np.float32(1e-5) * np.sign(np.sin(np.arange(64.0))).reshape(8, 8).astype(np.float32)
    assert "PSNR" in harness.output_error("box-blur", noisy, ref, min_psnr_db=120.0)


def test_ledger_lists_failures_by_op_id():
    ledger = harness.Ledger()
    assert ledger.check("a#0", None)
    assert not ledger.check("b#0", "max abs error 1.0 > 2e-05")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failures == [{"op": "b#0", "reason": "max abs error 1.0 > 2e-05"}]


# -- the manifest -----------------------------------------------------------------------------------


def test_benchmark_json_is_the_catalog_and_meets_the_contract():
    doc = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    fresh = catalog.manifest({m["name"]: m["bound"] for m in doc["end_to_end"]},
                             doc["run_seconds"])
    assert doc == fresh
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [x["name"] for x in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(harness.valid_name(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in doc["end_to_end"])}
    assert set(catalog.EXACT) <= {m["name"] for m in doc["per_layer"]}


# -- run.py, end to end -----------------------------------------------------------------------------


def run_py(*args, cwd=None, script=None):
    done = subprocess.run(
        [sys.executable, str(script or HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, last, done.stderr


def test_smoke_cold_zoo_runs_the_whole_traced_path(tmp_path):
    code, result, err = run_py("--workload", "cold-zoo", "--smoke", "--seed", "3",
                               "--seconds", "1", "--trace", "1", "--out", str(tmp_path))
    assert code == 0, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert set(result["metrics"]) == set(catalog.PER_LAYER)
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["elevate.rewrite_ms"] > 0 and metrics["exec.gcc_ms"] > 0
    assert metrics["elevate.rule_attempts"] > metrics["elevate.rule_hits"] > 0
    assert metrics["bench.layers_share"] > 0.7  # >= 0.9 is enforced on the full list
    assert metrics["serve.wait_ms_p50.quiet"] == 0  # a layer cold-zoo never enters
    trace = json.loads((tmp_path / "trace-cold-zoo.json").read_text())
    assert trace["environment"]["seed"] == 3 and trace["environment"]["nproc"] >= 1
    names = {s["name"] for s in trace["spans"]}
    assert {"op", "engine.compile_request", "elevate.rewrite", "codegen.lower",
            "exec.gcc", "engine.store_save", "exec.first_run"} <= names
    assert all(s["end"] >= s["start"] and s["self_ms"] >= 0 for s in trace["spans"])
    assert len(trace["details"]["structural_hash"]) == 3
    assert not (HERE / ".work").exists() or not any((HERE / ".work").iterdir())


def test_a_damaged_output_is_reported_and_exits_non_zero():
    code, result, err = run_py("--workload", "cold-zoo", "--smoke", "--corrupt",
                               "--seconds", "1", "--trace", "0")
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == set(catalog.END_TO_END)
    assert "max abs error" in err


def test_refuses_without_printing_where_there_is_no_compiler_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(HERE.parent.parent / "BENCHMARK.json", tmp_path)
    code, result, err = run_py("--workload", "cold-zoo", "--seed", "1", "--seconds", "1",
                               "--trace", "0", cwd=tmp_path,
                               script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert code != 0 and result is None
    assert "repro is missing" in err
