"""Benchmark regression tracking: trajectory ledger + compare tool."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.regress import (
    SAMPLE_SCHEMA,
    TRAJECTORY_SCHEMA,
    append_sample,
    compare_cells,
    compare_trajectory,
    format_regressions,
    load_trajectory,
    new_trajectory,
)

TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_compare.py"


def _sample(cells, sha="abc1234"):
    return {
        "schema": SAMPLE_SCHEMA,
        "timestamp": 0.0,
        "git_sha": sha,
        "k": 3,
        "environment": {"chunk": 32, "vec": 4},
        "cells": cells,
        "metrics": {},
    }


CELLS = {"A53|small|Halide": 100.0, "A53|small|RISE (cbuf)": 80.0}


class TestTrajectoryLedger:
    def test_append_creates_and_extends(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        doc = append_sample(path, _sample(CELLS))
        assert doc["schema"] == TRAJECTORY_SCHEMA
        assert len(doc["samples"]) == 1
        doc = append_sample(path, _sample(CELLS, sha="def5678"))
        assert len(doc["samples"]) == 2
        loaded = load_trajectory(path)
        assert [s["git_sha"] for s in loaded["samples"]] == ["abc1234", "def5678"]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope/v9", "samples": []}))
        with pytest.raises(ValueError, match="schema"):
            load_trajectory(path)

    def test_collect_sample_shape(self):
        from repro.bench.regress import collect_sample

        sample = collect_sample(chunk=32, vec=4, k=2)
        assert sample["schema"] == SAMPLE_SCHEMA
        assert sample["k"] == 2
        assert sample["git_sha"]
        # 4 machines x 2 images x 5 implementations = 40 fig. 8 cells
        assert len(sample["cells"]) == 40
        assert all(v > 0 for v in sample["cells"].values())


class TestCompare:
    def test_no_change_is_clean(self):
        assert compare_cells(CELLS, dict(CELLS)) == []

    def test_injected_slowdown_is_flagged(self):
        slow = {k: v * 1.25 for k, v in CELLS.items()}
        regs = compare_cells(CELLS, slow, threshold=0.20)
        assert len(regs) == 2
        assert all(r.ratio == pytest.approx(1.25) for r in regs)

    def test_threshold_is_respected(self):
        slow = {k: v * 1.15 for k, v in CELLS.items()}
        assert compare_cells(CELLS, slow, threshold=0.20) == []
        assert len(compare_cells(CELLS, slow, threshold=0.10)) == 2

    def test_baseline_is_min_over_history(self):
        traj = new_trajectory()
        traj["samples"] = [
            _sample({"c": 100.0}),        # fast run
            _sample({"c": 140.0}),        # slow, noisy run
            _sample({"c": 125.0}),        # candidate: +25% vs best
        ]
        regs, info = compare_trajectory(traj, threshold=0.10)
        assert info["baseline_samples"] == 2
        assert [r.cell for r in regs] == ["c"]
        assert regs[0].baseline_ms == 100.0

    def test_single_sample_has_nothing_to_compare(self):
        traj = new_trajectory()
        traj["samples"] = [_sample(CELLS)]
        regs, info = compare_trajectory(traj)
        assert regs == []
        assert info["baseline_samples"] == 0

    def test_new_cells_are_ignored(self):
        current = dict(CELLS, **{"new|cell|Impl": 1.0})
        assert compare_cells(CELLS, current) == []

    def test_every_cell_is_gated(self):
        # no prefix is informational: a zoo| cell regresses like fig. 8
        base = dict(CELLS, **{"zoo|harris|cbuf|A53": 1.0})
        cur = dict(CELLS, **{"zoo|harris|cbuf|A53": 5.0})
        traj = new_trajectory()
        traj["samples"] = [_sample(base), _sample(cur)]
        regs, info = compare_trajectory(traj, threshold=0.10)
        assert [r.cell for r in regs] == ["zoo|harris|cbuf|A53"]
        assert info["cells"] == 3

    def test_cells_counts_only_the_compared_cells(self):
        traj = new_trajectory()
        traj["samples"] = [
            _sample(CELLS),
            _sample({"A53|small|Halide": 100.0, "new|cell|Impl": 1.0}),
        ]
        _, info = compare_trajectory(traj)
        assert info["cells"] == 1
        # a candidate with no cell in common compares nothing
        _, info = compare_trajectory(traj, candidate=_sample({"other|cell": 1.0}))
        assert info["baseline_samples"] == 2
        assert info["cells"] == 0

    def test_format_mentions_every_regression(self):
        regs = compare_cells(CELLS, {k: v * 2 for k, v in CELLS.items()})
        text = format_regressions(regs, {"cells": 2, "baseline_samples": 1,
                                         "threshold": 0.1})
        assert "REGRESSIONS (2)" in text
        assert "A53|small|Halide" in text


class TestCompareTool:
    def _write(self, path, samples):
        doc = new_trajectory()
        doc["samples"] = samples
        path.write_text(json.dumps(doc))

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(TOOL), *argv], capture_output=True, text=True
        )

    def test_exit_zero_on_no_change(self, tmp_path):
        path = tmp_path / "traj.json"
        self._write(path, [_sample(CELLS), _sample(CELLS)])
        proc = self._run("--trajectory", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "no regressions" in proc.stdout

    def test_exit_nonzero_on_injected_slowdown(self, tmp_path):
        path = tmp_path / "traj.json"
        slow = {k: v * 1.25 for k, v in CELLS.items()}
        self._write(path, [_sample(CELLS), _sample(slow, sha="bad0000")])
        proc = self._run("--trajectory", str(path), "--threshold", "0.2")
        assert proc.returncode == 1
        assert "REGRESSIONS" in proc.stdout

    def test_exit_two_on_missing_trajectory(self, tmp_path):
        proc = self._run("--trajectory", str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    def test_json_output(self, tmp_path):
        path = tmp_path / "traj.json"
        slow = {k: v * 1.5 for k, v in CELLS.items()}
        self._write(path, [_sample(CELLS), _sample(slow)])
        proc = self._run("--trajectory", str(path), "--json")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert len(doc["regressions"]) == 2
        assert doc["regressions"][0]["ratio"] == pytest.approx(1.5)

    def test_exit_two_when_newest_sample_shares_no_cell(self, tmp_path):
        # a side sample whose cells the history never saw, appended after
        # a 50% regression, must not hide it behind "no regressions"
        path = tmp_path / "traj.json"
        slow = {k: v * 1.5 for k, v in CELLS.items()}
        side = {"discovered|harris|A73|small": 1.0}
        self._write(path, [_sample(CELLS), _sample(slow), _sample(side)])
        proc = self._run("--trajectory", str(path))
        assert proc.returncode == 2, proc.stdout
        assert "shares no cell" in proc.stderr
        assert "no regressions" not in proc.stdout

    def test_exit_two_when_candidate_file_shares_no_cell(self, tmp_path):
        path = tmp_path / "traj.json"
        self._write(path, [_sample(CELLS)])
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(_sample({"zoo|blur|cbuf|A53": 1.0})))
        proc = self._run("--trajectory", str(path), "--candidate", str(candidate))
        assert proc.returncode == 2
        assert "shares no cell" in proc.stderr

    def test_real_trajectory_gates_clean(self):
        # the acceptance criterion: the repo's own ledger must pass
        trajectory = TOOL.parent.parent / "BENCH_trajectory.json"
        if not trajectory.is_file():
            pytest.skip("no BENCH_trajectory.json in this checkout")
        proc = self._run("--trajectory", str(trajectory))
        assert proc.returncode == 0, proc.stdout + proc.stderr
