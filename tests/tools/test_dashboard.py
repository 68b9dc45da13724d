"""The static benchmark dashboard (``tools/dashboard.py``) renders offline."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOL = REPO_ROOT / "tools" / "dashboard.py"


def _run(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, str(TOOL), *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def _trajectory(samples):
    return {"schema": "repro.bench.trajectory/v1", "samples": samples}


def _sample(cells, counters=None, sha="aaa1111"):
    return {
        "schema": "repro.bench.sample/v1",
        "timestamp": 0.0,
        "git_sha": sha,
        "k": 1,
        "environment": {},
        "cells": cells,
        "metrics": {
            "counters": counters or {},
            "gauges": {},
            "histograms": {},
        },
    }


def _write_trajectory(path, samples):
    path.write_text(json.dumps(_trajectory(samples)), encoding="utf-8")


class TestRender:
    def test_renders_synthetic_trajectory_offline(self, tmp_path):
        traj = tmp_path / "traj.json"
        _write_trajectory(
            traj,
            [
                _sample({"A53|small|Halide": 100.0, "zoo|blur|cbuf|A53": 50.0}),
                _sample(
                    {"A53|small|Halide": 95.0, "zoo|blur|cbuf|A53": 48.0},
                    counters={
                        "engine.cache.hits{tier=memory}": 20,
                        "engine.cache.misses": 4,
                    },
                    sha="bbb2222",
                ),
            ],
        )
        out = tmp_path / "dash.html"
        proc = _run("--trajectory", str(traj), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        html = out.read_text(encoding="utf-8")
        # self-contained: no external scripts, styles or images
        assert "<script src" not in html
        assert "http://" not in html and "https://" not in html
        # the sections all rendered with real content
        assert "Cache behaviour" in html
        assert "83.33%" in html  # hit rate: 20 hits of 24 lookups
        assert "A53|small|Halide" in html
        assert "zoo|blur|cbuf|A53" in html
        assert "bbb2222" in html

    def test_explicit_metrics_snapshot_wins(self, tmp_path):
        traj = tmp_path / "traj.json"
        _write_trajectory(traj, [_sample({"c|x|y": 1.0})])
        snap = tmp_path / "metrics.json"
        snap.write_text(json.dumps({
            "counters": {
                "engine.cache.hits{tier=disk}": 3,
                "engine.cache.misses": 1,
            },
            "gauges": {},
            "histograms": {},
        }))
        out = tmp_path / "dash.html"
        proc = _run(
            "--trajectory", str(traj), "--metrics", str(snap), "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        html = out.read_text(encoding="utf-8")
        # the snapshot's disk hits, not the (empty) embedded one, render
        assert "0 / 3" in html
        assert "75.00%" in html

    def test_custom_title(self, tmp_path):
        traj = tmp_path / "traj.json"
        _write_trajectory(traj, [_sample({"c|x|y": 1.0})])
        out = tmp_path / "dash.html"
        proc = _run(
            "--trajectory", str(traj), "--out", str(out), "--title", "My Board"
        )
        assert proc.returncode == 0, proc.stderr
        assert "My Board" in out.read_text(encoding="utf-8")


class TestErrors:
    def test_missing_trajectory_exits_two(self, tmp_path):
        proc = _run("--trajectory", str(tmp_path / "absent.json"))
        assert proc.returncode == 2
        assert "no trajectory" in proc.stderr

    def test_wrong_schema_exits_two(self, tmp_path):
        traj = tmp_path / "bad.json"
        traj.write_text(json.dumps({"schema": "nope/v9", "samples": []}))
        proc = _run("--trajectory", str(traj))
        assert proc.returncode == 2

    def test_malformed_metrics_exits_two(self, tmp_path):
        traj = tmp_path / "traj.json"
        _write_trajectory(traj, [_sample({"c|x|y": 1.0})])
        snap = tmp_path / "metrics.json"
        snap.write_text("[1, 2, 3]")
        proc = _run("--trajectory", str(traj), "--metrics", str(snap))
        assert proc.returncode == 2
        assert "snapshot" in proc.stderr


class TestRealLedger:
    def test_renders_the_repo_trajectory(self, tmp_path):
        # the CI artifact: the shipping ledger must render cleanly
        trajectory = REPO_ROOT / "BENCH_trajectory.json"
        import pytest

        if not trajectory.is_file():
            pytest.skip("no BENCH_trajectory.json in this checkout")
        out = tmp_path / "dash.html"
        proc = _run("--trajectory", str(trajectory), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.stat().st_size > 1000
