"""Fuzz-loop behavior: determinism, metrics, failure handling, replay."""

import json

import pytest

from repro.verify.fuzz import FuzzConfig, case_seed, run_fuzz


class TestCampaign:
    def test_small_campaign_is_clean_and_counts_metrics(self, fresh_metrics_registry):
        report = run_fuzz(FuzzConfig(seed=0, iterations=6, use_c=False))
        assert report.cases == 6
        assert report.failures == []
        assert report.discard_rate <= 0.10
        snap = fresh_metrics_registry.snapshot()
        assert snap["counters"]["verify.cases"] == 6.0
        assert "verify.cases_per_sec" in snap["gauges"]

    def test_campaign_is_deterministic(self):
        a = run_fuzz(FuzzConfig(seed=9, iterations=4, use_c=False))
        b = run_fuzz(FuzzConfig(seed=9, iterations=4, use_c=False))
        assert a.cases == b.cases
        assert a.failures == b.failures

    def test_time_budget_stops_early(self):
        report = run_fuzz(
            FuzzConfig(seed=0, iterations=10_000, time_budget=1.0, use_c=False)
        )
        assert report.cases < 10_000

    def test_case_seed_is_stable(self):
        assert case_seed(0, 0) == case_seed(0, 0)
        assert case_seed(0, 1) != case_seed(1, 0)


class TestFailurePath:
    def test_injected_failure_is_shrunk_and_serialized(self, tmp_path, monkeypatch):
        import repro.verify.fuzz as fuzz_mod

        def lying_check(expr, rules, type_env, inputs, rtol=1e-5, atol=1e-6):
            return {"kind": "value", "index": 0, "a": 0.0, "b": 1.0}

        monkeypatch.setattr(fuzz_mod, "metamorphic_check", lying_check)
        report = run_fuzz(
            FuzzConfig(
                seed=2, iterations=1, use_c=False, corpus_dir=str(tmp_path)
            )
        )
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure["kind"] == "metamorphic"
        path = tmp_path / f"case_metamorphic_{failure['seed']}.json"
        assert path.is_file()
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.verify.case/v1"
        assert doc["program_hash"] == failure["program_hash"]

