"""Fixtures shared by the observe tests."""

import pytest


@pytest.fixture(scope="session")
def harness_report(tmp_path_factory):
    """``(report, trace_path)`` of one full ``run_report`` per session."""
    from repro.bench.harness import run_report

    trace = tmp_path_factory.mktemp("harness") / "trace.json"
    report = run_report(chunk=4, height=20, width=20, batch_items=3, trace_out=trace)
    return report, trace
