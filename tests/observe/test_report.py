"""Run-report JSON schema stability and rendering."""

import json

import numpy as np

from repro.observe import RunReport
from repro.observe.report import SCHEMA, TOP_LEVEL_KEYS


class TestRunReport:
    def test_schema_and_key_order_are_stable(self):
        report = RunReport(name="r")
        d = report.to_dict()
        # the schema identifier and the exact key order are a contract:
        # downstream tooling parses these reports
        assert d["schema"] == SCHEMA == "repro.observe.report/v3"
        assert tuple(d) == TOP_LEVEL_KEYS == (
            "schema", "name", "environment", "derivation",
            "compile", "engine", "execution", "metrics",
        )

    def test_json_round_trip(self, tmp_path):
        report = RunReport(name="r")
        report.environment = {"chunk": 4}
        report.metrics = {"psnr_db.cbuf": 142.4}
        report.execution = {"cbuf": {"kernel_ms": [0.5, 1.25]}}
        path = tmp_path / "report.json"
        report.save(path)
        loaded = json.loads(path.read_text())
        assert loaded == report.to_dict()
        assert tuple(loaded) == TOP_LEVEL_KEYS

    def test_numpy_values_serialize(self):
        report = RunReport(name="r")
        report.metrics = {"psnr": np.float64(141.5), "n": np.int64(36)}
        loaded = json.loads(report.to_json())
        assert loaded["metrics"] == {"psnr": 141.5, "n": 36}

    def test_render_text_covers_sections(self):
        report = RunReport(name="demo")
        report.environment = {"chunk": 4}
        report.derivation = {
            "cbuf": {
                "steps": [{"rule": "fuse"}],
                "rules": {
                    "rule_applications": 12,
                    "top_fired": [{"rule": "betaReduction", "count": 7}],
                },
            }
        }
        report.compile = [{
            "program": "rise_cbuf",
            "phases": [{"name": "codegen.emit", "wall_ms": 1.5, "calls": 1,
                        "ir_nodes": 40}],
        }]
        report.metrics = {"psnr_db.cbuf": 142.4}
        text = report.render_text()
        for needle in ("demo", "cbuf", "betaReduction", "codegen.emit",
                       "ir_nodes=40", "psnr_db.cbuf"):
            assert needle in text


_OPT = {"codegen.fold": {"nodes_in", "nodes_out"}, "codegen.cse": {"nodes_in", "nodes_out"}}
_HALIDE = {"codegen.emit": set(), "codegen.vectorize": set(), **_OPT}
_RISE = {**_HALIDE, "rise.typecheck": set(), "codegen.emit": {"ir_nodes"}}

#: program -> (profile meta keys, {phase: phase meta keys}) of a cold
#: ``compile_all``: the phases and meta keys of the profile recorder
#: this view replaced, under their span names.
EXPECTED_PROFILES = {
    "opencv_harris": (set(), _OPT),
    "halide_harris": (set(), _HALIDE),
    "zoo_harris_cbuf": ({"rise_nodes"}, _RISE),
    "zoo_harris_cbuf_rot": ({"rise_nodes"}, _RISE),
}


class TestBenchHarnessReport:
    def test_run_report_has_all_sections(self, harness_report):
        report, _ = harness_report
        d = report.to_dict()
        assert tuple(d) == TOP_LEVEL_KEYS
        assert d["derivation"], "expected per-schedule derivation stats"
        for stats in d["derivation"].values():
            assert stats["rules"]["rule_applications"] > 0
        assert d["compile"], "expected compile profiles"
        phase_names = {
            p["name"] for prof in d["compile"] for p in prof["phases"]
        }
        assert {"codegen.emit", "codegen.fold", "codegen.cse"} <= phase_names
        counters = d["metrics"]["registry"]["counters"]
        assert sum(v for k, v in counters.items() if k.startswith("exec.kernels")) > 0
        assert "counters" not in d["execution"]
        assert d["execution"]["kernels"], "expected executed kernels"
        assert d["metrics"]["psnr_db"], "expected per-implementation PSNR"
        assert d["metrics"]["validation_passes"] is True

    def test_compile_profiles_match_the_cold_compile(self, harness_report):
        report, _ = harness_report
        profiles = {p["program"]: p for p in report.compile}
        # opencv + 10 Lift kernels + halide + the two RISE schedules
        assert len(profiles) == len(report.compile) == 14
        for program, (meta_keys, phases) in EXPECTED_PROFILES.items():
            profile = profiles[program]
            assert set(profile) - {"program", "phases"} == meta_keys, program
            got = {p["name"]: set(p) - {"name", "wall_ms", "calls"} for p in profile["phases"]}
            assert got == phases, program
