"""AOT prebuild: the kernel grid, manifest, and warm-start idempotence."""

import json

import numpy as np
import pytest

from repro.engine import CompileRequest, Engine
from repro.exec.cbridge import effective_cflags
from repro.image import reference, synthetic_rgb
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq
from repro.serve import (
    AOT_MANIFEST,
    harris_kernel_requests,
    load_manifest,
    prebuild,
)
from repro.serve.aot import MANIFEST_SCHEMA


class TestKernelGrid:
    def test_five_schedules_per_backend(self):
        reqs = harris_kernel_requests(backends=("python",))
        names = [name for name, _ in reqs]
        assert len(reqs) == 5
        assert all(name.endswith("@python") for name in names)
        assert "harris-cbuf-rot-par@python" in names

    def test_backends_multiply_the_grid(self):
        reqs = harris_kernel_requests(backends=("python", "c"))
        assert len(reqs) == 10
        backends = {req.backend for _, req in reqs}
        assert backends == {"python", "c"}

    def test_requests_carry_distinct_keys(self, fresh_engine):
        keys = set()
        for _, req in harris_kernel_requests(backends=("python",)):
            keys.add(
                fresh_engine._key_for(
                    req.source, req.strategy, req.backend, req.type_env,
                    req.options, req.cflags, req.threads,
                )
            )
        assert len(keys) == 5


class TestPrebuild:
    def test_cold_prebuild_builds_everything(self, tmp_path):
        manifest = prebuild(tmp_path / "store")
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert len(manifest["kernels"]) == 5
        assert all(k["cache"] == "miss" for k in manifest["kernels"])
        assert (tmp_path / "store" / AOT_MANIFEST).is_file()

    def test_second_pass_performs_zero_builds(self, tmp_path):
        store = tmp_path / "store"
        first = prebuild(store)
        # a fresh engine, as a new install process would create
        second = prebuild(store)
        assert all(k["cache"] != "miss" for k in second["kernels"]), (
            "re-prebuild over a warm store must not rebuild"
        )
        assert [k["key"] for k in first["kernels"]] == [
            k["key"] for k in second["kernels"]
        ]

    def test_prebuilt_kernels_run_correctly(self, tmp_path):
        store = tmp_path / "store"
        prebuild(store)
        engine = Engine(cache_dir=store)
        img = synthetic_rgb(12, 16, seed=7)
        expected = reference.harris(img)
        for name, req in harris_kernel_requests(backends=("python",)):
            pipeline = engine.compile_request(req)
            assert pipeline.cache_status in ("hit-disk", "hit-memory"), name
            out = pipeline.run(sizes={"n": 8, "m": 12}, rgb=img)
            np.testing.assert_allclose(
                out.reshape(8, 12), expected, rtol=1e-3, atol=1e-4,
                err_msg=name,
            )


class TestManifest:
    def test_load_manifest_roundtrip(self, tmp_path):
        store = tmp_path / "store"
        written = prebuild(store)
        read = load_manifest(store)
        assert read["kernels"] == json.loads(json.dumps(written))["kernels"]

    @pytest.mark.requires_gcc
    def test_entries_name_the_resolved_cflags(self, tmp_path):
        scale = CompileRequest(
            source=map_seq(fun(lambda v: v * lit(2.0)), Identifier("xs")),
            type_env={"xs": array("n", f32)},
            name="aot_scale",
        )
        store = tmp_path / "store"
        prebuild(store, [("scale@c", scale.replace(backend="c")), ("scale@python", scale)])
        c_entry, py_entry = load_manifest(store)["kernels"]
        assert c_entry["cflags"] == list(effective_cflags())
        assert py_entry["cflags"] == []

    def test_unknown_schema_rejected(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / AOT_MANIFEST).write_text(json.dumps({"schema": "bogus/v9"}))
        with pytest.raises(ValueError, match="unknown AOT manifest schema"):
            load_manifest(store)
