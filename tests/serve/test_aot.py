"""AOT prebuild of the default (Harris) set: manifest and warm-start
idempotence, over one shared cold prebuild."""

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
    load_manifest,
    prebuild,
    zoo_kernel_requests,
)
from repro.serve.aot import MANIFEST_SCHEMA


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold prebuild of the default (Harris) set: (store, manifest)."""
    store = tmp_path_factory.mktemp("aot") / "store"
    return store, prebuild(store)


class TestPrebuild:
    def test_cold_prebuild_builds_everything(self, cold):
        store, manifest = cold
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert len(manifest["kernels"]) == 5
        assert "zoo-harris-cbuf-rot-par@python" in [k["kernel"] for k in manifest["kernels"]]
        assert all(k["cache"] == "miss" for k in manifest["kernels"])
        assert (store / AOT_MANIFEST).is_file()

    def test_second_pass_performs_zero_builds(self, cold):
        store, first = cold
        # a fresh engine, as a new install process would create
        second = prebuild(store)
        assert all(k["cache"] != "miss" for k in second["kernels"]), (
            "re-prebuild over a warm store must not rebuild"
        )
        assert [k["key"] for k in first["kernels"]] == [
            k["key"] for k in second["kernels"]
        ]

    def test_prebuilt_kernels_run_correctly(self, cold):
        store, _ = cold
        engine = Engine(cache_dir=store)
        img = synthetic_rgb(12, 16, seed=7)
        expected = reference.harris(img)
        for name, req in zoo_kernel_requests(pipelines=("harris",)):
            pipeline = engine.compile_request(req)
            assert pipeline.cache_status in ("hit-disk", "hit-memory"), name
            out = pipeline.run(sizes={"n": 8, "m": 12}, rgb=img)
            np.testing.assert_allclose(
                out.reshape(8, 12), expected, rtol=1e-3, atol=1e-4,
                err_msg=name,
            )


class TestManifest:
    def test_load_manifest_roundtrip(self, cold):
        store, _ = cold
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
