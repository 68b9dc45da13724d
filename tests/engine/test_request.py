"""CompileRequest: eager validation, immutability, and equivalence with
the keyword calling convention."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.engine import BACKENDS, CompileRequest
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier
from repro.strategies import cbuf_version

SENV = {"rgb": harris_input_type()}

#: The registry's Halide baseline of Harris, at a small grid.
HALIDE = {"pipeline": "harris", "schedule": "halide", "chunk": 4, "vec": 4}


class TestValidation:
    def test_minimal_builder_request(self):
        req = CompileRequest(source="zoo")
        assert req.kind == "builder"
        assert req.backend == "python"

    def test_bad_source_type(self):
        with pytest.raises(TypeError, match="source must be"):
            CompileRequest(source=42)

    def test_empty_builder_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            CompileRequest(source="")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            CompileRequest(source="zoo", backend="cuda")
        assert BACKENDS == ("python", "c")

    def test_strategy_must_expose_apply(self):
        with pytest.raises(TypeError, match=r"\.apply"):
            CompileRequest(source=harris(Identifier("rgb")), strategy="cbuf")

    def test_sizes_must_be_positive_ints(self):
        with pytest.raises(ValueError, match="positive int"):
            CompileRequest(source="zoo", sizes={"n": 0})
        with pytest.raises(ValueError, match="positive int"):
            CompileRequest(source="zoo", sizes={"n": True})
        with pytest.raises(TypeError, match="size names"):
            CompileRequest(source="zoo", sizes={3: 4})

    def test_sizes_must_be_a_mapping(self):
        with pytest.raises(TypeError, match="mapping"):
            CompileRequest(source="zoo", sizes=[("n", 4)])

    def test_options_only_for_builders(self):
        with pytest.raises(ValueError, match="builder"):
            CompileRequest(source=harris(Identifier("rgb")), options={"vec": 4})

    def test_cflags_rejects_bare_string(self):
        with pytest.raises(TypeError, match="bare string"):
            CompileRequest(source="zoo", cflags="-O2")

    def test_cflags_elements_must_be_strings(self):
        with pytest.raises(TypeError, match="cflags"):
            CompileRequest(source="zoo", cflags=("-O2", 3))

    def test_threads_bounds(self):
        with pytest.raises(ValueError, match="threads"):
            CompileRequest(source="zoo", threads=0)
        with pytest.raises(TypeError, match="threads"):
            CompileRequest(source="zoo", threads=True)

    def test_name_must_be_string(self):
        with pytest.raises(TypeError, match="name"):
            CompileRequest(source="zoo", name=7)


class TestImmutability:
    def test_frozen_fields(self):
        req = CompileRequest(source="zoo")
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.backend = "c"

    def test_mappings_are_read_only_snapshots(self):
        sizes = {"n": 12, "m": 16}
        req = CompileRequest(source="zoo", sizes=sizes)
        sizes["n"] = 99  # caller mutation must not leak in
        assert req.sizes["n"] == 12
        with pytest.raises(TypeError):
            req.sizes["n"] = 1

    def test_replace_revalidates(self):
        req = CompileRequest(source="zoo")
        assert req.replace(backend="c").backend == "c"
        with pytest.raises(ValueError, match="backend"):
            req.replace(backend="cuda")


class TestDerivedViews:
    def test_kind(self):
        assert CompileRequest(source="zoo").kind == "builder"
        assert CompileRequest(source=harris(Identifier("rgb"))).kind == "expr"

    def test_describe_mentions_source_and_backend(self):
        req = CompileRequest(source="zoo", backend="python")
        assert "zoo" in req.describe()
        assert "python" in req.describe()

    def test_to_dict_is_json_ready(self):
        import json

        req = CompileRequest(
            source=harris(Identifier("rgb")),
            strategy=cbuf_version(SENV, chunk=4),
            type_env=SENV,
            sizes={"n": 12, "m": 16},
            name="h",
        )
        doc = req.to_dict()
        json.dumps(doc)  # must serialize
        assert doc["kind"] == "expr"
        assert doc["sizes"] == {"n": 12, "m": 16}
        assert doc["type_env"] == ["rgb"]


class TestEngineIntegration:
    def test_request_and_kwargs_share_one_cache_key(self, fresh_engine):
        expr = harris(Identifier("rgb"))
        strategy = cbuf_version(SENV, chunk=4)
        via_kwargs = fresh_engine.compile(
            expr, strategy=strategy, type_env=SENV, sizes={"n": 12, "m": 16}
        )
        via_request = fresh_engine.compile(
            CompileRequest(
                source=expr, strategy=strategy, type_env=SENV,
                sizes={"n": 12, "m": 16},
            )
        )
        assert via_kwargs.key == via_request.key
        assert via_kwargs.cache_status == "miss"
        assert via_request.cache_status == "hit-memory"

    def test_report_echoes_the_request(self, fresh_engine):
        pipeline = fresh_engine.compile(
            CompileRequest(source="zoo", options=HALIDE)
        )
        report = pipeline.report()
        assert report["request"]["source"] == "zoo"
        assert report["request"]["options"] == HALIDE
        assert report["cache"] == "miss"

    def test_request_with_fields_is_a_type_error(self, fresh_engine):
        """Fields passed beside a request used to be dropped silently."""
        request = CompileRequest(source="zoo", options=HALIDE)
        with pytest.raises(TypeError, match="backend"):
            fresh_engine.compile(request, backend="c", threads=2)
        with pytest.raises(TypeError, match="threads"):
            repro.compile(request, threads=2, engine=fresh_engine)
        assert len(fresh_engine.cache) == 0

    def test_module_compile_accepts_request(self, small_image):
        pipeline = repro.compile(
            CompileRequest(
                source="zoo",
                options=HALIDE,
                sizes={"n": 8, "m": 12},
            )
        )
        out = pipeline.run(rgb=small_image)
        assert out.shape == (8 * 12,)
        assert np.isfinite(out).all()
