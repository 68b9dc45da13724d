"""The pipeline registry: catalog integrity, size domains, applicability.

The registry is the contract every generic consumer (bench, AOT, tuner,
fuzzer) builds on, so these tests pin its observable behavior: the
catalog contents, the divisibility rules of ``concrete_sizes``, and the
*detected* schedule-applicability matrix — which must match the
structural reality of each pipeline, not an optimistic assertion.
"""

import numpy as np
import pytest

from repro.pipelines import registry
from repro.pipelines.registry import PipelineSpec
from repro.rise.typecheck import infer_types

EXPECTED_PIPELINES = (
    "harris",
    "gaussian-blur",
    "sobel-magnitude",
    "unsharp-mask",
    "box-blur",
    "pyramid",
)

#: The empirically verified applicability matrix at chunk=4, vec=4,
#: strip=2.  sobel-magnitude has no separable post-sharing stencil pair
#: (rotation never fires); pyramid's stride-2 slides violate the
#: unit-step requirement of buffering and rotation.
EXPECTED_APPLICABILITY = {
    "harris": {"naive", "cbuf", "cbuf-rot", "cbuf-par", "cbuf-rot-par"},
    "gaussian-blur": {"naive", "cbuf", "cbuf-rot", "cbuf-par", "cbuf-rot-par"},
    "sobel-magnitude": {"naive", "cbuf", "cbuf-par"},
    "unsharp-mask": {"naive", "cbuf", "cbuf-rot", "cbuf-par", "cbuf-rot-par"},
    "box-blur": {"naive", "cbuf", "cbuf-rot", "cbuf-par", "cbuf-rot-par"},
    "pyramid": {"naive"},
}

#: Where convolution separation fires.  The matrix alone does not pin
#: it: where it never fires (and so rotation has no separated line to
#: rotate), the cbuf-rot lowering carries exactly cbuf's markers.
#: sobel-magnitude's post-sharing stencils are not separable; pyramid's
#: stride-2 slides are not line stencils at all.
SEPARATED = {"harris", "gaussian-blur", "unsharp-mask", "box-blur"}


class TestCatalog:
    def test_registry_contains_the_zoo(self):
        assert registry.names() == EXPECTED_PIPELINES

    def test_get_unknown_raises_listing_catalog(self):
        with pytest.raises(KeyError, match="harris"):
            registry.get("no-such-pipeline")

    def test_register_duplicate_raises(self):
        spec = registry.get("box-blur")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(spec)

    @pytest.mark.parametrize("name", EXPECTED_PIPELINES)
    def test_expr_typechecks_strict(self, name):
        spec = registry.get(name)
        typing = infer_types(spec.expr(), spec.type_env(), strict=True)
        assert typing.root_type is not None

    def test_harris_has_baselines(self):
        spec = registry.get("harris")
        assert tuple(spec.baselines) == ("halide", "opencv", "lift")
        assert [spec.runtime_kind(b) for b in spec.baselines] == [
            "native",
            "library",
            "opencl",
        ]
        assert spec.runtime_kind("cbuf") == registry.RISE_KIND

    def test_params_defaults_flow_into_expr(self):
        spec = registry.get("unsharp-mask")
        # An override must produce a structurally different program.
        assert repr(spec.expr()) != repr(spec.expr(amount=0.0))


class TestSizeDomain:
    @pytest.mark.parametrize("name", EXPECTED_PIPELINES)
    def test_concrete_sizes_divisibility(self, name):
        spec = registry.get(name)
        sizes = spec.concrete_sizes(chunk=4, vec=4, strip=2)
        assert sizes["n"] % 8 == 0 and sizes["n"] >= spec.floor
        assert sizes["m"] % 4 == 0 and sizes["m"] >= spec.floor
        # At least two chunks, so the chunk boundary is inside the image.
        assert sizes["n"] // 8 >= 1 and sizes["n"] >= 8

    def test_unconstrained_sizes_hit_the_floor(self):
        spec = registry.get("box-blur")
        assert spec.concrete_sizes() == {"n": spec.floor, "m": spec.floor}

    @pytest.mark.parametrize("name", EXPECTED_PIPELINES)
    def test_make_inputs_match_input_shape(self, name):
        spec = registry.get(name)
        sizes = spec.concrete_sizes(chunk=4, vec=4)
        inputs = spec.make_inputs(sizes, seed=3)
        assert set(inputs) == {spec.input_name}
        arr = inputs[spec.input_name]
        assert arr.shape == spec.input_shape(sizes)
        assert arr.dtype == np.float32

    def test_make_inputs_deterministic_per_seed(self):
        spec = registry.get("gaussian-blur")
        sizes = spec.concrete_sizes()
        a = spec.make_inputs(sizes, seed=5)[spec.input_name]
        b = spec.make_inputs(sizes, seed=5)[spec.input_name]
        c = spec.make_inputs(sizes, seed=6)[spec.input_name]
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("name", EXPECTED_PIPELINES)
    def test_reference_output_has_output_shape(self, name):
        spec = registry.get(name)
        sizes = spec.concrete_sizes(chunk=4, vec=4)
        inputs = spec.make_inputs(sizes, seed=0)
        out = spec.reference_output(inputs)
        assert out.shape == (sizes["n"], sizes["m"])


class TestApplicability:
    def test_make_schedule_unknown_raises(self):
        with pytest.raises(KeyError, match="naive"):
            registry.make_schedule("no-such-schedule", {})

    @pytest.mark.parametrize("name", EXPECTED_PIPELINES)
    def test_applicability_matrix(self, name):
        reports = registry.applicable_schedules(name, chunk=4, vec=4, strip=2)
        applying = {s for s, r in reports.items() if r.applies}
        assert applying == EXPECTED_APPLICABILITY[name]
        # Everything lowers, even schedules whose optimization no-ops.
        assert all(r.lowers for r in reports.values())
        separated = reports["cbuf-rot"].markers != reports["cbuf"].markers
        assert separated == (name in SEPARATED)
        # Every pipeline vectorizes, pyramid too although nothing of it
        # is buffered.
        assert reports["cbuf"].markers["MapSeqVec"] > 0

    def test_three_pipelines_take_every_component(self):
        """Separation, circular buffering and strip parallelization each
        apply to at least three registered pipelines (the matrix test
        checks these constants against the lowered programs)."""
        fully = [
            name
            for name in EXPECTED_PIPELINES
            if name in SEPARATED and {"cbuf", "cbuf-par"} <= EXPECTED_APPLICABILITY[name]
        ]
        assert len(fully) >= 3

    def test_applicability_is_cached(self):
        a = registry.applicable_schedules("box-blur", chunk=4, vec=4, strip=2)
        b = registry.applicable_schedules("box-blur", chunk=4, vec=4, strip=2)
        assert a is b

    def test_markers_counted_not_asserted(self):
        reports = registry.applicable_schedules("gaussian-blur", chunk=4, vec=4)
        assert reports["cbuf"].markers["CircularBuffer"] == 2
        assert reports["cbuf-rot"].markers["RotateValues"] == 2
        assert reports["naive"].markers["CircularBuffer"] == 0

    def test_strip_parallel_adds_a_split(self):
        reports = registry.applicable_schedules("unsharp-mask", chunk=4, vec=4)
        assert (
            reports["cbuf-par"].markers["Split"] > reports["cbuf"].markers["Split"]
        )


class TestStrategyCoverage:
    def test_pyramid_gets_vectorize_but_not_buffering(self):
        reports = registry.applicable_schedules("pyramid", chunk=4, vec=4, strip=2)
        assert reports["cbuf"].markers["MapSeqVec"] > 0
        assert reports["cbuf"].markers["CircularBuffer"] == 0
        assert reports["cbuf-rot"].markers["RotateValues"] == 0

    def test_sobel_magnitude_has_no_separation(self):
        reports = registry.applicable_schedules(
            "sobel-magnitude", chunk=4, vec=4, strip=2
        )
        assert reports["cbuf-rot"].markers == reports["cbuf"].markers
        assert reports["cbuf"].markers["CircularBuffer"] > 0


class TestZooBuilder:
    def test_builder_is_registered_with_the_engine(self):
        from repro.engine import Engine

        options = {"pipeline": "box-blur", "schedule": "naive"}
        prog = Engine().compile("zoo", options=options).program
        assert prog.name == registry.build_zoo_program(**options).name

    def test_baselines_are_schedules_of_their_spec(self):
        prog = registry.build_zoo_program("harris", "halide", chunk=4, vec=4)
        assert prog.name == "halide_harris"
        with pytest.raises(KeyError, match="cbuf-rot-par, halide, opencv, lift"):
            registry.build_zoo_program("harris", "nope")
        with pytest.raises(KeyError, match=r"known: naive, .*cbuf-rot-par\)"):
            registry.build_zoo_program("box-blur", "halide")

    def test_build_zoo_program_produces_imp_program(self):
        from repro.codegen.ir import ImpProgram

        prog = registry.build_zoo_program("box-blur", "naive")
        assert isinstance(prog, ImpProgram)
        assert prog.name == "zoo_box_blur_naive"

    def test_build_zoo_program_unknown_pipeline(self):
        with pytest.raises(KeyError, match="box-blur"):
            registry.build_zoo_program("nope")

    def test_spec_is_frozen(self):
        spec = registry.get("box-blur")
        with pytest.raises(Exception):
            spec.name = "other"
        assert isinstance(spec, PipelineSpec)
