"""AOT prebuild over the pipeline zoo: grid shape, filtering, warm starts.

``zoo_kernel_requests`` names every registered pipeline under every
*applicable* schedule, addressed as plain-JSON ``"zoo"`` requests so a
serving process can reconstruct them without importing pipeline code.
"""

import pytest

from repro.pipelines import registry
from repro.serve import prebuild, zoo_kernel_requests

#: Applying (pipeline, schedule) pairs at the AOT defaults — the sum of
#: the registry's applicability matrix rows: 5+5+3+5+5+1.
EXPECTED_APPLICABLE = 24


class TestZooKernelGrid:
    def test_applicable_grid_size(self):
        reqs = zoo_kernel_requests(backends=("python",))
        assert len(reqs) == EXPECTED_APPLICABLE

    def test_kernel_naming(self):
        names = [name for name, _ in zoo_kernel_requests(backends=("python",))]
        assert "zoo-gaussian-blur-cbuf-rot-par@python" in names
        assert "zoo-pyramid-naive@python" in names
        assert all(name.startswith("zoo-") for name in names)

    def test_applicability_filter_drops_no_op_schedules(self):
        names = [name for name, _ in zoo_kernel_requests(backends=("python",))]
        # pyramid's strided slides admit no buffering schedule: prebuilding
        # one would publish a naive kernel under an optimized name.
        assert "zoo-pyramid-cbuf@python" not in names
        assert "zoo-sobel-magnitude-cbuf-rot@python" not in names

    def test_applicable_only_false_emits_the_full_product(self):
        reqs = zoo_kernel_requests(backends=("python",), applicable_only=False)
        assert len(reqs) == len(registry.names()) * len(registry.SCHEDULE_NAMES)

    def test_backends_multiply_the_grid(self):
        reqs = zoo_kernel_requests(backends=("python", "c"))
        assert len(reqs) == 2 * EXPECTED_APPLICABLE
        assert {req.backend for _, req in reqs} == {"python", "c"}

    def test_pipeline_and_schedule_overrides(self):
        reqs = zoo_kernel_requests(
            backends=("python",),
            pipelines=["box-blur"],
            schedules=["naive", "cbuf"],
        )
        assert [name for name, _ in reqs] == [
            "zoo-box-blur-naive@python",
            "zoo-box-blur-cbuf@python",
        ]

    def test_requests_carry_distinct_keys(self, fresh_engine):
        keys = {
            fresh_engine._keyed(req)[1]
            for _, req in zoo_kernel_requests(backends=("python",))
        }
        assert len(keys) == EXPECTED_APPLICABLE

    def test_requests_are_plain_json_options(self):
        for _, req in zoo_kernel_requests(backends=("python",)):
            assert req.source == "zoo"
            assert req.strategy is None
            assert set(req.options) == {"pipeline", "schedule", "chunk", "vec", "strip"}


class TestZooPrebuild:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return tmp_path_factory.mktemp("zoo-aot") / "store"

    @pytest.fixture(scope="class")
    def tiny_requests(self):
        return zoo_kernel_requests(
            backends=("python",), pipelines=["box-blur"], schedules=["naive", "cbuf"]
        )

    def test_cold_prebuild_builds_the_zoo_kernels(self, store, tiny_requests):
        manifest = prebuild(store, requests=tiny_requests)
        assert [k["kernel"] for k in manifest["kernels"]] == [
            "zoo-box-blur-naive@python",
            "zoo-box-blur-cbuf@python",
        ]
        assert all(k["cache"] == "miss" for k in manifest["kernels"])
        # Distinct schedules must land on distinct content addresses.
        keys = {k["key"] for k in manifest["kernels"]}
        assert len(keys) == len(manifest["kernels"])

    def test_warm_prebuild_performs_zero_builds(self, store, tiny_requests):
        second = prebuild(store, requests=tiny_requests)
        assert all(k["cache"] != "miss" for k in second["kernels"])
