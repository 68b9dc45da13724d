"""AOT prebuild over the pipeline zoo: grid shape, skipped pairs, warm starts.

``zoo_kernel_requests`` names every registered pipeline under every
schedule of the family, addressed as plain-JSON ``"zoo"`` requests so a
serving process can reconstruct them without importing pipeline code.
``prebuild`` publishes the pairs that compile and lists the others,
whose schedule does not apply, as skipped.
"""

import pytest

from repro.pipelines import registry
from repro.serve import prebuild, zoo_kernel_requests
from tests.zoo import EXPECTED_APPLICABILITY, MISSING_MARKER

#: Every (pipeline, schedule) pair of the family.
FULL_PRODUCT = len(registry.names()) * len(registry.SCHEDULE_NAMES)

#: Applying pairs at the AOT defaults — the sum of the applicability
#: matrix rows: 5+5+3+5+5+1.
EXPECTED_APPLICABLE = 24


class TestZooKernelGrid:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory, fresh_zoo_grid):
        """The full Python grid, on the engine that compiled the default
        zoo grid: at the AOT defaults its keys are the zoo grid's."""
        store = tmp_path_factory.mktemp("zoo-grid") / "store"
        requests = zoo_kernel_requests(backends=("python",))
        return prebuild(store, requests=requests, engine=fresh_zoo_grid[0])

    def test_applicable_grid_size(self, manifest):
        assert EXPECTED_APPLICABLE == sum(map(len, EXPECTED_APPLICABILITY.values()))
        assert len(manifest["kernels"]) == EXPECTED_APPLICABLE
        assert len(manifest["skipped"]) == FULL_PRODUCT - EXPECTED_APPLICABLE

    def test_kernel_naming(self):
        names = [name for name, _ in zoo_kernel_requests(backends=("python",))]
        assert "zoo-gaussian-blur-cbuf-rot-par@python" in names
        assert "zoo-pyramid-naive@python" in names
        assert all(name.startswith("zoo-") for name in names)

    def test_applicability_filter_drops_no_op_schedules(self, manifest):
        # pyramid's strided slides admit no buffering schedule: prebuilding
        # one would publish a naive kernel under an optimized name.
        published = {k["kernel"] for k in manifest["kernels"]}
        skipped = {k["kernel"]: k["reason"] for k in manifest["skipped"]}
        assert "zoo-pyramid-cbuf@python" not in published
        assert "zoo-sobel-magnitude-cbuf-rot@python" not in published
        assert "no CircularBuffer" in skipped["zoo-pyramid-cbuf@python"]
        assert "no RotateValues" in skipped["zoo-sobel-magnitude-cbuf-rot@python"]
        for pipeline, applying in EXPECTED_APPLICABILITY.items():
            for schedule in registry.SCHEDULE_NAMES:
                kernel = f"zoo-{pipeline}-{schedule}@python"
                if schedule in applying:
                    assert kernel in published
                else:
                    assert f"no {MISSING_MARKER[schedule]}" in skipped[kernel]

    def test_grid_is_the_full_product(self):
        reqs = zoo_kernel_requests(backends=("python",))
        assert len(reqs) == FULL_PRODUCT

    def test_backends_multiply_the_grid(self):
        reqs = zoo_kernel_requests(backends=("python", "c"))
        assert len(reqs) == 2 * FULL_PRODUCT
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
        assert len(keys) == FULL_PRODUCT

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
        assert manifest["skipped"] == []
        # Distinct schedules must land on distinct content addresses.
        keys = {k["key"] for k in manifest["kernels"]}
        assert len(keys) == len(manifest["kernels"])

    def test_warm_prebuild_performs_zero_builds(self, store, tiny_requests):
        second = prebuild(store, requests=tiny_requests)
        assert all(k["cache"] != "miss" for k in second["kernels"])
