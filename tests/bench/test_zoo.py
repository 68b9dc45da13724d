"""The zoo bench grid: cell naming, applicability filtering, baselines.

The grid feeds ``zoo|<pipeline>|<schedule>|<machine>`` cells into the
``BENCH_trajectory.json`` ledger, where they are regression-gated like
every other deterministic cost-model cell — so these tests pin the cell
key format, the applicability filter (no cells for schedules that do
not structurally apply), and determinism across runs.
"""

import pytest

from repro.bench.harness import compile_all
from repro.bench.zoo import (
    DEFAULT_PSNR_FLOOR_DB,
    ZOO_CELL_PREFIX,
    SmokeRow,
    ZooCell,
    format_smoke,
    format_zoo,
    zoo_cells,
    zoo_grid,
    zoo_smoke,
)
from repro.engine.pipeline import Engine
from repro.perf.machines import ALL_MACHINES
from repro.pipelines import registry


@pytest.fixture(scope="module")
def engine():
    return Engine(cache_dir=None)


@pytest.fixture(scope="module")
def one_machine():
    return ALL_MACHINES[0]


@pytest.fixture(scope="module")
def small_grid(engine, one_machine):
    """box-blur (fully covered) + pyramid (naive only) on one machine."""
    return zoo_grid(
        pipelines=["box-blur", "pyramid"], machines=[one_machine], engine=engine
    )


class TestGrid:
    def test_cell_key_format(self, small_grid, one_machine):
        cell = small_grid[0]
        assert cell.key == (
            f"zoo|{cell.pipeline}|{cell.schedule}|{one_machine.name}"
        )
        assert cell.key.startswith(ZOO_CELL_PREFIX)

    def test_applicability_filters_cells(self, small_grid):
        """pyramid contributes exactly its naive cell; box-blur all five
        schedules.  No cell may cost a schedule that silently no-opped."""
        by_pipeline = {}
        for c in small_grid:
            by_pipeline.setdefault(c.pipeline, set()).add(c.schedule)
        assert by_pipeline["pyramid"] == {"naive"}
        assert by_pipeline["box-blur"] == {
            "naive",
            "cbuf",
            "cbuf-rot",
            "cbuf-par",
            "cbuf-rot-par",
        }

    def test_runtimes_positive_and_finite(self, small_grid):
        for c in small_grid:
            assert 0.0 < c.runtime_ms < 1e6, c.key

    def test_buffering_beats_naive_on_box_blur(self, small_grid):
        """The cost model must preserve the paper's ordering: circular
        buffering avoids recomputing the producer stage."""
        ms = {c.schedule: c.runtime_ms for c in small_grid if c.pipeline == "box-blur"}
        assert ms["cbuf"] < ms["naive"]

    def test_harris_baselines_appear_in_the_grid(self, engine, one_machine):
        cells = zoo_grid(pipelines=["harris"], machines=[one_machine], engine=engine)
        labels = {c.schedule for c in cells}
        assert {"halide", "opencv", "lift"} <= labels
        assert "naive" in labels
        # fig. 8 is the Harris slice of this grid: the same five kernels
        before = engine.stats()
        programs = compile_all.__wrapped__(4, 4, engine)
        after = engine.stats()
        assert len(programs) == 5
        assert after["hits"] - before["hits"] == 5
        assert after["misses"] == before["misses"]

    def test_cells_are_deterministic(self, engine, one_machine):
        a = zoo_cells(pipelines=["box-blur"], engine=engine)
        b = zoo_cells(pipelines=["box-blur"], engine=engine)
        assert a == b
        assert all(k.startswith(ZOO_CELL_PREFIX) for k in a)

    def test_grid_covers_all_machines_by_default(self, engine):
        cells = zoo_grid(pipelines=["pyramid"], engine=engine)
        assert {c.machine for c in cells} == {m.name for m in ALL_MACHINES}


class TestSmoke:
    def test_box_blur_python_validates(self, engine):
        rows = zoo_smoke(pipelines=["box-blur"], backends=["python"], engine=engine)
        assert len(rows) == 1
        row = rows[0]
        assert row.ok
        assert row.psnr_db > DEFAULT_PSNR_FLOOR_DB
        assert row.backend == "python"
        assert row.schedule == registry.DEFAULT_SCHEDULE

    def test_smoke_row_ok_is_the_floor_comparison(self):
        row = SmokeRow(
            pipeline="p",
            schedule="naive",
            backend="python",
            sizes={"n": 8, "m": 8},
            psnr_db=79.9,
            max_abs_err=1.0,
            psnr_floor_db=80.0,
        )
        assert not row.ok


class TestFormatting:
    def test_format_zoo_mentions_every_cell(self, small_grid):
        text = format_zoo(small_grid)
        assert "box-blur" in text and "pyramid" in text
        assert "cbuf-rot-par" in text

    def test_format_smoke_reports_psnr(self):
        rows = [
            SmokeRow(
                pipeline="box-blur",
                schedule="naive",
                backend="python",
                sizes={"n": 8, "m": 8},
                psnr_db=float("inf"),
                max_abs_err=0.0,
            )
        ]
        text = format_smoke(rows)
        assert "box-blur" in text
        assert "ok" in text.lower()


class TestCellWiring:
    def test_prefix_constant_matches_regress(self):
        from repro.bench.regress import ZOO_CELL_PREFIX as regress_prefix

        assert regress_prefix == ZOO_CELL_PREFIX

    def test_zoo_cell_key_property(self):
        from repro.perf.cost import CostReport

        cell = ZooCell(
            pipeline="gaussian-blur",
            schedule="cbuf",
            machine="A7",
            runtime_ms=1.0,
            report=None,
        )
        assert cell.key == "zoo|gaussian-blur|cbuf|A7"
        assert CostReport is not None
