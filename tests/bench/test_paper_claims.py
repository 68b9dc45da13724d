"""The paper's section V claims (EXPERIMENTS.md E1-E7, plus the
generalization check G), one test per row of
:func:`repro.bench.harness.paper_claims`.

Every value is modeled: the table is computed once per process from the
cached Harris compiles, so all rows share one compile.
"""

import pytest

from repro.bench.harness import paper_claims

ROW_IDS = (
    "E1.halide", "E1.lift", "E1.rise",
    "E2.cells", "E2.opencv-slowest", "E2.lift-over-cbuf",
    "E2.deviation.min", "E2.deviation.max", "E2.rot-fastest",
    "E3.rows", "E3.exact", "E3.psnr-halide", "E3.psnr-numpy",
    "E4.opencv-max", "E4.opencv-mean",
    "E5.rot-over-cbuf", "E5.rot-over-halide.mean", "E5.rot-over-halide.max",
    "E5.halide-wins",
    "E6.full", "E6.no-faster", "E6.no-mt", "E6.no-vec", "E6.no-rot", "E6.no-cbuf",
    "E7.speedup", "E7.A7-over-A15", "E7.A53-over-A73",
    "G.gaussian-blur",
)


def test_row_ids_are_the_table():
    assert tuple(row.id for row in paper_claims()) == ROW_IDS


@pytest.mark.parametrize("row_id", ROW_IDS)
def test_paper_claim(row_id):
    row = {r.id: r for r in paper_claims()}[row_id]
    assert row.ok, f"{row.id} ({row.claim}): {row.value:.4g} outside {row.band}"
