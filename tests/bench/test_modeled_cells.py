"""Every modeled cell of the analytic cost model, pinned exactly.

``modeled_cells.json`` holds the 148 cells of
:func:`repro.bench.harness.modeled_cells`: the fig. 8 grid
(``machine|image|implementation``) and the zoo grid
(``zoo|pipeline|schedule|machine``), at full float precision.  The cost
model is deterministic, so any change to a cell, faster or slower, by
any amount, fails here and lists every added, removed or moved cell with
its factor.  A deliberate cost-model change regenerates the table with
the command in :data:`REGENERATE` and its commit carries that list.
"""

import json
import math
from pathlib import Path

from repro.bench.harness import modeled_cells

TABLE = Path(__file__).with_name("modeled_cells.json")
REGENERATE = (
    "PYTHONPATH=src python -m repro.bench.harness cells > tests/bench/modeled_cells.json"
)
REL_TOL = 1e-9


def cell_changes(pinned: dict, current: dict) -> list[str]:
    """One line per cell added, removed or moved beyond :data:`REL_TOL`."""
    lines = []
    for key in sorted(pinned.keys() | current.keys()):
        old, new = pinned.get(key), current.get(key)
        if old is None:
            lines.append(f"added   {key}: {new!r}")
        elif new is None:
            lines.append(f"removed {key}: {old!r}")
        elif not math.isclose(old, new, rel_tol=REL_TOL):
            lines.append(f"moved   {key}: {old!r} -> {new!r} (x{new / old:.6g})")
    return lines


def test_modeled_cells_match_the_table():
    pinned = json.loads(TABLE.read_text(encoding="utf-8"))
    changes = cell_changes(pinned, modeled_cells())
    assert not changes, (
        f"{len(changes)} of {len(pinned)} modeled cells changed:\n"
        + "\n".join(changes)
        + f"\nif the change is intended, regenerate the table:\n  {REGENERATE}"
    )


def test_changes_name_every_cell_with_its_factor():
    pinned = {"a": 1.0, "b": 2.0, "c": 4.0}
    current = {"a": 1.0 + 1e-12, "b": 1.9, "d": 8.0}
    assert cell_changes(pinned, current) == [
        "moved   b: 2.0 -> 1.9 (x0.95)",
        "removed c: 4.0",
        "added   d: 8.0",
    ]
