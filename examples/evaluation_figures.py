"""Regenerate the paper's evaluation artifacts from the command line.

Prints fig. 1 (normalized A53 comparison), fig. 8 (the full runtime grid),
the ablation study, the fig. 7 vector-load model, the output validation
and the table of the paper's claims with their bands, and writes the
fig. 8 grid to ``fig8.csv`` in the output directory.  Exits 1 when a
claim falls outside its band.

Run:  python examples/evaluation_figures.py [output_dir]
"""

import csv
import sys
from pathlib import Path

from repro.bench.ablation import run_ablation
from repro.bench.harness import fig1_normalized, fig8_grid, format_fig8, paper_claims
from repro.bench.validation import validate_outputs
from repro.perf import ALL_MACHINES, vector_load_costs


def main(out_dir: str = ".") -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    print("=" * 72)
    print("Fig. 1 — Lift / Halide / RISE(cbuf+rot) on Cortex A53 (normalized)")
    print("=" * 72)
    fig1 = fig1_normalized()
    for name, value in fig1.items():
        print(f"  {name:<18} {value:5.2f}  {'#' * int(round(value * 20))}")

    print()
    print("=" * 72)
    print("Fig. 8 — Harris runtimes on four ARM CPUs, two image sizes (ms)")
    print("=" * 72)
    cells = fig8_grid()
    print(format_fig8(cells))
    with (out / "fig8.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["machine", "image", "implementation", "runtime_ms"])
        for cell in cells:
            writer.writerow(
                [cell.machine, cell.image, cell.implementation, f"{cell.runtime_ms:.3f}"]
            )

    print()
    print("=" * 72)
    print("Ablation (Cortex A53, small image)")
    print("=" * 72)
    for row in run_ablation():
        print(f"  {row.variant:<24} {row.runtime_ms:8.1f} ms   {row.slowdown_vs_full:5.2f}x")

    print()
    print("=" * 72)
    print("Fig. 7 — vector-load strategies (cycles per output vector)")
    print("=" * 72)
    for machine in ALL_MACHINES:
        cost = vector_load_costs(machine)
        print(
            f"  {cost.machine:<11} naive {cost.naive_cycles:5.2f}  "
            f"optimized {cost.optimized_cycles:5.2f}  ({cost.speedup:.2f}x)"
        )

    print()
    print("=" * 72)
    print("Output validation (section V-A)")
    print("=" * 72)
    for row in validate_outputs():
        print(
            f"  {row.implementation:<18} PSNR vs Halide: "
            f"{'exact (inf dB)' if row.psnr_vs_halide_db == float('inf') else f'{row.psnr_vs_halide_db:.1f} dB'}"
        )
    print()
    print("=" * 72)
    print("The paper's claims (modeled value, band)")
    print("=" * 72)
    rows = paper_claims()
    for row in rows:
        print(f"  {row.id:<24} {row.value:9.3f}  {row.band:<14} {'ok' if row.ok else 'FAIL'}  {row.claim}")
    print(f"\nCSV written to {out / 'fig8.csv'}")
    if not all(row.ok for row in rows):
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
