"""Experiment harness regenerating the paper's figures and claims."""

from repro.bench.harness import (
    IMPLEMENTATIONS, Claim, Fig8Cell, compile_all, fig1_normalized,
    fig8_grid, format_fig8, modeled_cells, padded_sizes, paper_claims,
)
from repro.bench.validation import ValidationRow, validate_outputs
from repro.bench.ablation import AblationRow, ablation_variants, run_ablation
from repro.bench.zoo import SmokeRow, ZooCell, zoo_grid, zoo_smoke
