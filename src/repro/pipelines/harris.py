"""The high-level Harris corner detector in RISE (paper listing 3) and
the 3x3 Gaussian stage the zoo's blur pipelines reuse.

``harris`` builds the exact dataflow of fig. 5: grayscale, the two sobel
convolutions, three pointwise products, three 3x3 sums, and coarsity —
written with ``def``-style lets that remain visible to the optimization
strategies.
"""

from __future__ import annotations

from repro.image.reference import HARRIS_KAPPA
from repro.nat import nat
from repro.rise.dsl import arr, let
from repro.rise.expr import Expr
from repro.rise.types import DataType, array, f32
from repro.pipelines.operators import (
    coarsity,
    conv3x3,
    grayscale,
    mul2d,
    sobel_x,
    sobel_y,
    sum3x3,
)

__all__ = [
    "harris",
    "harris_input_type",
    "gaussian3x3",
]


def harris(rgb: Expr, kappa: float = float(HARRIS_KAPPA)) -> Expr:
    """def harris(RGB: [3][n+4][m+4]f32): [n][m]f32    (listing 3)"""
    return let(
        grayscale(rgb),
        lambda gray: let(
            sobel_x(gray),
            lambda ix: let(
                sobel_y(gray),
                lambda iy: let(
                    mul2d(ix, ix),
                    lambda ixx: let(
                        mul2d(ix, iy),
                        lambda ixy: let(
                            mul2d(iy, iy),
                            lambda iyy: let(
                                sum3x3(ixx),
                                lambda sxx: let(
                                    sum3x3(ixy),
                                    lambda sxy: let(
                                        sum3x3(iyy),
                                        lambda syy: coarsity(sxx, sxy, syy, kappa),
                                        name="Syy",
                                    ),
                                    name="Sxy",
                                ),
                                name="Sxx",
                            ),
                            name="Iyy",
                        ),
                        name="Ixy",
                    ),
                    name="Ixx",
                ),
                name="Iy",
            ),
            name="Ix",
        ),
        name="I",
    )


def harris_input_type(n=None, m=None) -> DataType:
    """[3][n+4][m+4]f32 — symbolic by default, concrete when sizes given."""
    rows = (nat(n) if n is not None else nat("n")) + 4
    cols = (nat(m) if m is not None else nat("m")) + 4
    return array(3, array(rows, array(cols, f32)))


def gaussian3x3(image: Expr) -> Expr:
    """A 3x3 Gaussian blur (separable kernel [1,2,1]x[1,2,1] / 16)."""
    weights = arr([[1 / 16, 2 / 16, 1 / 16], [2 / 16, 4 / 16, 2 / 16], [1 / 16, 2 / 16, 1 / 16]])
    return conv3x3(weights, image)

