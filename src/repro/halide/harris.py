"""The Harris pipeline in mini-Halide with the paper's reference schedule.

The algorithm follows the variant in the Halide repository that the paper
uses (fig. 5: no border padding, the output shrinks by 4 in each
dimension); the schedule is listing 4:

    output.split(y, y, yi, 32).parallel(y).vectorize(x, vec);
    gray.store_at(output, y).compute_at(output, yi).vectorize(x, vec);
    Iy.store_at(output, y).compute_at(output, yi).vectorize(x, vec);
    Ix.store_at(output, y).compute_at(output, yi).vectorize(x, vec);
    Ix.compute_with(Iy, x);

Products, sums and coarsity stay inline (Halide's default), exactly as in
the reference.
"""

from __future__ import annotations


from repro.nat import Nat, nat
from repro.codegen.ir import ImpProgram
from repro.halide.hir import Func, HVar, ImageParam
from repro.halide.lower import compile_halide
from repro.image.reference import GRAY_WEIGHTS, HARRIS_KAPPA, SOBEL_X, SOBEL_Y

__all__ = ["build_harris_funcs", "build_harris_halide_program"]


def build_harris_funcs(vec: int = 4, chunk: int = 32):
    """Construct the algorithm + reference schedule; returns (output, input)."""
    x, y = HVar("x"), HVar("y")
    rgb = ImageParam("rgb", channels=3)

    gray = Func("gray")
    gray[x, y] = (
        float(GRAY_WEIGHTS[0]) * rgb[0](x, y)
        + float(GRAY_WEIGHTS[1]) * rgb[1](x, y)
        + float(GRAY_WEIGHTS[2]) * rgb[2](x, y)
    )

    def conv3x3(name: str, weights) -> Func:
        f = Func(name)
        expr = None
        for dy in range(3):
            for dx in range(3):
                w = float(weights[dy][dx])
                if w == 0.0:
                    continue
                term = w * gray(x + dx, y + dy)
                expr = term if expr is None else expr + term
        f[x, y] = expr
        return f

    ix = conv3x3("Ix", SOBEL_X)
    iy = conv3x3("Iy", SOBEL_Y)

    ixx = Func("Ixx")
    ixx[x, y] = ix(x, y) * ix(x, y)
    ixy = Func("Ixy")
    ixy[x, y] = ix(x, y) * iy(x, y)
    iyy = Func("Iyy")
    iyy[x, y] = iy(x, y) * iy(x, y)

    def sum3x3(name: str, f: Func) -> Func:
        s = Func(name)
        expr = None
        for dy in range(3):
            for dx in range(3):
                term = f(x + dx, y + dy)
                expr = term if expr is None else expr + term
        s[x, y] = expr
        return s

    sxx = sum3x3("Sxx", ixx)
    sxy = sum3x3("Sxy", ixy)
    syy = sum3x3("Syy", iyy)

    output = Func("harris")
    det = sxx(x, y) * syy(x, y) - sxy(x, y) * sxy(x, y)
    trace = sxx(x, y) + syy(x, y)
    output[x, y] = det - float(HARRIS_KAPPA) * trace * trace

    # ---- the reference schedule (listing 4) -----------------------------
    yo, yi = HVar("y"), HVar("yi")
    output.split(y, yo, yi, chunk).parallel(yo).vectorize(x, vec)
    gray.store_at(output, yo).compute_at(output, yi).vectorize(x, vec)
    iy.store_at(output, yo).compute_at(output, yi).vectorize(x, vec)
    ix.store_at(output, yo).compute_at(output, yi).vectorize(x, vec)
    ix.compute_with(iy, x)

    return output, rgb


def build_harris_halide_program(chunk: int = 32, vec: int = 4) -> ImpProgram:
    """The Halide baseline compiled to an imperative program with symbolic
    output sizes n x m (input [3][n+4][m+4]); ``chunk`` is the row split.

    The ``"halide"`` schedule of the registry's ``harris`` spec:
    ``repro.compile("zoo", options={"pipeline": "harris",
    "schedule": "halide", "chunk": 32, "vec": 4})``.
    """
    output, rgb = build_harris_funcs(vec=vec, chunk=chunk)
    n, m = nat("n"), nat("m")
    return compile_halide(
        output,
        {"rgb": (rgb, n + 4, m + 4)},
        n,
        m,
        name="halide_harris",
    )
