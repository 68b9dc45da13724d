"""The pipeline zoo: image-processing workloads beyond Harris.

Each pipeline here is an algorithm-only RISE builder in the style of
:mod:`repro.pipelines.harris` — built from the listing-1/2 macro layer,
with no schedule decisions baked in — paired with a NumPy reference
implementation used for PSNR validation, differential testing and
fuzzing.  The catalog lives in :mod:`repro.pipelines.registry`, which
maps every builder to its input type, size domain and the named
schedule family (a schedule that does not apply raises when applied).

Design notes that make the strategies transfer:

* ``sobel_magnitude_rgb`` and ``unsharp_mask`` take an RGB input and
  compute ``grayscale`` as an explicit first stage, so circular
  buffering has a *computed* producer stage to buffer (a slide over a
  raw input view is a free access pattern and is deliberately not
  buffered).
* ``unsharp_mask`` expresses the center-pixel term as a convolution
  with the separable delta kernel ``[0,1,0] x [0,1,0]`` so the whole
  pipeline stays inside the stencil vocabulary and convolution
  separation applies to both of its convolutions.
* ``downsample_pyramid`` uses stride-2 sliding windows
  (``slide2d(3, 2)``); the slide type scheme ``[sp*n + sz - sp]t ->
  [n][sz]t`` and the Nat solver handle the strided sizes symbolically,
  but stride-2 windows are not circular-bufferable (the rotation and
  buffering rules require unit step), which the registry records as a
  structural fact rather than asserting.
"""

from __future__ import annotations

import numpy as np

from repro.nat import nat
from repro.rise.dsl import arr, dot, fst, fun, join, let, lit, map_, snd
from repro.rise.expr import Expr
from repro.rise.types import DataType, array, f32
from repro.image import reference
from repro.pipelines.harris import gaussian3x3
from repro.pipelines.operators import (
    conv3x3,
    grayscale,
    map2d,
    mul2d,
    slide2d,
    sobel_x,
    sobel_y,
    sum3x3,
    zip2d,
)

__all__ = [
    "GAUSSIAN_KERNEL_2D",
    "DELTA_KERNEL_2D",
    "DEFAULT_UNSHARP_AMOUNT",
    "gaussian_blur",
    "gaussian_blur_input_type",
    "sobel_magnitude_rgb",
    "sobel_magnitude_input_type",
    "unsharp_mask",
    "unsharp_mask_input_type",
    "box_blur",
    "box_blur_input_type",
    "downsample_pyramid",
    "downsample_pyramid_input_type",
    "reference_gaussian_blur",
    "reference_sobel_magnitude",
    "reference_unsharp_mask",
    "reference_box_blur",
    "reference_downsample_pyramid",
]

#: The binomial 3x3 Gaussian ([1,2,1] x [1,2,1] / 16) shared by the
#: blur, unsharp and pyramid pipelines — separable by construction.
GAUSSIAN_KERNEL_2D = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]).astype(np.float32) / 16.0

#: The 3x3 identity (delta) kernel: convolution with it reproduces the
#: valid-region center pixel.  Separable as [0,1,0] x [0,1,0].
DELTA_KERNEL_2D = np.zeros((3, 3), dtype=np.float32)
DELTA_KERNEL_2D[1, 1] = 1.0

DEFAULT_UNSHARP_AMOUNT = 0.5

_DELTA_WEIGHTS = arr([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


# ----------------------------------------------------------------------
# Separable Gaussian blur: two 3x3 Gaussian passes.
# ----------------------------------------------------------------------


def gaussian_blur(image: Expr) -> Expr:
    """Two-stage Gaussian blur: ``[n+4][m+4]f32 -> [n][m]f32``.

    Two chained binomial 3x3 convolutions (an effective 5x5 Gaussian);
    the intermediate blur is a ``let``-bound stage so circular
    buffering can stream it line by line.
    """
    return let(gaussian3x3(image), lambda g1: gaussian3x3(g1), name="G1")


def gaussian_blur_input_type(n=None, m=None) -> DataType:
    """``[n+4][m+4]f32`` — each 3x3 stage shrinks the image by 2."""
    n = n if n is not None else nat("n")
    m = m if m is not None else nat("m")
    return array(n + 4, array(m + 4, f32))


def reference_gaussian_blur(image: np.ndarray) -> np.ndarray:
    """NumPy gold: two valid-region 3x3 Gaussian convolutions."""
    once = reference.conv2d_valid(image, GAUSSIAN_KERNEL_2D)
    return reference.conv2d_valid(once, GAUSSIAN_KERNEL_2D)


# ----------------------------------------------------------------------
# Sobel gradient magnitude over an RGB input.
# ----------------------------------------------------------------------


def sobel_magnitude_rgb(rgb: Expr) -> Expr:
    """Squared Sobel gradient magnitude: ``[3][n+2][m+2]f32 -> [n][m]f32``.

    Grayscale conversion is the first (buffered) stage; the two Sobel
    convolutions then combine as ``ix^2 + iy^2`` (the squared magnitude,
    as in the Harris structure tensor — no square root is taken).
    """
    return let(
        grayscale(rgb),
        lambda gray: let(
            sobel_x(gray),
            lambda ix: let(
                sobel_y(gray),
                lambda iy: map2d(
                    fun(lambda p: fst(p) + snd(p)),
                    zip2d(mul2d(ix, ix), mul2d(iy, iy)),
                ),
                name="Iy",
            ),
            name="Ix",
        ),
        name="I",
    )


def sobel_magnitude_input_type(n=None, m=None) -> DataType:
    """``[3][n+2][m+2]f32`` — one 3x3 stencil of shrink."""
    n = n if n is not None else nat("n")
    m = m if m is not None else nat("m")
    return array(3, array(n + 2, array(m + 2, f32)))


def reference_sobel_magnitude(rgb: np.ndarray) -> np.ndarray:
    """NumPy gold: grayscale, Sobel x/y, squared magnitude."""
    gray = reference.grayscale(rgb)
    ix = reference.sobel_x(gray)
    iy = reference.sobel_y(gray)
    return ix * ix + iy * iy


# ----------------------------------------------------------------------
# Unsharp masking over an RGB input.
# ----------------------------------------------------------------------


def unsharp_mask(rgb: Expr, amount: float = DEFAULT_UNSHARP_AMOUNT) -> Expr:
    """Unsharp mask: ``[3][n+2][m+2]f32 -> [n][m]f32``.

    ``sharp = (1 + amount) * center - amount * blur`` over the
    grayscale image.  The center term is a convolution with the delta
    kernel, so both terms are 3x3 stencils over the same grayscale
    stage and separation/buffering see one uniform structure.  With
    ``amount = 0`` the pipeline is the identity on the valid region.
    """
    a = float(amount)
    return let(
        grayscale(rgb),
        lambda gray: let(
            conv3x3(_DELTA_WEIGHTS, gray),
            lambda center: let(
                gaussian3x3(gray),
                lambda blurred: map2d(
                    fun(lambda p: lit(1.0 + a) * fst(p) - lit(a) * snd(p)),
                    zip2d(center, blurred),
                ),
                name="B",
            ),
            name="C",
        ),
        name="I",
    )


def unsharp_mask_input_type(n=None, m=None) -> DataType:
    """``[3][n+2][m+2]f32`` — one 3x3 stencil of shrink."""
    n = n if n is not None else nat("n")
    m = m if m is not None else nat("m")
    return array(3, array(n + 2, array(m + 2, f32)))


def reference_unsharp_mask(
    rgb: np.ndarray, amount: float = DEFAULT_UNSHARP_AMOUNT
) -> np.ndarray:
    """NumPy gold: sharpened = (1+a) * center - a * Gaussian blur."""
    gray = reference.grayscale(rgb)
    center = gray[1:-1, 1:-1]
    blur = reference.conv2d_valid(gray, GAUSSIAN_KERNEL_2D)
    return (1.0 + amount) * center - amount * blur


# ----------------------------------------------------------------------
# Box blur.
# ----------------------------------------------------------------------


def box_blur(image: Expr) -> Expr:
    """3x3 box blur: ``[n+2][m+2]f32 -> [n][m]f32`` (sum3x3 / 9)."""
    return map2d(fun(lambda x: x * lit(1.0 / 9.0)), sum3x3(image))


def box_blur_input_type(n=None, m=None) -> DataType:
    """``[n+2][m+2]f32`` — one 3x3 stencil of shrink."""
    n = n if n is not None else nat("n")
    m = m if m is not None else nat("m")
    return array(n + 2, array(m + 2, f32))


def reference_box_blur(image: np.ndarray) -> np.ndarray:
    """NumPy gold: valid-region 3x3 neighborhood mean."""
    return reference.sum3x3(image) / 9.0


# ----------------------------------------------------------------------
# Two-level Gaussian downsample pyramid (stride-2 stencils).
# ----------------------------------------------------------------------


def _gaussian_level(image: Expr, step: int) -> Expr:
    f = fun(lambda w: dot(join(arr([[float(v) for v in row] for row in GAUSSIAN_KERNEL_2D])))(join(w)))
    return map2d(f, slide2d(3, step, image))


def downsample_pyramid(image: Expr) -> Expr:
    """Two-level Gaussian pyramid: ``[4n+3][4m+3]f32 -> [n][m]f32``.

    Each level is a 3x3 Gaussian sampled with stride 2 (blur +
    decimate fused into one strided stencil); the level-1 image is a
    ``let``-bound stage.  Strided windows type-check symbolically via
    the slide scheme ``[sp*n + sz - sp]t -> [n][sz]t``.
    """
    return let(
        _gaussian_level(image, 2),
        lambda level1: _gaussian_level(level1, 2),
        name="L1",
    )


def downsample_pyramid_input_type(n=None, m=None) -> DataType:
    """``[4n+3][4m+3]f32``: two stride-2 levels; level 1 is
    ``[2n+1][2m+1]`` and level 2 ``[n][m]``."""
    n = n if n is not None else nat("n")
    m = m if m is not None else nat("m")
    return array(4 * n + 3, array(4 * m + 3, f32))


def reference_downsample_pyramid(image: np.ndarray) -> np.ndarray:
    """NumPy gold: two rounds of 3x3 Gaussian + take-every-other."""
    level1 = reference.conv2d_valid(image, GAUSSIAN_KERNEL_2D)[::2, ::2]
    return reference.conv2d_valid(level1, GAUSSIAN_KERNEL_2D)[::2, ::2]
