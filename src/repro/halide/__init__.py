"""A mini-Halide: the paper's reference baseline compiler."""

from repro.halide.hir import Func, HVar, ImageParam
from repro.halide.lower import compile_halide, HalideLowerError
from repro.halide.harris import build_harris_funcs, build_harris_halide_program
