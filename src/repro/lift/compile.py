"""Per-operator compilation of Let-structured RISE pipelines (LIFT style)."""

from __future__ import annotations

from typing import Mapping

from repro.elevate.core import apply_once, normalize, try_
from repro.nat import nat
from repro.rise.expr import Expr, Identifier, Let
from repro.rise.typecheck import infer_types
from repro.rise.types import DataType, Type
from repro.rules.lowering import use_map_global, use_map_seq, use_reduce_seq, use_reduce_seq_unroll
from repro.codegen.ir import ImpProgram
from repro.codegen.lower import compile_program
from repro.strategies.harris import simplify, vectorize_reductions

__all__ = [
    "compile_pipeline_per_operator",
    "build_harris_lift_program",
]


def compile_pipeline_per_operator(
    program: Expr,
    type_env: Mapping[str, Type],
    name: str = "lift",
    vec: int = 4,
) -> ImpProgram:
    """Compile each ``def`` of a Let-structured pipeline as its own kernel.

    Per-operator schedule (what LIFT's stencil work [7] provides): the
    outer map runs across global threads, line loops are vectorized, the
    rest is sequential; the operator's result is materialized in global
    memory and later kernels read it as an input.
    """
    bindings: list[tuple[str, Expr]] = []
    env = dict(type_env)
    body = program
    while isinstance(body, Let):
        bindings.append((body.ident.name, body.value))
        body = body.body
    bindings.append(("out_final", body))

    functions = []
    known_types: dict[str, Type] = dict(type_env)
    produced_names: list[str] = []
    for index, (bind_name, value) in enumerate(bindings):
        kernel_env = {
            n: t for n, t in known_types.items()
            if n in _free_ids(value)
        }
        lowered = _lift_operator_schedule(value, kernel_env, vec)
        # The kernel is named after its binding: the runner publishes every
        # kernel's result under its function name, which is how later
        # kernels' input buffers (named after the bindings they read) find
        # the materialized intermediates.
        prog = compile_program(lowered, kernel_env, bind_name)
        fn = prog.functions[0]
        functions.append(fn)
        typing = infer_types(value, kernel_env, strict=False)
        known_types[bind_name] = typing.root_type
        produced_names.append(bind_name)

    out = ImpProgram(
        name=name,
        functions=functions,
        size_vars=sorted(
            {v for t in type_env.values() for v in t.free_nat_vars()}
        ),
        launch_overheads=len(functions),
    )
    return out


def _free_ids(expr: Expr) -> frozenset[str]:
    from repro.rise.traverse import free_identifiers

    return free_identifiers(expr)


def _lift_operator_schedule(value: Expr, type_env, vec: int) -> Expr:
    """parallel outer map + vectorized lines + sequential rest."""
    lowered = simplify.apply(value)
    lowered = try_(apply_once(use_map_global)).apply(lowered)
    lowered = try_(vectorize_reductions(vec, type_env)).apply(lowered)
    lowered = try_(normalize(use_map_seq | use_reduce_seq)).apply(lowered)
    lowered = try_(normalize(use_reduce_seq_unroll)).apply(lowered)
    return lowered


def build_harris_lift_program(chunk: int = 32, vec: int = 4) -> ImpProgram:
    """The Harris pipeline compiled LIFT-style (multi-kernel).

    The ``"lift"`` schedule of the registry's ``harris`` spec.  One
    kernel per operator does not tile rows, so ``chunk`` is unused.
    """
    from repro.pipelines import harris, harris_input_type

    rgb = Identifier("rgb")
    return compile_pipeline_per_operator(
        harris(rgb), {"rgb": harris_input_type()}, name="lift_harris", vec=vec
    )
