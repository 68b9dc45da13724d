"""Lowering mini-Halide pipelines to the imperative IR.

Implements the Halide lowering pipeline for the schedule class of paper
listing 4: bounds inference by interval propagation over constant-offset
accesses, loop nest construction (split + parallel outer loop), storage
folding for ``store_at`` producers (circular line buffers along y),
sliding-window computation inside the chunk (prologue + one new row per
producer per output row), ``compute_with`` loop fusion, inlining of
unscheduled functions, and x-vectorization via the shared expression
vectorizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.nat import Nat, nat
from repro.codegen.ir import (
    AllocStmt,
    Block,
    Buffer,
    BinOp,
    Comment,
    FConst,
    For,
    IConst,
    IExpr,
    ImpFunction,
    ImpProgram,
    Load,
    LoopKind,
    Store,
    Var,
    VStore,
)
from repro.codegen.opt import cse_program, fold_program
from repro.codegen.views import idx_add, idx_mod, idx_mul, nat_expr
from repro.codegen.vectorize import VectorizeError, vectorize_stmts
from repro.halide.hir import Func, FuncRef, HBin, HConst, HExpr, HVar, ImageParam, ImageRef

__all__ = ["compile_halide", "HalideLowerError"]

_PAD = 8


class HalideLowerError(Exception):
    pass


@dataclass
class _Range:
    dx_min: int = 0
    dx_max: int = 0
    dy_min: int = 0
    dy_max: int = 0

    def union(self, other: "_Range") -> "_Range":
        return _Range(
            min(self.dx_min, other.dx_min),
            max(self.dx_max, other.dx_max),
            min(self.dy_min, other.dy_min),
            max(self.dy_max, other.dy_max),
        )

    def shifted(self, dx: int, dy: int) -> "_Range":
        return _Range(
            self.dx_min + dx, self.dx_max + dx, self.dy_min + dy, self.dy_max + dy
        )

    @property
    def fold(self) -> int:
        return self.dy_max - self.dy_min + 1

    def width(self, m: Nat) -> Nat:
        return m + (self.dx_max - self.dx_min)


def _func_refs(expr: HExpr):
    if isinstance(expr, FuncRef):
        yield expr
    elif isinstance(expr, HBin):
        yield from _func_refs(expr.a)
        yield from _func_refs(expr.b)


def _image_refs(expr: HExpr):
    if isinstance(expr, ImageRef):
        yield expr
    elif isinstance(expr, HBin):
        yield from _image_refs(expr.a)
        yield from _image_refs(expr.b)


def _infer_bounds(output: Func) -> dict[Func, _Range]:
    """Transitive access ranges of every scheduled func relative to one
    output pixel, flowing through inline functions."""
    ranges: dict[Func, _Range] = {output: _Range()}

    def walk(expr: HExpr, base: _Range) -> None:
        for ref in _func_refs(expr):
            shifted = base.shifted(ref.dx, ref.dy)
            target = ref.func
            if target.is_scheduled:
                previous = ranges.get(target)
                merged = shifted if previous is None else previous.union(shifted)
                if previous is None or merged != previous:
                    ranges[target] = merged
            else:
                if target.expr is None:
                    raise HalideLowerError(f"{target.name} used but not defined")
                walk(target.expr, shifted)

    # Fixpoint: ranges only grow; iterate until stable.
    for _ in range(64):
        before = {f: (r.dx_min, r.dx_max, r.dy_min, r.dy_max) for f, r in ranges.items()}
        for func in list(ranges):
            if func.expr is None:
                raise HalideLowerError(f"{func.name} is scheduled but not defined")
            walk(func.expr, ranges[func])
        after = {f: (r.dx_min, r.dx_max, r.dy_min, r.dy_max) for f, r in ranges.items()}
        if before == after:
            break
    else:
        raise HalideLowerError("bounds inference did not converge")
    return ranges


def _topo_producers(output: Func, ranges: dict[Func, _Range]) -> list[Func]:
    """Scheduled producers in computation order (dependencies first)."""
    order: list[Func] = []
    seen: set[Func] = set()

    def deps_of(func: Func) -> list[Func]:
        found: list[Func] = []

        def walk(expr: HExpr) -> None:
            for ref in _func_refs(expr):
                if ref.func.is_scheduled:
                    if ref.func not in found:
                        found.append(ref.func)
                elif ref.func.expr is not None:
                    walk(ref.func.expr)

        if func.expr is not None:
            walk(func.expr)
        return found

    def visit(func: Func) -> None:
        if func in seen:
            return
        seen.add(func)
        for dep in deps_of(func):
            visit(dep)
        if func is not output:
            order.append(func)

    visit(output)
    return order


class _Gen:
    def __init__(self, inputs: dict[str, tuple[ImageParam, Nat, Nat]], m: Nat):
        self.inputs = inputs
        self.m = m
        self.stmts_stack: list[list] = [[]]
        self.counter = 0
        self.storages: dict[Func, tuple[str, Nat, _Range]] = {}
        self.buffers: list[Buffer] = []

    def emit(self, s) -> None:
        self.stmts_stack[-1].append(s)

    def push(self) -> None:
        self.stmts_stack.append([])

    def pop(self) -> Block:
        return Block(self.stmts_stack.pop())

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- expression evaluation -------------------------------------------

    def eval_expr(self, expr: HExpr, x: IExpr, y: IExpr, ranges) -> IExpr:
        if isinstance(expr, HConst):
            return FConst(expr.value)
        if isinstance(expr, HBin):
            return BinOp(
                expr.op,
                self.eval_expr(expr.a, x, y, ranges),
                self.eval_expr(expr.b, x, y, ranges),
            )
        if isinstance(expr, ImageRef):
            image, rows, cols = self.inputs[expr.image.name]
            index = idx_add(
                idx_add(
                    idx_mul(IConst(expr.image.channels and expr.channel), nat_expr(rows * cols)),
                    idx_mul(idx_add(y, IConst(expr.dy)), nat_expr(cols)),
                ),
                idx_add(x, IConst(expr.dx)),
            )
            return Load(expr.image.name, index)
        if isinstance(expr, FuncRef):
            func = expr.func
            if func.is_scheduled:
                buf, width, rng = self.storages[func]
                row = idx_mod(idx_add(y, IConst(expr.dy)), IConst(rng.fold))
                col = idx_add(x, IConst(expr.dx - rng.dx_min))
                index = idx_add(idx_mul(row, nat_expr(width + _PAD)), col)
                return Load(buf, index)
            if func.expr is None:
                raise HalideLowerError(f"{func.name} used but not defined")
            return self.eval_expr(
                func.expr,
                idx_add(x, IConst(expr.dx)),
                idx_add(y, IConst(expr.dy)),
                ranges,
            )
        raise HalideLowerError(f"cannot evaluate {expr!r}")

    # -- row computation ----------------------------------------------------

    def compute_row(
        self, group: list[Func], row_expr: IExpr, ranges, vec_width
    ) -> None:
        """Emit the x-loop computing one row of each func in the group
        (compute_with fusion computes several funcs in one loop)."""
        leader = group[0]
        rng = ranges[leader]
        width = rng.width(self.m)
        xi = self.fresh("hx")

        def store_of(func: Func, x_index: IExpr, value: IExpr):
            buf, w, r = self.storages[func]
            row = idx_mod(row_expr, IConst(r.fold))
            return Store(buf, idx_add(idx_mul(row, nat_expr(w + _PAD)), x_index), value)

        # scalar element expressions at symbolic xi (storage x' = xi; the
        # evaluation coordinate is x = xi + dx_min)
        values = []
        for func in group:
            x_eval = idx_add(Var(xi), IConst(rng.dx_min))
            values.append(self.eval_expr(func.expr, x_eval, row_expr, ranges))

        if vec_width:
            try:
                strip = self.fresh("hv")
                base = idx_mul(Var(strip), IConst(vec_width))
                _, vec_values = vectorize_stmts(
                    [], values, xi, base, vec_width, lambda rest: False
                )
                self.push()
                for func, value in zip(group, vec_values):
                    buf, w, r = self.storages[func]
                    row = idx_mod(row_expr, IConst(r.fold))
                    index = idx_add(idx_mul(row, nat_expr(w + _PAD)), base)
                    self.emit(VStore(buf, index, value, vec_width, aligned=False))
                body = self.pop()
                strips = width // nat(vec_width)
                self.emit(For(strip, nat_expr(strips), body, LoopKind.VEC))
                tail = width % nat(vec_width)
                tvar = self.fresh("ht")
                self.push()
                tail_x = idx_add(idx_mul(nat_expr(strips), IConst(vec_width)), Var(tvar))
                for func in group:
                    x_eval = idx_add(tail_x, IConst(rng.dx_min))
                    self.emit(
                        store_of(func, tail_x, self.eval_expr(func.expr, x_eval, row_expr, ranges))
                    )
                tail_body = self.pop()
                self.emit(For(tvar, nat_expr(tail), tail_body, LoopKind.SEQ))
                return
            except VectorizeError:
                pass
        loop = self.fresh("hxl")
        self.push()
        for func in group:
            x_eval = idx_add(Var(loop), IConst(rng.dx_min))
            self.emit(
                store_of(func, Var(loop), self.eval_expr(func.expr, x_eval, row_expr, ranges))
            )
        body = self.pop()
        self.emit(For(loop, nat_expr(width), body, LoopKind.SEQ))


def compile_halide(
    output: Func,
    inputs: Mapping[str, tuple[ImageParam, Nat, Nat]],
    n: Nat,
    m: Nat,
    name: str = "halide",
) -> ImpProgram:
    """Lower a scheduled pipeline to a single-kernel imperative program.

    ``inputs`` maps image names to (param, rows, cols).  ``n``/``m`` are
    the (symbolic) output sizes.  Opens one ``codegen.lower`` span
    (``program=name``) over the ``codegen.emit`` / ``codegen.fold`` /
    ``codegen.cse`` phases.
    """
    from repro.observe.core import span

    with span("codegen.lower", program=name):
        with span("codegen.emit"):
            prog = _lower_halide(output, inputs, n, m, name)
        return cse_program(fold_program(prog))


def _lower_halide(
    output: Func,
    inputs: Mapping[str, tuple[ImageParam, Nat, Nat]],
    n: Nat,
    m: Nat,
    name: str,
) -> ImpProgram:
    ranges = _infer_bounds(output)
    producers = _topo_producers(output, ranges)
    gen = _Gen(dict(inputs), m)

    split = output.schedule.split_factor or 1
    vec = output.schedule.vectorize_width

    # Group compute_with followers under their leaders.
    groups: list[list[Func]] = []
    followers: dict[Func, list[Func]] = {}
    for func in producers:
        sibling = func.schedule.compute_with
        if sibling is not None:
            followers.setdefault(sibling, []).append(func)
    for func in producers:
        if func.schedule.compute_with is not None:
            continue
        groups.append([func] + followers.get(func, []))

    # Chunked loop nest: yo parallel over n/split, yi sequential.
    chunk_count = n // nat(split)
    yo = "yo"
    gen.push()

    # Per-chunk storage allocation (each thread owns its line buffers).
    for func in producers:
        rng = ranges[func]
        width = rng.width(m)
        buf = gen.fresh(f"{func.name}_buf")
        size = (width + _PAD) * rng.fold
        buffer = Buffer(buf, size, pad=_PAD)
        gen.buffers.append(buffer)
        gen.emit(AllocStmt(buffer))
        gen.storages[func] = (buf, width, rng)

    y_base = idx_mul(Var(yo), IConst(split))

    # Prologue: rows [dy_min, dy_max) of each producer for the first output
    # row of the chunk.
    gen.emit(Comment("sliding-window prologue"))
    for group in groups:
        rng = ranges[group[0]]
        for r in range(rng.dy_min, rng.dy_max):
            gen.compute_row(
                group,
                idx_add(y_base, IConst(r)),
                ranges,
                group[0].schedule.vectorize_width,
            )

    # Steady state: one new row per producer per output row.
    yi = "yi"
    gen.push()
    y = idx_add(y_base, Var(yi))
    for group in groups:
        rng = ranges[group[0]]
        gen.compute_row(
            group,
            idx_add(y, IConst(rng.dy_max)),
            ranges,
            group[0].schedule.vectorize_width,
        )
    # Output row.
    xi = gen.fresh("ox")
    out_value = gen.eval_expr(output.expr, Var(xi), y, ranges)
    emitted = False
    if vec:
        try:
            strip = gen.fresh("ov")
            base = idx_mul(Var(strip), IConst(vec))
            _, [vec_value] = vectorize_stmts([], [out_value], xi, base, vec, lambda rest: False)
            gen.push()
            out_index = idx_add(idx_mul(y, nat_expr(m)), base)
            gen.emit(VStore("out", out_index, vec_value, vec, aligned=False))
            body = gen.pop()
            gen.emit(For(strip, nat_expr(m // nat(vec)), body, LoopKind.VEC))
            tail = m % nat(vec)
            tvar = gen.fresh("ot")
            gen.push()
            tail_x = idx_add(idx_mul(nat_expr(m // nat(vec)), IConst(vec)), Var(tvar))
            tail_value = gen.eval_expr(output.expr, tail_x, y, ranges)
            gen.emit(Store("out", idx_add(idx_mul(y, nat_expr(m)), tail_x), tail_value))
            tail_body = gen.pop()
            gen.emit(For(tvar, nat_expr(tail), tail_body, LoopKind.SEQ))
            emitted = True
        except VectorizeError:
            emitted = False
    if not emitted:
        xl = gen.fresh("oxl")
        gen.push()
        value = gen.eval_expr(output.expr, Var(xl), y, ranges)
        gen.emit(Store("out", idx_add(idx_mul(y, nat_expr(m)), Var(xl)), value))
        body = gen.pop()
        gen.emit(For(xl, nat_expr(m), body, LoopKind.SEQ))

    yi_body = gen.pop()
    gen.emit(For(yi, IConst(split), yi_body, LoopKind.SEQ))
    chunk_body = gen.pop()
    kind = LoopKind.PARALLEL if output.schedule.parallel_outer else LoopKind.SEQ
    top = For(yo, nat_expr(chunk_count), chunk_body, kind)

    input_buffers = [
        Buffer(iname, nat(param.channels) * rows * cols)
        for iname, (param, rows, cols) in inputs.items()
    ]
    out_buffer = Buffer("out", n * m)
    fn = ImpFunction(
        name=name,
        inputs=input_buffers,
        output=out_buffer,
        size_vars=sorted((n * m).free_vars()),
        body=Block([top]),
        temporaries=gen.buffers,
    )
    prog = ImpProgram(name=name, functions=[fn], size_vars=sorted((n * m).free_vars()))
    return prog
