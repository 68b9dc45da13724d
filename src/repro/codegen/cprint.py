"""C99 pretty-printer for imperative programs.

Emits portable C using GCC vector extensions for the SIMD operations
(the paper's backend emits OpenCL C with vector types; the structure —
strip loops, unaligned vector loads, shuffles, rotating registers — is
identical).  Parallel loops carry an OpenMP pragma, and scalar loops
whose iterations are provably independent carry ``#pragma omp simd``
(see :func:`simd_loop`).  Symbolic sizes become ``int`` parameters, so
one emitted kernel serves all image sizes.
"""

from __future__ import annotations

from repro.nat import Nat, NatCeilDiv, NatFloorDiv, NatMod, NatVar
from repro.codegen.ir import (
    AllocStmt,
    Assign,
    BinOp,
    Block,
    Broadcast,
    Comment,
    DeclScalar,
    DeclVec,
    FConst,
    For,
    IConst,
    IExpr,
    ImpFunction,
    ImpProgram,
    Load,
    LoopKind,
    NatE,
    ScalarKind,
    Stmt,
    Store,
    UnOp,
    VLane,
    VLoad,
    VPack,
    VShuffle,
    VStore,
    Var,
    walk_exprs,
    walk_stmts,
)
from repro.codegen.vectorize import affine_coefficient

__all__ = ["program_to_c", "function_to_c", "nat_to_c", "simd_loop"]

_PRELUDE = """#include <stdint.h>
#include <string.h>
#include <math.h>
#ifdef _OPENMP
#include <omp.h>
#endif

/* Thread control exported to the ctypes bridge: a no-op without OpenMP,
   so the same binary interface works for sequential fallback builds. */
void repro_set_threads(int n) {{
#ifdef _OPENMP
    if (n > 0) omp_set_num_threads(n);
#else
    (void)n;
#endif
}}

int repro_openmp_enabled(void) {{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}}

int repro_max_threads(void) {{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}}

"""

#: Per-width vector typedefs and helpers (GCC vector extensions).  One
#: block is emitted for every lane width the program actually uses, so
#: 4-wide and 8-wide kernels each get correctly-sized vector types —
#: printing an 8-lane value through a 4-lane type silently drops lanes.
_VECTOR_DEFS = """\
typedef float v{w}f __attribute__((vector_size({bytes})));
typedef float v{w}f_u __attribute__((vector_size({bytes}), aligned(4)));
typedef int v{w}i __attribute__((vector_size({bytes})));

static inline v{w}f v{w}f_splat(float x) {{ return (v{w}f){{{splat}}}; }}
static inline v{w}f v{w}f_load(const float *p) {{ return *(const v{w}f_u *)p; }}
static inline void v{w}f_store(float *p, v{w}f v) {{ *(v{w}f_u *)p = v; }}
static inline v{w}f v{w}f_min(v{w}f a, v{w}f b) {{
    v{w}f r;
    for (int _l = 0; _l < {w}; _l++) r[_l] = a[_l] < b[_l] ? a[_l] : b[_l];
    return r;
}}
static inline v{w}f v{w}f_max(v{w}f a, v{w}f b) {{
    v{w}f r;
    for (int _l = 0; _l < {w}; _l++) r[_l] = a[_l] > b[_l] ? a[_l] : b[_l];
    return r;
}}
"""


def _vector_defs(width: int) -> str:
    return _VECTOR_DEFS.format(
        w=width, bytes=4 * width, splat=", ".join(["x"] * width)
    )


def _vector_widths(prog: ImpProgram) -> list[int]:
    """Every vector lane width a program uses, ascending (4 always
    included so hand-inspected output keeps its familiar prelude)."""
    widths = {4}
    for fn in prog.functions:
        for s in walk_stmts(fn.body):
            if isinstance(s, DeclVec):
                widths.add(s.width)
            elif isinstance(s, VStore):
                widths.add(s.width)
        for e in walk_exprs(fn.body):
            if isinstance(e, (VLoad, Broadcast, VShuffle)):
                widths.add(e.width)
            elif isinstance(e, VPack):
                widths.add(len(e.lanes))
    return sorted(widths)


_VECTOR_EXPRS = (VLoad, Broadcast, VShuffle, VPack, VLane)


def simd_loop(loop: For) -> bool:
    """Whether the printer marks ``loop`` ``#pragma omp simd``.

    The pragma tells gcc the iterations are independent, so it vectorizes
    the loop whatever its cost model says.  A RISE ``map`` guarantees
    that independence; this syntactic check proves it again on the IR, so
    only loops where it holds are marked:

    * a sequential loop whose extent is symbolic and not a vector tail
      (``... % w``, fewer iterations than one vector);
    * a body of float scalar declarations and stores only — no inner
      loop, no assignment to an outer variable, no vector code;
    * every load index affine in the loop variable with coefficient 0
      or 1, and each written buffer stored at one index with
      coefficient 1;
    * no buffer both read and written in the loop.
    """
    # lowering folds a constant extent to an IConst
    if loop.kind is not LoopKind.SEQ or not isinstance(loop.extent, NatE):
        return False
    if _is_mod(loop.extent.value):
        return False
    stores: dict[str, IExpr] = {}
    for s in walk_stmts(loop.body):
        if isinstance(s, Store):
            if stores.setdefault(s.buffer, s.index) != s.index:
                return False
            if _coefficient(s.index, loop.var) != 1:
                return False
        elif isinstance(s, DeclScalar):
            if s.kind is not ScalarKind.F32:
                return False
        elif not isinstance(s, (Block, Comment)):
            return False
    reads: set[str] = set()
    for e in walk_exprs(loop.body):
        if isinstance(e, _VECTOR_EXPRS):
            return False
        if isinstance(e, Load):
            if _coefficient(e.index, loop.var) not in (0, 1):
                return False
            reads.add(e.buffer)
    return not reads & stores.keys()


def _coefficient(index: IExpr, var: str) -> int | None:
    affine = affine_coefficient(index, var)
    return None if affine is None else affine[0]


def _is_mod(n: Nat) -> bool:
    """Whether ``n`` is a bare ``a % b``, the extent of a vector tail."""
    if len(n.terms) != 1:
        return False
    monomial, coeff = n.terms[0]
    return coeff == 1 and len(monomial) == 1 and isinstance(monomial[0][0], NatMod)


def nat_to_c(n: Nat) -> str:
    """Render a symbolic size as a C integer expression."""
    if n.is_constant():
        return str(n.constant_value())
    parts: list[str] = []
    for monomial, coeff in n.terms:
        factors: list[str] = []
        if coeff != 1 or not monomial:
            factors.append(str(coeff))
        for atom, power in monomial:
            text = _atom_to_c(atom)
            factors.extend([text] * power)
        parts.append(" * ".join(factors))
    return "(" + " + ".join(parts) + ")"


def _atom_to_c(atom) -> str:
    if isinstance(atom, NatVar):
        return _c_ident(atom.name)
    if isinstance(atom, NatFloorDiv):
        return f"({nat_to_c(atom.num)} / {nat_to_c(atom.den)})"
    if isinstance(atom, NatCeilDiv):
        num, den = nat_to_c(atom.num), nat_to_c(atom.den)
        return f"(({num} + {den} - 1) / {den})"
    if isinstance(atom, NatMod):
        return f"({nat_to_c(atom.num)} % {nat_to_c(atom.den)})"
    raise TypeError(f"cannot render {atom!r} in C")


def _c_ident(name: str) -> str:
    return name.replace("_t", "szv_") if name.startswith("_t") else name


class _CPrinter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 1
        self.vector_vars: dict[str, int] = {}

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    # -- expressions ---------------------------------------------------

    def is_vector(self, e: IExpr) -> bool:
        if isinstance(e, (VLoad, Broadcast, VShuffle, VPack)):
            return True
        if isinstance(e, Var):
            return e.name in self.vector_vars
        if isinstance(e, BinOp):
            return self.is_vector(e.a) or self.is_vector(e.b)
        if isinstance(e, UnOp):
            return self.is_vector(e.a)
        return False

    def width_of(self, e: IExpr) -> int:
        """Lane width of a vector-valued expression."""
        if isinstance(e, (VLoad, Broadcast, VShuffle)):
            return e.width
        if isinstance(e, VPack):
            return len(e.lanes)
        if isinstance(e, Var):
            return self.vector_vars[e.name]
        if isinstance(e, BinOp):
            if self.is_vector(e.a):
                return self.width_of(e.a)
            return self.width_of(e.b)
        if isinstance(e, UnOp):
            return self.width_of(e.a)
        raise TypeError(f"{type(e).__name__} is not vector-valued")

    def expr(self, e: IExpr) -> str:
        if isinstance(e, IConst):
            return str(e.value)
        if isinstance(e, FConst):
            return f"{e.value!r}f"
        if isinstance(e, NatE):
            return nat_to_c(e.value)
        if isinstance(e, Var):
            return _c_ident(e.name)
        if isinstance(e, Load):
            return f"{e.buffer}[{self.expr(e.index)}]"
        if isinstance(e, VLoad):
            return f"v{e.width}f_load(&{e.buffer}[{self.expr(e.index)}])"
        if isinstance(e, Broadcast):
            return f"v{e.width}f_splat({self.expr(e.value)})"
        if isinstance(e, VShuffle):
            lanes = ", ".join(str(e.offset + k) for k in range(e.width))
            return (
                f"__builtin_shuffle({self.expr(e.a)}, {self.expr(e.b)},"
                f" (v{e.width}i){{{lanes}}})"
            )
        if isinstance(e, VPack):
            lanes = ", ".join(self.expr(l) for l in e.lanes)
            return f"((v{len(e.lanes)}f){{{lanes}}})"
        if isinstance(e, VLane):
            return f"({self.expr(e.vec)})[{self.expr(e.lane)}]"
        if isinstance(e, BinOp):
            vec = self.is_vector(e)
            a, b = self.expr(e.a), self.expr(e.b)
            if vec:
                w = self.width_of(e)
                if not self.is_vector(e.a):
                    a = f"v{w}f_splat({a})"
                if not self.is_vector(e.b):
                    b = f"v{w}f_splat({b})"
            symbol = {
                "add": "+",
                "sub": "-",
                "mul": "*",
                "div": "/",
                "mod": "%",
                "idiv": "/",
            }.get(e.op)
            if symbol is not None:
                return f"({a} {symbol} {b})"
            if e.op in ("min", "max"):
                fn = f"v{self.width_of(e)}f_{e.op}" if vec else f"f{e.op}f"
                return f"{fn}({a}, {b})"
            raise TypeError(f"unknown op {e.op}")
        if isinstance(e, UnOp):
            a = self.expr(e.a)
            if e.op == "neg":
                return f"(-{a})"
            if e.op == "abs":
                return f"fabsf({a})"
            if e.op == "sqrt":
                return f"sqrtf({a})"
        raise TypeError(f"cannot print {type(e).__name__}")

    # -- statements ------------------------------------------------------

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, Block):
            for sub in s.stmts:
                self.stmt(sub)
            return
        if isinstance(s, Comment):
            self.line(f"/* {s.text} */")
            return
        if isinstance(s, AllocStmt):
            size = nat_to_c(s.buffer.alloc_size())
            self.line(f"float {s.buffer.name}[{size}];")
            self.line(f"memset({s.buffer.name}, 0, sizeof(float) * {size});")
            return
        if isinstance(s, For):
            if s.kind is LoopKind.PARALLEL:
                # Static chunking matches the strip semantics of the
                # Python backend (contiguous row strips per thread), so
                # both backends partition work identically.
                self.line("#pragma omp parallel for schedule(static)")
            elif simd_loop(s):
                self.line("#pragma omp simd")
            extent = self.expr(s.extent)
            self.line(f"for (int {s.var} = 0; {s.var} < {extent}; {s.var}++) {{")
            self.indent += 1
            self.stmt(s.body)
            self.indent -= 1
            self.line("}")
            return
        if isinstance(s, DeclScalar):
            ctype = "float" if s.kind is ScalarKind.F32 else "int"
            init = f" = {self.expr(s.init)}" if s.init is not None else " = 0"
            self.line(f"{ctype} {_c_ident(s.var)}{init};")
            return
        if isinstance(s, DeclVec):
            self.vector_vars[s.var] = s.width
            init = (
                f" = {self._as_vector(s.init, s.width)}"
                if s.init is not None
                else f" = v{s.width}f_splat(0.0f)"
            )
            self.line(f"v{s.width}f {_c_ident(s.var)}{init};")
            return
        if isinstance(s, Assign):
            value = (
                self._as_vector(s.value, self.vector_vars[s.var])
                if s.var in self.vector_vars
                else self.expr(s.value)
            )
            self.line(f"{_c_ident(s.var)} = {value};")
            return
        if isinstance(s, Store):
            self.line(
                f"{s.buffer}[{self.expr(s.index)}] = {self.expr(s.value)};"
            )
            return
        if isinstance(s, VStore):
            self.line(
                f"v{s.width}f_store(&{s.buffer}[{self.expr(s.index)}],"
                f" {self._as_vector(s.value, s.width)});"
            )
            return
        raise TypeError(f"cannot print statement {type(s).__name__}")

    def _as_vector(self, e: IExpr, width: int) -> str:
        text = self.expr(e)
        if not self.is_vector(e):
            return f"v{width}f_splat({text})"
        return text


def _collect_size_vars(fn: ImpFunction) -> list[str]:
    names: set[str] = set(fn.size_vars)
    for e in walk_exprs(fn.body):
        if isinstance(e, NatE):
            names |= e.value.free_vars()
    for s in walk_stmts(fn.body):
        if isinstance(s, AllocStmt):
            names |= s.buffer.alloc_size().free_vars()
    for b in fn.inputs + [fn.output]:
        names |= b.alloc_size().free_vars()
    return sorted(names)


def function_to_c(fn: ImpFunction) -> str:
    printer = _CPrinter()
    size_params = ", ".join(f"int {_c_ident(v)}" for v in _collect_size_vars(fn))
    buf_params = ", ".join(
        [f"const float *restrict {b.name}" for b in fn.inputs]
        + [f"float *restrict {fn.output.name}"]
    )
    params = ", ".join(p for p in (size_params, buf_params) if p)
    printer.lines.append(f"void {fn.name}({params}) {{")
    printer.stmt(fn.body)
    printer.lines.append("}")
    return "\n".join(printer.lines)


def program_to_c(prog: ImpProgram) -> str:
    """The complete C translation unit for a compiled program.

    Opens one ``codegen.print`` span (``program=``, ``chars=``).
    """
    from repro.observe.core import active, span

    with span("codegen.print", program=prog.name) as print_span:
        parts = [_PRELUDE.format()]
        parts.extend(_vector_defs(w) for w in _vector_widths(prog))
        for fn in prog.functions:
            parts.append(function_to_c(fn))
        out = "\n\n".join(parts) + "\n"
        if active() is not None:
            print_span.meta["chars"] = len(out)
        return out
