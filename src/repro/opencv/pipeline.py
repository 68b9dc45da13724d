"""The OpenCV library baseline: the Harris pipeline as a sequence of
whole-image library calls.

Why a highly-optimized library loses to whole-program compilers (paper
section V-B): no fusion across calls — every call reads and writes a
full-size image through memory — plus the structural costs of a *generic*
library that the modeled calls reproduce:

* interleaved (AoS) channel layouts for multi-channel data (the input
  image and the 3-channel structure-tensor buffer), which defeat
  vectorization of channel-generic loops;
* generic scalar inner loops for the channel-generic operations
  (``cvtColor`` over interleaved RGB, the per-pixel Harris response),
  NEON-vectorized loops for the regular single-channel filters;
* single-threaded execution — the default OpenCV build on the paper's
  boards (no TBB/pthreads parallel backend), which the magnitude of the
  paper's reported gaps (up to 16x) corroborates;
* a dispatch overhead per library call.

Each call is built directly as an imperative kernel, so it runs and is
costed by exactly the same machinery as the compiled pipelines.
"""

from __future__ import annotations


from repro.nat import Nat, nat
from repro.codegen.ir import (
    Block,
    Buffer,
    BinOp,
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
    VLoad,
    VStore,
    Broadcast,
)
from repro.codegen.opt import cse_program, fold_program
from repro.codegen.views import idx_add, idx_mul, nat_expr
from repro.image.reference import GRAY_WEIGHTS, HARRIS_KAPPA, SOBEL_X, SOBEL_Y

__all__ = ["build_harris_opencv_program"]


def _for(var: str, extent, body, kind=LoopKind.SEQ) -> For:
    return For(var, nat_expr(extent) if isinstance(extent, Nat) else extent, body, kind)


def _fn(name: str, inputs, output, body) -> ImpFunction:
    size_vars = sorted(
        {v for b in inputs + [output] for v in b.alloc_size().free_vars()}
    )
    return ImpFunction(name, inputs, output, size_vars, Block(body))


def _idx2(y: IExpr, x: IExpr, width: Nat) -> IExpr:
    return idx_add(idx_mul(y, nat_expr(width)), x)


def build_harris_opencv_program(chunk: int = 32, vec: int = 4) -> ImpProgram:
    """cvtColor -> Sobel x2 -> cov (AoS) -> boxFilter(3ch) -> response.

    The ``"opencv"`` schedule of the registry's ``harris`` spec.  The
    library calls do not tile rows, so ``chunk`` is unused.
    """
    n, m = nat("n"), nat("m")
    rows, cols = n + 4, m + 4  # gray size
    srows, scols = n + 2, m + 2  # sobel output size

    functions: list[ImpFunction] = []

    # 1. cvtColor: interleaved RGB (HWC) -> gray.  Channel-interleaved
    # loads defeat vectorization: generic scalar loop.
    y, x = Var("y"), Var("x")
    base = idx_mul(_idx2(y, x, cols), IConst(3))
    gray_val = FConst(0.0)
    for c, w in enumerate(GRAY_WEIGHTS):
        gray_val = BinOp(
            "add",
            gray_val,
            BinOp("mul", FConst(float(w)), Load("rgb_hwc", idx_add(base, IConst(c)))),
        )
    body = _for(
        "y",
        rows,
        Block([_for("x", cols, Block([Store("gray", _idx2(y, x, cols), gray_val)]))]),
    )
    functions.append(
        _fn(
            "cv_cvtColor",
            [Buffer("rgb_hwc", nat(3) * rows * cols)],
            Buffer("gray", rows * cols),
            [body],
        )
    )

    # 1b. copyMakeBorder(gray): OpenCV filters pad their input explicitly;
    # a full-image copy pass (interior only — the border writes are O(rows)).
    yv, xv = Var("y"), Var("x")
    body = _for(
        "y",
        rows,
        Block(
            [
                _for(
                    "x",
                    cols,
                    Block(
                        [
                            Store(
                                "gray_b",
                                _idx2(yv, xv, cols),
                                Load("gray", _idx2(yv, xv, cols)),
                            )
                        ]
                    ),
                )
            ]
        ),
    )
    functions.append(
        _fn(
            "cv_makeBorder_gray",
            [Buffer("gray", rows * cols)],
            Buffer("gray_b", rows * cols),
            [body],
        )
    )

    # 2+3. Sobel dx / dy: single-channel 3x3 filters, NEON-vectorized.
    def sobel_kernel(name: str, weights) -> ImpFunction:
        yv, sv = Var("y"), Var("s")
        xbase = idx_mul(sv, IConst(vec))
        acc: IExpr = Broadcast(FConst(0.0), vec)
        for dy in range(3):
            for dx in range(3):
                w = float(weights[dy][dx])
                if w == 0.0:
                    continue
                load = VLoad(
                    "gray_b",
                    idx_add(_idx2(idx_add(yv, IConst(dy)), xbase, cols), IConst(dx)),
                    vec,
                    aligned=False,
                )
                acc = BinOp("add", acc, BinOp("mul", Broadcast(FConst(w), vec), load))
        strips = scols // nat(vec)
        inner = Block([VStore(name + "_out", _idx2(yv, xbase, scols), acc, vec)])
        # scalar tail
        tv = Var("t")
        tail_x = idx_add(idx_mul(nat_expr(strips), IConst(vec)), tv)
        tacc: IExpr = FConst(0.0)
        for dy in range(3):
            for dx in range(3):
                w = float(weights[dy][dx])
                if w == 0.0:
                    continue
                tacc = BinOp(
                    "add",
                    tacc,
                    BinOp(
                        "mul",
                        FConst(w),
                        Load("gray_b", idx_add(_idx2(idx_add(yv, IConst(dy)), tail_x, cols), IConst(dx))),
                    ),
                )
        body = _for(
            "y",
            srows,
            Block(
                [
                    For("s", nat_expr(strips), inner, LoopKind.VEC),
                    For("t", nat_expr(scols % nat(vec)), Block([Store(name + "_out", _idx2(yv, tail_x, scols), tacc)]), LoopKind.SEQ),
                ]
            ),
        )
        return _fn(
            name,
            [Buffer("gray_b", rows * cols)],
            Buffer(name + "_out", srows * scols),
            [body],
        )

    ix_fn = sobel_kernel("cv_sobel_dx", SOBEL_X)
    iy_fn = sobel_kernel("cv_sobel_dy", SOBEL_Y)
    functions += [ix_fn, iy_fn]

    # 4. cov: per-pixel 3-channel structure tensor, interleaved (AoS) —
    # the layout cornerEigenValsVecs uses; scalar stores at stride 3.
    yv, xv = Var("y"), Var("x")
    ix = Load("cv_sobel_dx_out", _idx2(yv, xv, scols))
    iyl = Load("cv_sobel_dy_out", _idx2(yv, xv, scols))
    cov_base = idx_mul(_idx2(yv, xv, scols), IConst(3))
    body = _for(
        "y",
        srows,
        Block(
            [
                _for(
                    "x",
                    scols,
                    Block(
                        [
                            Store("cov", cov_base, BinOp("mul", ix, ix)),
                            Store("cov", idx_add(cov_base, IConst(1)), BinOp("mul", ix, iyl)),
                            Store("cov", idx_add(cov_base, IConst(2)), BinOp("mul", iyl, iyl)),
                        ]
                    ),
                )
            ]
        ),
    )
    functions.append(
        _fn(
            "cv_cov",
            [
                Buffer("cv_sobel_dx_out", srows * scols),
                Buffer("cv_sobel_dy_out", srows * scols),
            ],
            Buffer("cov", nat(3) * srows * scols),
            [body],
        )
    )

    # 4b. copyMakeBorder(cov): 3-channel padded copy before boxFilter.
    yv, xv = Var("y"), Var("x")
    cbase = idx_mul(_idx2(yv, xv, scols), IConst(3))
    body = _for(
        "y",
        srows,
        Block(
            [
                _for(
                    "x",
                    scols,
                    Block(
                        [
                            Store("cov_b", cbase, Load("cov", cbase)),
                            Store("cov_b", idx_add(cbase, IConst(1)), Load("cov", idx_add(cbase, IConst(1)))),
                            Store("cov_b", idx_add(cbase, IConst(2)), Load("cov", idx_add(cbase, IConst(2)))),
                        ]
                    ),
                )
            ]
        ),
    )
    functions.append(
        _fn(
            "cv_makeBorder_cov",
            [Buffer("cov", nat(3) * srows * scols)],
            Buffer("cov_b", nat(3) * srows * scols),
            [body],
        )
    )

    # 5. boxFilter on the 3-channel interleaved cov: stride-3 accesses,
    # generic scalar loop over channels.
    yv, xv, cv = Var("y"), Var("x"), Var("c")
    acc: IExpr = FConst(0.0)
    for dy in range(3):
        for dx in range(3):
            acc = BinOp(
                "add",
                acc,
                Load(
                    "cov_b",
                    idx_add(
                        idx_mul(
                            _idx2(idx_add(yv, IConst(dy)), idx_add(xv, IConst(dx)), scols),
                            IConst(3),
                        ),
                        cv,
                    ),
                ),
            )
    body = _for(
        "y",
        n,
        Block(
            [
                _for(
                    "x",
                    m,
                    Block(
                        [
                            _for(
                                "c",
                                nat(3),
                                Block(
                                    [
                                        Store(
                                            "scov",
                                            idx_add(idx_mul(_idx2(yv, xv, m), IConst(3)), cv),
                                            acc,
                                        )
                                    ]
                                ),
                                LoopKind.UNROLLED,
                            )
                        ]
                    ),
                )
            ]
        ),
    )
    functions.append(
        _fn(
            "cv_boxFilter",
            [Buffer("cov_b", nat(3) * srows * scols)],
            Buffer("scov", nat(3) * n * m),
            [body],
        )
    )

    # 6. Harris response: det - k trace^2 from interleaved sums (scalar).
    yv, xv = Var("y"), Var("x")
    sbase = idx_mul(_idx2(yv, xv, m), IConst(3))
    sxx = Load("scov", sbase)
    sxy = Load("scov", idx_add(sbase, IConst(1)))
    syy = Load("scov", idx_add(sbase, IConst(2)))
    det = BinOp("sub", BinOp("mul", sxx, syy), BinOp("mul", sxy, sxy))
    trace = BinOp("add", sxx, syy)
    response = BinOp(
        "sub", det, BinOp("mul", BinOp("mul", FConst(float(HARRIS_KAPPA)), trace), trace)
    )
    body = _for(
        "y",
        n,
        Block([_for("x", m, Block([Store("out", _idx2(yv, xv, m), response)]))]),
    )
    functions.append(
        _fn(
            "cv_cornerResponse",
            [Buffer("scov", nat(3) * n * m)],
            Buffer("out", n * m),
            [body],
        )
    )

    prog = ImpProgram(
        name="opencv_harris",
        functions=functions,
        size_vars=["m", "n"],
        launch_overheads=len(functions),
    )
    prog.size_constraints = []
    prog.vector_fallbacks = []
    from repro.observe.core import span

    with span("codegen.lower", program=prog.name):
        return cse_program(fold_program(prog))
