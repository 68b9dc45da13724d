"""Tests for the IR optimization passes: constant folding and block CSE."""

import random

from repro.codegen.ir import (
    Assign,
    BinOp,
    Block,
    Broadcast,
    Buffer,
    DeclScalar,
    DeclVec,
    FConst,
    For,
    IConst,
    IExpr,
    ImpFunction,
    ImpProgram,
    Load,
    NatE,
    Store,
    UnOp,
    Var,
    VLane,
    VLoad,
    VPack,
    VShuffle,
    VStore,
    walk_stmts,
)
from repro.codegen.opt import (
    _CseState,
    _is_vector_expr,
    _rebuild_expr,
    _vector_width,
    cse_program,
    fold_expr,
    fold_program,
)
from repro.nat import nat


class TestFoldExpr:
    def test_mul_zero(self):
        assert fold_expr(BinOp("mul", FConst(0.0), Var("x"))) == FConst(0.0)

    def test_mul_one(self):
        assert fold_expr(BinOp("mul", FConst(1.0), Var("x"))) == Var("x")

    def test_mul_minus_one_becomes_neg(self):
        e = fold_expr(BinOp("mul", FConst(-1.0), Var("x")))
        assert e == UnOp("neg", Var("x"))

    def test_add_zero(self):
        assert fold_expr(BinOp("add", FConst(0.0), Var("x"))) == Var("x")

    def test_add_neg_becomes_sub(self):
        e = fold_expr(BinOp("add", Var("a"), UnOp("neg", Var("b"))))
        assert e == BinOp("sub", Var("a"), Var("b"))

    def test_const_folding_is_float32(self):
        e = fold_expr(BinOp("mul", FConst(0.1), FConst(3.0)))
        assert isinstance(e, FConst)
        import numpy as np

        assert e.value == float(np.float32(0.1) * np.float32(3.0))

    def test_double_negation(self):
        e = fold_expr(UnOp("neg", UnOp("neg", Var("x"))))
        assert e == Var("x")

    def test_nested_folding(self):
        # (0 * x) + (1 * y)  ->  y
        e = BinOp("add", BinOp("mul", FConst(0.0), Var("x")), BinOp("mul", FConst(1.0), Var("y")))
        assert fold_expr(e) == Var("y")


def _program(stmts):
    fn = ImpFunction("k", [Buffer("inp", nat(16), 8)], Buffer("out", nat(16), 8), [], Block(stmts))
    return ImpProgram("k", [fn], [])


class TestCseProgram:
    def test_shared_subexpression_extracted(self):
        heavy = BinOp("mul", Load("inp", Var("i")), Load("inp", Var("i")))
        stmts = [
            Store("out", IConst(0), BinOp("add", heavy, FConst(1.0))),
            Store("out", IConst(1), BinOp("add", heavy, FConst(2.0))),
        ]
        out = cse_program(_program(stmts))
        decls = [s for s in walk_stmts(out.functions[0].body) if isinstance(s, DeclScalar)]
        assert len(decls) >= 1

    def test_store_barrier_respected(self):
        # a load from 'out' after a store to 'out' must not be CSE'd across it
        load_out = Load("out", IConst(0))
        stmts = [
            Store("out", IConst(0), load_out),
            Store("out", IConst(1), load_out),
        ]
        out = cse_program(_program(stmts))
        stores = [s for s in walk_stmts(out.functions[0].body) if isinstance(s, Store)]
        assert all(isinstance(s.value, Load) for s in stores)

    def test_index_expressions_untouched(self):
        idx = BinOp("add", Var("i"), IConst(3))
        stmts = [
            Store("out", idx, Load("inp", idx)),
            Store("out", BinOp("add", idx, IConst(1)), Load("inp", idx)),
        ]
        out = cse_program(_program(stmts))
        # indices remain structural (no float temporaries for ints)
        for s in walk_stmts(out.functions[0].body):
            if isinstance(s, Store):
                assert not isinstance(s.index, Var) or s.index == Var("i")

    def test_loops_are_boundaries(self):
        heavy = BinOp("mul", Load("inp", IConst(0)), Load("inp", IConst(0)))
        stmts = [
            Store("out", IConst(0), heavy),
            For("i", IConst(4), Block([Store("out", Var("i"), heavy)])),
        ]
        out = cse_program(_program(stmts))
        # each region CSEs independently; program still well formed
        assert any(isinstance(s, For) for s in walk_stmts(out.functions[0].body))


def _size(e):
    return 1 + sum(_size(c) for c in e.children())


def _value_of(s):
    return s.init if isinstance(s, (DeclScalar, DeclVec)) else s.value


def _reference_cse(stmts):
    """Block CSE keyed on structural equality of whole expressions — what
    ``cse_program`` must agree with, at O(subtree) per dictionary lookup
    and per size / loaded-buffer query."""
    state = _CseState()
    stored = {s.buffer for s in stmts if isinstance(s, (Store, VStore))}

    def loads(e):
        own = {e.buffer} if isinstance(e, (Load, VLoad)) else set()
        return own.union(*(loads(c) for c in e.children()))

    counts = {}

    def count(e):
        if isinstance(e, (Var, IConst, FConst)):
            return
        counts[e] = counts.get(e, 0) + 1
        if not isinstance(e, (Load, VLoad, VLane)):
            for c in e.children():
                count(c)

    for s in stmts:
        count(_value_of(s))

    table = {}
    out = []

    def rewrite(e):
        if isinstance(e, (Var, IConst, FConst)):
            return e
        if e in table:
            return Var(table[e])
        if isinstance(e, (Load, VLoad, VLane)):
            rebuilt = e
        else:
            rebuilt = _rebuild_expr(e, [rewrite(c) for c in e.children()])
        if (
            counts[e] >= 2
            and _size(e) >= 2
            and not isinstance(e, Broadcast)
            and not (loads(e) & stored)
        ):
            name = state.fresh()
            if _is_vector_expr(rebuilt, state.vector_vars):
                width = _vector_width(rebuilt, state.vector_vars)
                state.vector_vars[name] = width
                out.append(DeclVec(name, width, rebuilt))
            else:
                out.append(DeclScalar(name, rebuilt))
            table[e] = name
            return Var(name)
        return rebuilt

    for s in stmts:
        if isinstance(s, Store):
            out.append(Store(s.buffer, s.index, rewrite(s.value)))
        elif isinstance(s, VStore):
            out.append(VStore(s.buffer, s.index, rewrite(s.value), s.width, s.aligned))
        elif isinstance(s, Assign):
            out.append(Assign(s.var, rewrite(s.value)))
        elif isinstance(s, DeclScalar):
            out.append(DeclScalar(s.var, rewrite(s.init), s.kind))
        else:
            state.vector_vars[s.var] = s.width
            out.append(DeclVec(s.var, s.width, rewrite(s.init)))
    return out


def _tree_nodes(stmts):
    return sum(_size(_value_of(s)) for s in stmts)


def _deep_segment():
    """Eight stores of a 60-tap left-deep sum: taps repeat across rows as
    equal but distinct objects, each row's sum occurs three times as the
    same object, and some taps read the buffer the segment writes."""

    def tap(k):
        source = "out" if k % 17 == 0 else "inp"
        return BinOp("mul", Load(source, BinOp("add", Var("i"), IConst(k))), FConst(0.5 + k))

    stmts = []
    for row in range(8):
        acc = tap(row)
        for k in range(1, 60):
            acc = BinOp("add", acc, tap(row + k))
        stmts.append(Store("out", IConst(row), BinOp("add", acc, BinOp("mul", acc, acc))))
    return stmts


def _random_segment(rng):
    """A short segment in which subexpressions repeat, as the same object
    or as an equal one; every node type ``cse_program`` looks inside is
    drawn."""
    scalars, vectors = [], []

    def scalar(depth):
        if scalars and rng.random() < 0.2:
            return rng.choice(scalars)
        scalars.append(fresh_scalar(depth))
        return scalars[-1]

    def vector(depth):
        if vectors and rng.random() < 0.2:
            return rng.choice(vectors)
        vectors.append(fresh_vector(depth))
        return vectors[-1]

    def fresh_scalar(depth):
        pick = rng.randrange(8 if depth else 3)
        if pick == 0:
            return Var(rng.choice("xyz"))
        if pick == 1:
            return FConst(float(rng.randrange(3)))
        if pick == 2:
            return Load(rng.choice(["inp", "out"]), index(1))
        if pick == 3:
            return UnOp(rng.choice(["neg", "abs", "sqrt"]), scalar(depth - 1))
        if pick == 4:
            return VLane(vector(depth - 1), IConst(rng.randrange(4)))
        return BinOp(rng.choice(["add", "mul", "sub"]), scalar(depth - 1), scalar(depth - 1))

    def index(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice([Var("i"), IConst(rng.randrange(3)), NatE(nat("n"))])
        return BinOp("add", index(depth - 1), index(depth - 1))

    def fresh_vector(depth):
        pick = rng.randrange(6 if depth else 2)
        if pick == 0:
            return VLoad(rng.choice(["inp", "out"]), index(1), 4, rng.random() < 0.5)
        if pick == 1:
            return Broadcast(scalar(0), 4)
        if pick == 2:
            return VShuffle(vector(depth - 1), vector(depth - 1), rng.randrange(1, 4), 4)
        if pick == 3:
            return VPack(tuple(scalar(depth - 1) for _ in range(4)))
        return BinOp(rng.choice(["add", "mul"]), vector(depth - 1), vector(depth - 1))

    stmts = []
    for n in range(rng.randrange(2, 7)):
        kind = rng.randrange(5)
        if kind == 0:
            stmts.append(Store("out", index(1), scalar(4)))
        elif kind == 1:
            stmts.append(VStore("out", index(1), vector(3), 4))
        elif kind == 2:
            stmts.append(Assign("x", scalar(4)))
        elif kind == 3:
            stmts.append(DeclScalar(f"s{n}", scalar(4)))
        else:
            stmts.append(DeclVec(f"v{n}", 4, vector(3)))
    return stmts


class TestCseAgainstReference:
    def test_deep_segment_hoists_the_same_temporaries(self):
        stmts = _deep_segment()
        assert _tree_nodes(stmts) >= 4000
        out = cse_program(_program(stmts)).functions[0].body.stmts
        assert out == _reference_cse(stmts)
        assert sum(isinstance(s, DeclScalar) for s in out) == 210

    def test_random_segments(self):
        rng = random.Random(0)
        hoisted = 0
        for _ in range(300):
            stmts = _random_segment(rng)
            out = cse_program(_program(stmts)).functions[0].body.stmts
            assert out == _reference_cse(stmts)
            hoisted += len(out) - len(stmts)
        assert hoisted > 300, "sanity: the segments do repeat subexpressions"

    def test_work_is_linear_in_the_segment(self, monkeypatch):
        """No node is hashed and each is asked for its children a bounded
        number of times; hashing a frozen dataclass, like sizing a
        candidate by walking it, costs its whole subtree per call."""
        visits = {"children": 0, "hash": 0}

        def counting(kind, plain):
            def method(self):
                visits[kind] += 1
                return plain(self)

            return method

        for cls in (IConst, FConst, NatE, Var, Load, VLoad, Broadcast, VShuffle,
                    VPack, VLane, BinOp, UnOp):  # fmt: skip
            monkeypatch.setattr(cls, "children", counting("children", cls.children))
            monkeypatch.setattr(cls, "__hash__", counting("hash", cls.__hash__))
        stmts = _deep_segment()
        cse_program(_program(stmts))
        assert visits["hash"] == 0
        assert visits["children"] <= 2 * _tree_nodes(stmts)


class TestFoldProgram:
    def test_preserves_metadata(self):
        p = _program([Store("out", IConst(0), FConst(1.0))])
        p.size_constraints = [(nat("n"), nat(4))]
        out = fold_program(p)
        assert out.size_constraints == [(nat("n"), nat(4))]
