"""Property tests for the analytic cost model: the orderings that the
paper's evaluation depends on must hold structurally."""

import numpy as np
import pytest

from repro.codegen import compile_program
from repro.codegen.ir import (
    Block,
    Buffer,
    BinOp,
    FConst,
    For,
    IConst,
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
from repro.nat import nat
from repro.perf import (
    ALL_MACHINES,
    CORTEX_A7,
    CORTEX_A53,
    CORTEX_A73,
    count_operations,
    estimate_runtime_ms,
    vector_load_costs,
)


def _program(body_stmts, name="k", inputs=("inp",), out_size=1 << 16):
    fn = ImpFunction(
        name,
        [Buffer(i, nat(out_size), 8) for i in inputs],
        Buffer("out", nat(out_size), 8),
        [],
        Block(body_stmts),
    )
    return ImpProgram(name, [fn], [])


def _scalar_loop(n, parallel=False):
    value = BinOp("mul", Load("inp", Var("i")), FConst(2.0))
    kind = LoopKind.PARALLEL if parallel else LoopKind.SEQ
    return _program([For("i", IConst(n), Block([Store("out", Var("i"), value)]), kind)])


def _vector_loop(n, width=4):
    value = BinOp("mul", VLoad("inp", Var("i"), width, aligned=True), Broadcast(FConst(2.0), width))
    return _program(
        [For("i", IConst(n // width), Block([VStore("out", Var("i"), value, width, True)]), LoopKind.VEC)]
    )


class TestModelOrderings:
    def test_vectorized_faster_than_scalar(self):
        n = 1 << 18
        for machine in ALL_MACHINES:
            scalar = estimate_runtime_ms(_scalar_loop(n), {}, machine)
            vector = estimate_runtime_ms(_vector_loop(n), {}, machine)
            assert vector.runtime_ms < scalar.runtime_ms, machine.name

    def test_parallel_faster_than_sequential(self):
        n = 1 << 18
        for machine in ALL_MACHINES:
            seq = estimate_runtime_ms(_scalar_loop(n), {}, machine)
            par = estimate_runtime_ms(_scalar_loop(n, parallel=True), {}, machine)
            assert par.runtime_ms < seq.runtime_ms, machine.name

    def test_parallel_speedup_bounded_by_cores(self):
        n = 1 << 18
        for machine in ALL_MACHINES:
            seq = estimate_runtime_ms(_scalar_loop(n), {}, machine)
            par = estimate_runtime_ms(_scalar_loop(n, parallel=True), {}, machine)
            assert seq.runtime_ms / par.runtime_ms <= machine.cores + 1e-6

    def test_bigger_input_costs_more(self):
        for machine in ALL_MACHINES:
            small = estimate_runtime_ms(_scalar_loop(1 << 14), {}, machine)
            big = estimate_runtime_ms(_scalar_loop(1 << 18), {}, machine)
            assert big.runtime_ms > small.runtime_ms

    def test_launch_overhead_by_runtime_kind(self):
        p = _scalar_loop(16)
        for machine in ALL_MACHINES:
            opencl = estimate_runtime_ms(p, {}, machine, "opencl")
            native = estimate_runtime_ms(p, {}, machine, "native")
            assert opencl.overhead_ms > native.overhead_ms

    def test_a73_fastest(self):
        n = 1 << 18
        times = {
            m.name: estimate_runtime_ms(_vector_loop(n), {}, m).runtime_ms
            for m in ALL_MACHINES
        }
        assert times["Cortex A73"] == min(times.values())
        # the two out-of-order cores beat the two in-order cores
        assert times["Cortex A15"] < times["Cortex A7"]
        assert times["Cortex A73"] < times["Cortex A53"]


class TestOperationCounting:
    def test_loop_multiplicity(self):
        p = _scalar_loop(1000)
        counts = count_operations(p.functions[0], {})
        assert counts.scalar_flops == 1000
        assert counts.mem_ops == 2000  # load + store per iteration

    def test_unaligned_tracked(self):
        value = VLoad("inp", Var("i"), 4, aligned=False)
        p = _program([For("i", IConst(10), Block([VStore("out", Var("i"), value, 4, True)]), LoopKind.VEC)])
        counts = count_operations(p.functions[0], {})
        assert counts.unaligned_vloads == 10

    def test_modulo_hoisted_to_its_loop(self):
        # (row % 3) computed in the outer loop must not be charged per inner
        # iteration once hoisted
        mod = BinOp("mod", Var("r"), IConst(3))
        inner = For("i", IConst(100), Block([Store("out", BinOp("add", BinOp("mul", mod, IConst(100)), Var("i")), FConst(1.0))]))
        p = _program([For("r", IConst(10), Block([inner]))])
        counts = count_operations(p.functions[0], {})
        # 10 modulo evaluations (outer loop), not 1000
        assert counts.int_ops < 10 * 3 + 1000 * 1.5 + 1


class TestVectorLoadModel:
    def test_optimized_wins_everywhere(self):
        for machine in ALL_MACHINES:
            cost = vector_load_costs(machine)
            assert cost.speedup > 1.0

    def test_inorder_benefits_more(self):
        a7 = vector_load_costs(CORTEX_A7).speedup
        a73 = vector_load_costs(CORTEX_A73).speedup
        assert a7 > a73


def _mixed_program(n_serial, n_par):
    """A kernel with a serial prologue loop followed by a PARALLEL loop,
    both doing identical per-iteration work."""
    value = BinOp("mul", Load("inp", Var("i")), FConst(2.0))
    body = lambda: Block([Store("out", Var("i"), value)])
    return _program(
        [
            For("i", IConst(n_serial), body()),
            For("i", IConst(n_par), body(), LoopKind.PARALLEL),
        ]
    )


class TestScopedParallelDivision:
    """Only cycles under a PARALLEL loop divide by cores (satellite c):
    the serial prologue of a mixed kernel must be charged at full price."""

    def test_parallel_bin_holds_only_parallel_loop_work(self):
        counts = _mixed_program(1000, 4000)
        counts = count_operations(counts.functions[0], {})
        seq_only = count_operations(_scalar_loop(1000).functions[0], {})
        par_only = count_operations(
            _scalar_loop(4000, parallel=True).functions[0], {}
        )
        assert counts.parallel is not None
        assert counts.parallel.scalar_flops == par_only.scalar_flops
        assert counts.parallel.mem_ops == par_only.mem_ops
        assert counts.scalar_flops == seq_only.scalar_flops + par_only.scalar_flops

    def test_sequential_lowering_has_empty_parallel_bin(self):
        counts = count_operations(_scalar_loop(1000).functions[0], {})
        par = counts.parallel
        assert par is None or (
            par.scalar_flops == 0 and par.mem_ops == 0 and par.int_ops == 0
        )

    def test_fully_parallel_bin_equals_totals(self):
        counts = count_operations(
            _scalar_loop(4000, parallel=True).functions[0], {}
        )
        assert counts.parallel.scalar_flops == counts.scalar_flops
        assert counts.parallel.mem_ops == counts.mem_ops

    def test_amdahl_ordering_sequential_vs_mixed_vs_parallel(self):
        n = 4000
        value = BinOp("mul", Load("inp", Var("i")), FConst(2.0))
        body = lambda: Block([Store("out", Var("i"), value)])
        all_seq = _program([For("i", IConst(n), body()), For("i", IConst(n), body())])
        mixed = _mixed_program(n, n)
        all_par = _program(
            [
                For("i", IConst(n), body(), LoopKind.PARALLEL),
                For("i", IConst(n), body(), LoopKind.PARALLEL),
            ]
        )
        for machine in ALL_MACHINES:
            # assert on the compute term: on OoO cores the (identical)
            # memory term can hide the split in total runtime
            seq_ms = estimate_runtime_ms(all_seq, {}, machine).compute_ms
            mix_ms = estimate_runtime_ms(mixed, {}, machine).compute_ms
            par_ms = estimate_runtime_ms(all_par, {}, machine).compute_ms
            if machine.cores > 1:
                assert par_ms < mix_ms < seq_ms, machine.name
            else:
                assert par_ms == pytest.approx(mix_ms) == pytest.approx(seq_ms)

    def test_mixed_speedup_matches_amdahl_on_compute(self):
        """With equal serial/parallel halves, the compute term shrinks to
        (1 + 1/cores)/2 of the sequential kernel's."""
        n = 4000
        value = BinOp("mul", Load("inp", Var("i")), FConst(2.0))
        body = lambda: Block([Store("out", Var("i"), value)])
        all_seq = _program([For("i", IConst(n), body()), For("i", IConst(n), body())])
        mixed = _mixed_program(n, n)
        machine = CORTEX_A53
        seq = estimate_runtime_ms(all_seq, {}, machine)
        mix = estimate_runtime_ms(mixed, {}, machine)
        expected = seq.compute_ms * (1 + 1 / machine.cores) / 2
        assert mix.compute_ms == pytest.approx(expected, rel=1e-6)
