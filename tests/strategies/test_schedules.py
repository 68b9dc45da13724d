"""End-to-end schedule tests: every schedule takes listing 3 to a correct
low-level program (interpreter AND generated code agree with the numpy
reference — the repository's PSNR-style validation)."""

import numpy as np
import pytest

import repro
from repro.codegen import compile_program
from repro.image import synthetic_rgb, reference
from repro.pipelines import harris, harris_input_type
from repro.rise import Identifier, evaluate, from_numpy, to_numpy
from repro.rise.traverse import subterms
from repro.strategies import cbuf_rrot_version, cbuf_version, naive_version

SENV = {"rgb": harris_input_type()}


@pytest.fixture(scope="module")
def small_image():
    img = synthetic_rgb(16, 20)
    return img, reference.harris(img)


def _schedules():
    return {
        "naive": naive_version(),
        "cbuf": cbuf_version(SENV, chunk=4, vec=4),
        "cbuf+rot": cbuf_rrot_version(SENV, chunk=4, vec=4),
    }


@pytest.fixture(scope="module")
def lowered():
    rgb = Identifier("rgb")
    return {name: s.apply(harris(rgb)) for name, s in _schedules().items()}


class TestScheduleSemantics:
    @pytest.mark.parametrize("name", ["naive", "cbuf", "cbuf+rot"])
    def test_interpreter_matches_reference(self, lowered, small_image, name):
        img, ref = small_image
        out = to_numpy(evaluate(lowered[name], {"rgb": from_numpy(img)}))
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    @pytest.mark.parametrize("name", ["naive", "cbuf", "cbuf+rot"])
    def test_compiled_code_matches_reference(self, lowered, small_image, name):
        img, ref = small_image
        prog = compile_program(lowered[name], SENV, "k")
        out = repro.compile(prog, sizes={"n": 12, "m": 16}).run(rgb=img)
        np.testing.assert_allclose(out.reshape(12, 16), ref, rtol=1e-3, atol=1e-4)


class TestScheduleStructure:
    def test_cbuf_patterns(self, lowered):
        from repro.rise.expr import CircularBuffer, MapGlobal, MapSeqVec

        kinds = [type(n).__name__ for n in subterms(lowered["cbuf"])]
        assert kinds.count("CircularBuffer") == 2
        assert kinds.count("MapGlobal") == 1
        assert kinds.count("MapSeqVec") >= 3
        assert kinds.count("RotateValues") == 0

    def test_rot_patterns(self, lowered):
        kinds = [type(n).__name__ for n in subterms(lowered["cbuf+rot"])]
        assert kinds.count("CircularBuffer") == 2
        assert kinds.count("RotateValues") >= 2  # sobel + sums

    def test_naive_is_sequential(self, lowered):
        kinds = set(type(n).__name__ for n in subterms(lowered["naive"]))
        assert "MapGlobal" not in kinds
        assert "CircularBuffer" not in kinds

    def test_no_high_level_patterns_remain(self, lowered):
        """Low-level programs contain no bare map/reduce (every
        implementation decision is explicit, paper section II-B)."""
        from repro.rise.expr import Map, Reduce

        for name in ("cbuf", "cbuf+rot"):
            bare_maps = [n for n in subterms(lowered[name]) if type(n) is Map]
            bare_reduces = [n for n in subterms(lowered[name]) if type(n) is Reduce]
            assert not bare_maps, name
            assert not bare_reduces, name

    def test_apply_traced_records_steps(self):
        sched = cbuf_version(SENV, chunk=4, vec=4)
        trace = sched.apply_traced(harris(Identifier("rgb")))
        assert trace[0][0] == "input"
        assert len(trace) == len(sched.steps) + 1
        names = [t[0] for t in trace[1:]]
        assert "fuseOperators" in names
        assert any("splitPipeline" in n for n in names)

    def test_apply_and_apply_traced_check_what_the_schedule_requires(self):
        """Both entry points fail alike where the named optimization does
        not fire; the error carries the output's marker counts."""
        import pickle

        from repro.pipelines import registry
        from repro.strategies import ScheduleNotApplicable

        spec = registry.get("sobel-magnitude")
        sched = spec.schedule("cbuf-rot", chunk=4, vec=4)
        assert sched.requires == ("RotateValues",)
        with pytest.raises(ScheduleNotApplicable) as traced:
            sched.apply_traced(spec.expr())
        with pytest.raises(ScheduleNotApplicable) as applied:
            sched.apply(spec.expr())
        for info in (traced, applied):
            assert info.value.schedule == sched.name == "rise-cbuf-rrot"
            assert info.value.missing == "RotateValues"
            assert info.value.counts["RotateValues"] == 0
            assert info.value.counts["CircularBuffer"] > 0
        # crosses a process boundary intact (a build child's error)
        back = pickle.loads(pickle.dumps(applied.value))
        assert (back.schedule, back.missing, back.counts) == (
            "rise-cbuf-rrot", "RotateValues", applied.value.counts
        )
        assert str(back) == str(applied.value)

    def test_only_the_buffering_schedules_require_markers(self):
        from repro.strategies import cbuf_par_version, cbuf_rrot_par_version

        assert naive_version(SENV).requires == ()
        assert cbuf_version(SENV).requires == ("CircularBuffer",)
        assert cbuf_par_version(SENV).requires == ("CircularBuffer",)
        assert cbuf_rrot_version(SENV).requires == ("RotateValues",)
        assert cbuf_rrot_par_version(SENV).requires == ("RotateValues",)


class TestChunkSizes:
    @pytest.mark.parametrize("chunk", [2, 4, 8])
    def test_other_chunk_sizes_work(self, small_image, chunk):
        img, ref = small_image
        rows = ref.shape[0]
        if rows % chunk:
            pytest.skip("size not aligned")
        sched = cbuf_version(SENV, chunk=chunk, vec=4)
        low = sched.apply(harris(Identifier("rgb")))
        prog = compile_program(low, SENV, "k")
        out = repro.compile(prog, sizes={"n": rows, "m": ref.shape[1]}).run(rgb=img)
        np.testing.assert_allclose(out.reshape(ref.shape), ref, rtol=1e-3, atol=1e-4)

    def test_vector_width_two(self, small_image):
        img, ref = small_image
        sched = cbuf_version(SENV, chunk=4, vec=2)
        low = sched.apply(harris(Identifier("rgb")))
        prog = compile_program(low, SENV, "k")
        out = repro.compile(prog, sizes={"n": 12, "m": 16}).run(rgb=img)
        np.testing.assert_allclose(out.reshape(12, 16), ref, rtol=1e-3, atol=1e-4)
