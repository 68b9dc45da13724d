"""The ISA-level flag policy of C builds (``cbridge.effective_cflags``).

On a CPU that runs ``x86-64-v3`` every C build adds ``-march=x86-64-v3``
and its epilogue param before the engine keys it; anywhere else the
flags, and therefore the keys, are exactly the OpenMP decision alone.  The probe is forced to
each answer here, so these tests hold on any host; only the bit-equality
check needs a real v3 CPU.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import CompileRequest, Engine
from repro.exec import cbridge
from repro.exec.cbridge import EPILOGUE_FLAG, ISA_FLAG, OPENMP_FLAG, Toolchain
from repro.pipelines import registry
from repro.rise import Identifier, array, f32
from repro.rise.dsl import fun, lit, map_seq
from repro.serve import Server

pytestmark = pytest.mark.requires_gcc

#: The flags every C build resolved to before the ISA policy existed.
PRE_POLICY_FLAGS = ("-O2", OPENMP_FLAG) if cbridge.openmp_available() else ("-O2",)

#: What the policy appends at level 3 and above.
LEVEL_THREE_TAIL = (ISA_FLAG, EPILOGUE_FLAG)

#: A fixed zoo request, keyed without building anything.
ZOO_REQUEST = CompileRequest(
    source="zoo", options={"pipeline": "harris", "schedule": "cbuf-rot"}, backend="c"
)


def _forced(monkeypatch, level: int) -> None:
    """Make the toolchain probe report ``level`` (OpenMP as really probed)."""
    probed = Toolchain(cbridge.openmp_available(), level)
    monkeypatch.setattr(cbridge, "toolchain", lambda: probed)


def _scale_request() -> CompileRequest:
    """A tiny C kernel: one gcc run of a few lines."""
    return CompileRequest(
        source=map_seq(fun(lambda v: v * lit(2.0)), Identifier("xs")),
        type_env={"xs": array("n", f32)},
        name="isa_scale",
        backend="c",
    )


class TestProbe:
    @pytest.fixture
    def spawns(self, monkeypatch):
        """Compiler runs of a fresh probe, recorded as they happen."""
        runs = []
        real_run = cbridge.subprocess.run

        def run(cmd, **kwargs):
            runs.append(cmd)
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(cbridge.subprocess, "run", run)
        cbridge.toolchain.cache_clear()
        yield runs
        cbridge.toolchain.cache_clear()

    def test_one_compiler_run_answers_both_questions(self, spawns):
        first = cbridge.toolchain()
        assert cbridge.toolchain() is first
        assert cbridge.openmp_available() == first.openmp
        assert not any(arg.startswith("-march=") for arg in spawns[0])
        assert first.isa_level in (0, 2, 3, 4)
        # a second run happens only when the compiler rejected the probe
        assert len(spawns) == 1 if first.isa_level else len(spawns) in (1, 2)

    def test_a_rejected_probe_still_answers_openmp(self, spawns, monkeypatch):
        expected = Toolchain(cbridge.toolchain().openmp, 0)
        cbridge.toolchain.cache_clear()
        spawns.clear()
        monkeypatch.setattr(cbridge, "_PROBE_C", "#error this compiler lacks the builtin\n")
        assert cbridge.toolchain() == expected
        assert len(spawns) == 2


class TestNoLevel:
    def test_flags_are_the_openmp_decision_alone(self, monkeypatch):
        _forced(monkeypatch, 0)
        assert cbridge.effective_cflags() == PRE_POLICY_FLAGS

    def test_key_is_the_pre_policy_key(self, monkeypatch):
        _forced(monkeypatch, 0)
        engine = Engine()
        request, key = engine._keyed(ZOO_REQUEST)
        assert request.cflags == PRE_POLICY_FLAGS
        assert key == engine._keyed(ZOO_REQUEST.replace(cflags=PRE_POLICY_FLAGS))[1]

    def test_level_two_cpu_gets_no_flag(self, monkeypatch):
        _forced(monkeypatch, 2)
        assert cbridge.effective_cflags() == PRE_POLICY_FLAGS


class TestLevelThree:
    @pytest.mark.parametrize("level", [3, 4])
    def test_flag_appended_exactly_once(self, monkeypatch, level):
        _forced(monkeypatch, level)
        flags = cbridge.effective_cflags()
        assert flags == PRE_POLICY_FLAGS + LEVEL_THREE_TAIL
        assert cbridge.effective_cflags(("-O3", ISA_FLAG)).count(ISA_FLAG) == 1

    @pytest.mark.parametrize("flags", [("-O2",), ("-O3", "-g"), ("-O2", OPENMP_FLAG), ()])
    def test_idempotent(self, monkeypatch, flags):
        _forced(monkeypatch, 3)
        once = cbridge.effective_cflags(flags)
        assert cbridge.effective_cflags(once) == once

    @pytest.mark.parametrize("target", ["-march=x86-64", "-mcpu=cortex-a73", "-march=native"])
    def test_callers_target_wins(self, monkeypatch, target):
        _forced(monkeypatch, 3)
        flags = cbridge.effective_cflags(("-O2", target))
        assert ISA_FLAG not in flags and EPILOGUE_FLAG not in flags
        assert flags[:2] == ("-O2", target)

    def test_a_resolved_request_keys_the_same(self, monkeypatch):
        """What a serve build child receives keys like its parent."""
        _forced(monkeypatch, 3)
        engine = Engine()
        resolved, key = engine._keyed(ZOO_REQUEST)
        assert resolved.cflags == PRE_POLICY_FLAGS + LEVEL_THREE_TAIL
        assert engine._keyed(resolved) == (resolved, key)

    def test_a_resolved_build_never_probes(self, monkeypatch, tmp_path):
        """A serve build child builds its parent's resolution as is."""
        _forced(monkeypatch, 3)
        engine = Engine(cache_dir=tmp_path / "store")
        resolved, key = engine._keyed(_scale_request())

        def no_probe():
            raise AssertionError("a resolved build probed the toolchain")

        monkeypatch.setattr(cbridge, "toolchain", no_probe)
        built = engine.compile_resolved(resolved, key)
        assert (built.cache_status, built.key) == ("miss", key)

    def test_key_differs_from_the_no_level_key(self, monkeypatch):
        engine = Engine()
        _forced(monkeypatch, 3)
        v3_key = engine._keyed(ZOO_REQUEST)[1]
        _forced(monkeypatch, 0)
        assert engine._keyed(ZOO_REQUEST)[1] != v3_key


class TestExplicitLevel:
    """Regression: a level the CPU lacks used to compile, then kill the
    process with SIGILL on the first run."""

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_level_the_cpu_lacks_is_a_typed_error(self, monkeypatch, level):
        _forced(monkeypatch, 0)
        flag = f"-march=x86-64-v{level}"
        with pytest.raises(ValueError, match=f"{flag}.*no x86-64 level"):
            cbridge.effective_cflags(("-O2", flag))

    def test_error_names_the_probed_level(self, monkeypatch):
        _forced(monkeypatch, 3)
        assert ISA_FLAG in cbridge.effective_cflags(("-O2", ISA_FLAG))
        assert "-march=x86-64-v2" in cbridge.effective_cflags(("-O2", "-march=x86-64-v2"))
        with pytest.raises(ValueError, match="-march=x86-64-v4.*found x86-64-v3"):
            cbridge.effective_cflags(("-O2", "-march=x86-64-v4"))

    def test_engine_refuses_before_building(self, monkeypatch):
        _forced(monkeypatch, 0)
        engine = Engine()
        with pytest.raises(ValueError, match="x86-64-v3"):
            engine.compile_request(_scale_request().replace(cflags=("-O2", ISA_FLAG)))
        assert engine.stats()["misses"] == 0

    def test_server_refuses_and_keeps_serving(self, monkeypatch):
        _forced(monkeypatch, 0)
        engine = Engine()
        request = CompileRequest(source="zoo", options={"pipeline": "box-blur"})

        async def main():
            async with Server(engine, workers=1) as server:
                with pytest.raises(ValueError, match="x86-64-v3"):
                    await server.submit(
                        request.replace(backend="c", cflags=("-O2", ISA_FLAG))
                    )
                return await server.submit(request)

        assert asyncio.run(main()).cache_status == "miss"


class TestStoreAcrossLevels:
    @pytest.mark.parametrize("first, second", [(3, 0), (0, 3)])
    def test_a_store_is_a_miss_for_the_other_level(self, monkeypatch, tmp_path, first, second):
        store = tmp_path / "store"
        request = _scale_request()
        _forced(monkeypatch, first)
        assert Engine(cache_dir=store).compile_request(request).cache_status == "miss"
        _forced(monkeypatch, second)
        assert Engine(cache_dir=store).lookup(request) is None
        assert Engine(cache_dir=store).compile_request(request).cache_status == "miss"
        for level in (first, second):
            _forced(monkeypatch, level)
            hit = Engine(cache_dir=store).lookup(request)
            assert hit is not None and hit.cache_status == "hit-disk"
            assert (ISA_FLAG in hit.request.cflags) == (level == 3)


@pytest.mark.skipif(
    cbridge.toolchain().isa_level < 3, reason="needs a CPU that runs x86-64-v3"
)
@pytest.mark.parametrize(
    "pipeline, schedule, m",
    [
        pytest.param(p, s, None, id=f"{p}-{s}")
        for p, s in [("harris", "cbuf-rot"), ("gaussian-blur", "cbuf-rot"), ("box-blur", "cbuf-rot-par")]
    ]
    # an ``omp simd`` loop: one 8-lane (three 4-lane) vector
    # iterations, then the scalar remainder
    + [pytest.param("harris", "naive", 13, id="harris-naive-m13")],
)
def test_v3_outputs_are_bit_equal_to_baseline(pipeline, schedule, m):
    spec = registry.get(pipeline)
    program = registry.build_zoo_program(pipeline, schedule)
    sizes = spec.concrete_sizes(
        registry.DEFAULT_CHUNK, registry.DEFAULT_VEC, registry.DEFAULT_STRIP
    )
    if m is not None:
        sizes["m"] = m
    inputs = spec.make_inputs(sizes, seed=5)
    flag_sets = (PRE_POLICY_FLAGS, PRE_POLICY_FLAGS + (ISA_FLAG,))
    with ThreadPoolExecutor(len(flag_sets)) as pool:  # the two gcc runs overlap
        libraries = list(
            pool.map(lambda f: cbridge.compile_c_library(program, extra_flags=f), flag_sets)
        )
    outputs = []
    for library in libraries:
        with library:
            outputs.append(cbridge.execute_with_library(library, program, sizes, inputs))
    np.testing.assert_array_equal(outputs[0], outputs[1])
