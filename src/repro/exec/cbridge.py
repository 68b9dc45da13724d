"""Compile emitted C with the host compiler and run it via ctypes.

This is the true end-to-end path: RISE -> rewriting -> imperative IR ->
C source -> machine code -> execution on real buffers.  Used by the
integration tests (skipped automatically when no C compiler is present).

The shared-library lifecycle is explicit: :func:`compile_c_library`
builds a ``.so`` (into a caller-supplied directory — normally the
engine's artifact store — or a tempdir owned by the returned handle) and
:class:`CLibrary` owns both the loaded ``ctypes.CDLL`` and the backing
file, unloading and deleting them in :meth:`CLibrary.close`.  Programs
reach it through :func:`repro.compile`, which reuses one cached library
per compiled program.
"""

from __future__ import annotations

import ctypes
import functools
import shutil
import subprocess
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from repro.codegen.cprint import _collect_size_vars, program_to_c
from repro.codegen.ir import Buffer, ImpProgram
from repro.codegen.sizes import resolve_sizes
from repro.observe.core import span
from repro.observe.metrics import inc, observe_value

__all__ = [
    "have_c_compiler",
    "Toolchain",
    "toolchain",
    "openmp_available",
    "effective_cflags",
    "OPENMP_FLAG",
    "ISA_FLAG",
    "EPILOGUE_FLAG",
    "GCC_TIMEOUT_S",
    "CCompileError",
    "CLibrary",
    "compile_c_library",
    "load_c_library",
    "execute_with_library",
]

#: Default C compiler flags, the one definition; :func:`effective_cflags`
#: adds the host's OpenMP and ISA-level flags before a build is keyed.
DEFAULT_CFLAGS = ("-O2",)

#: The flag that makes ``#pragma omp parallel for`` real.  Historically
#: absent from every build — the emitted pragma was inert and all
#: "parallel" C executions ran sequentially.
OPENMP_FLAG = "-fopenmp"

#: The ISA level every C build targets on a CPU that runs it (AVX2, FMA,
#: BMI1/2).  At baseline x86-64 (SSE2) a rotated ``v4f`` window compiles
#: to SSE moves; at this level harris ``cbuf-rot`` runs ~1.2x faster and
#: beats ``cbuf`` by ~1.25x.  A named level rather than ``-march=native``,
#: so one flag string always means one instruction set.
ISA_FLAG = "-march=x86-64-v3"

#: Part of the :data:`ISA_FLAG` flag set: without it gcc vectorizes the
#: remainder of every ``#pragma omp simd`` loop a second time at 128
#: bits, which buys nothing on remainders shorter than one 8-lane vector
#: and takes harris ``naive``'s gcc time from ~360 ms to ~520 ms (gcc
#: 12.2, 2-core Xeon VM).  A kernel without the pragma compiles to the
#: same ``.so`` either way.
EPILOGUE_FLAG = "--param=vect-epilogues-nomask=0"

#: Wall-clock limit of one compiler invocation.  The slowest zoo kernel
#: (harris cbuf-rot-par) compiles in ~0.35 s on a 2-core x86 VM with
#: gcc 12, so only a wedged compiler reaches this.
GCC_TIMEOUT_S = 60.0

#: Lines of compiler diagnostics kept on a :class:`CCompileError`.
STDERR_TAIL_LINES = 20

#: Size bindings whose call plan one :class:`CLibrary` keeps.
MAX_CALL_PLANS = 4


class CCompileError(RuntimeError):
    """The host C compiler failed or timed out on one kernel.

    ``kernel`` names the program; ``stderr_tail`` holds the last
    :data:`STDERR_TAIL_LINES` lines of the compiler's diagnostics, which
    the message repeats.
    """

    def __init__(self, kernel: str, reason: str, stderr: str = ""):
        self.kernel = kernel
        self.stderr_tail = "\n".join(stderr.splitlines()[-STDERR_TAIL_LINES:])
        message = f"C build of kernel {kernel!r} {reason}"
        super().__init__(f"{message}:\n{self.stderr_tail}" if self.stderr_tail else message)


def have_c_compiler() -> bool:
    """Whether a host C compiler (gcc or cc) is on PATH."""
    return shutil.which("gcc") is not None or shutil.which("cc") is not None


def _compiler() -> str:
    return shutil.which("gcc") or shutil.which("cc") or "gcc"


class Toolchain(NamedTuple):
    """What the one toolchain probe found (see :func:`toolchain`).

    ``openmp`` says whether the compiler builds ``-fopenmp`` shared
    libraries; ``isa_level`` is the highest ``x86-64-vN`` level this CPU
    runs (2-4), or 0 when it runs none, is not x86-64, or the probe
    could not tell.
    """

    openmp: bool
    isa_level: int


#: One translation unit answers both questions: it links only with
#: OpenMP, and once loaded it reports the CPU's ``x86-64-vN`` level.  It
#: is compiled without ``-march``, so it runs on any host.
_PROBE_C = """\
#include <omp.h>
int repro_probe_threads(void) { return omp_get_max_threads(); }
int repro_probe_isa_level(void) {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) return 4;
    if (__builtin_cpu_supports("x86-64-v3")) return 3;
    if (__builtin_cpu_supports("x86-64-v2")) return 2;
#endif
    return 0;
}
"""

#: The fallback for compilers that reject the level builtin (gcc < 12).
_OPENMP_PROBE_C = "#include <omp.h>\nint repro_probe(void){return omp_get_max_threads();}\n"


def _build_probe(tmp: str, source: str) -> Path | None:
    """Compile ``source`` into an OpenMP shared library under ``tmp``;
    ``None`` when the compiler fails."""
    c_path = Path(tmp) / "probe.c"
    so_path = Path(tmp) / "probe.so"
    c_path.write_text(source)
    try:
        result = subprocess.run(
            [_compiler(), "-shared", "-fPIC", OPENMP_FLAG, "-o", str(so_path), str(c_path)],
            capture_output=True,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return so_path if result.returncode == 0 and so_path.is_file() else None


@functools.lru_cache(maxsize=1)
def toolchain() -> Toolchain:
    """Probe the host toolchain once per process: one compiler run.

    A compiler without libgomp (or no compiler at all) yields no OpenMP
    and every build falls back to sequential execution.  A non-x86 host,
    a compiler without the level builtin, or any failure to load the
    probe yields ``isa_level == 0``, and builds keep the baseline ISA.
    Only a compiler that rejects the probe pays a second run, which asks
    the OpenMP question alone.
    """
    if not have_c_compiler():
        return Toolchain(False, 0)
    with tempfile.TemporaryDirectory(prefix="repro_probe_") as tmp:
        so_path = _build_probe(tmp, _PROBE_C)
        if so_path is None:
            return Toolchain(_build_probe(tmp, _OPENMP_PROBE_C) is not None, 0)
        try:
            level = int(ctypes.CDLL(str(so_path)).repro_probe_isa_level())
        except (OSError, AttributeError):
            level = 0
        return Toolchain(True, level)


def openmp_available() -> bool:
    """Whether the host compiler can build ``-fopenmp`` shared libraries."""
    return toolchain().openmp


#: The ``x86-64-vN`` level each explicit ``-march=`` flag needs.
_LEVEL_OF_FLAG = {f"-march=x86-64-v{n}": n for n in (2, 3, 4)}


def effective_cflags(flags: tuple[str, ...] = DEFAULT_CFLAGS) -> tuple[str, ...]:
    """``flags`` resolved for this host: :data:`OPENMP_FLAG` appended
    when the toolchain supports it (graceful sequential fallback
    otherwise), and :data:`ISA_FLAG` followed by :data:`EPILOGUE_FLAG`
    when the CPU runs ``x86-64-v3`` and the caller named no
    ``-march=``/``-mcpu=`` of their own.

    This is the configure-time decision every C build goes through: the
    engine resolves flags *before* computing the compile-cache key, so a
    ``.so`` built with OpenMP, or for ``x86-64-v3``, is never served to
    (or from) a flag set without it.  Resolution is idempotent, and on a
    host without the level the result is the OpenMP decision alone.

    Raises :class:`ValueError` for an explicit ``-march=x86-64-vN`` the
    probe did not find on this CPU: such a kernel would compile, then
    die of an illegal instruction on its first run.
    """
    flags = tuple(flags)
    probed = toolchain()
    for flag in flags:
        if _LEVEL_OF_FLAG.get(flag, 0) > probed.isa_level:
            found = f"x86-64-v{probed.isa_level}" if probed.isa_level else "no x86-64 level"
            raise ValueError(
                f"cflag {flag!r} targets a CPU level the toolchain probe did not "
                f"find on this host (it found {found})"
            )
    if probed.openmp and OPENMP_FLAG not in flags:
        flags += (OPENMP_FLAG,)
    if probed.isa_level >= _LEVEL_OF_FLAG[ISA_FLAG] and not any(f.startswith(("-march=", "-mcpu=")) for f in flags):
        flags += (ISA_FLAG, EPILOGUE_FLAG)
    return flags


class CLibrary:
    """A loaded shared library with an explicitly owned lifecycle.

    Owns the ``ctypes.CDLL`` handle, the ``.so`` path and (when built
    into a tempdir rather than the artifact store) the directory itself.
    :meth:`close` unloads the handle and removes owned files; a
    ``weakref.finalize`` guarantees owned tempdirs are cleaned up even if
    ``close`` is never called.
    """

    def __init__(self, path: Path, lib: ctypes.CDLL, owned_dir: Path | None = None):
        self.path = Path(path)
        self.lib: ctypes.CDLL | None = lib
        self._owned_dir = owned_dir
        # Call plans by (program, size binding), insertion-ordered so the
        # oldest is dropped past MAX_CALL_PLANS; built under _lock.
        self._plans: dict[tuple, _CallPlan] = {}
        self._threads: tuple | None = None
        self._lock = threading.Lock()
        self._finalizer = (
            weakref.finalize(self, shutil.rmtree, str(owned_dir), True)
            if owned_dir is not None
            else None
        )

    @property
    def closed(self) -> bool:
        """Whether the library handle has been released."""
        return self.lib is None

    def function(self, name: str):
        """The named exported kernel, raising if the library is closed."""
        if self.lib is None:
            raise RuntimeError(f"C library {self.path.name} is closed")
        return getattr(self.lib, name)

    def _thread_control(self) -> tuple:
        """``(repro_set_threads or None, OpenMP enabled)``, queried once."""
        with self._lock:
            if self._threads is None:
                setter = enabled = None
                try:
                    setter = self.function("repro_set_threads")
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    enabled = self.function("repro_openmp_enabled")
                    enabled.argtypes = []
                    enabled.restype = ctypes.c_int
                except AttributeError:
                    pass
                self._threads = (setter, enabled is not None and bool(enabled()))
            return self._threads

    def _call_plan(self, prog: ImpProgram, sizes: Mapping[str, int]) -> "_CallPlan":
        """The call plan of ``prog`` under the caller's size binding,
        built on first use (safe from concurrent callers) and kept for
        the library's lifetime, at most :data:`MAX_CALL_PLANS` of them."""
        key = (id(prog), tuple(sorted(sizes.items())))
        plan = self._plans.get(key)
        if plan is not None and plan.program is prog:
            return plan
        with self._lock:
            plan = self._plans.get(key)
            if plan is None or plan.program is not prog:
                plan = _CallPlan.build(self, prog, sizes)
                if len(self._plans) >= MAX_CALL_PLANS:
                    del self._plans[next(iter(self._plans))]
                self._plans[key] = plan
            return plan

    def close(self) -> None:
        """Release the CDLL handle and delete owned on-disk artifacts.

        Libraries built with OpenMP are dropped but never ``dlclose``d:
        libgomp parks (spin-waiting) worker threads after a parallel
        region, and unmapping the image they may still reference crashes
        the process.  Leaking one handle is harmless — deleting the
        on-disk ``.so`` is still safe while it stays mapped.
        """
        if self.lib is not None:
            handle = self.lib._handle
            uses_openmp = self._thread_control()[1]
            with self._lock:
                self._plans.clear()
                self._threads = None
                self.lib = None
            if not uses_openmp:
                try:
                    import _ctypes

                    _ctypes.dlclose(handle)
                except (ImportError, AttributeError, OSError):  # pragma: no cover
                    pass  # unloading is best-effort; dropping the ref suffices
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None

    def __enter__(self) -> "CLibrary":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self.closed else "loaded"
        return f"<CLibrary {self.path.name} {state}>"


@dataclass(frozen=True)
class _KernelCall:
    """One kernel of a call plan: its ctypes function (``argtypes`` set
    once), size arguments, input buffers with their element counts, and
    its output's name, element count and allocation."""

    name: str
    cfn: object
    size_args: tuple[int, ...]
    inputs: tuple[tuple[Buffer, int], ...]
    output: str
    out_size: int
    out_alloc: int


@dataclass(frozen=True)
class _CallPlan:
    """Everything a call of ``program`` under one size binding needs
    that does not depend on the input data, resolved once per library."""

    program: ImpProgram
    kernels: tuple[_KernelCall, ...]

    @classmethod
    def build(cls, library: CLibrary, prog: ImpProgram, sizes: Mapping[str, int]) -> "_CallPlan":
        t0 = time.perf_counter()
        resolved = resolve_sizes(prog, sizes)
        kernels = []
        for fn in prog.functions:
            cfn = library.function(fn.name)
            size_vars = _collect_size_vars(fn)
            cfn.argtypes = [ctypes.c_int] * len(size_vars) + [ctypes.c_void_p] * (
                len(fn.inputs) + 1
            )
            cfn.restype = None
            kernels.append(
                _KernelCall(
                    name=fn.name,
                    cfn=cfn,
                    size_args=tuple(int(resolved[v]) for v in size_vars),
                    inputs=tuple((b, int(b.size.evaluate(resolved))) for b in fn.inputs),
                    output=fn.output.name,
                    out_size=int(fn.output.size.evaluate(resolved)),
                    out_alloc=int(fn.output.alloc_size().evaluate(resolved)),
                )
            )
        observe_value("exec.bind_ms", (time.perf_counter() - t0) * 1e3)
        return cls(prog, tuple(kernels))


def _run_compiler(cmd: list[str], kernel: str) -> None:
    """Run one compiler command; :class:`CCompileError` on failure or timeout."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=GCC_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CCompileError(kernel, f"timed out after {GCC_TIMEOUT_S:g} s") from None
    if done.returncode != 0:
        raise CCompileError(kernel, f"failed (exit {done.returncode})", done.stderr)


def compile_c_library(
    prog: ImpProgram,
    out_dir: Path | str | None = None,
    extra_flags: tuple[str, ...] = DEFAULT_CFLAGS,
    source: str | None = None,
) -> CLibrary:
    """Emit C for ``prog``, compile it to a shared library and load it.

    With ``out_dir`` the ``.so`` lands there (the artifact store's layout)
    and the caller owns the files; without it a private tempdir is created
    and owned by the returned :class:`CLibrary`.  A compiler that fails,
    or runs past :data:`GCC_TIMEOUT_S`, raises :class:`CCompileError`.
    """
    source = source if source is not None else program_to_c(prog)
    owned: Path | None = None
    if out_dir is None:
        owned = Path(tempfile.mkdtemp(prefix="repro_c_"))
        out_dir = owned
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    c_path = out_dir / "kernel.c"
    so_path = out_dir / "kernel.so"
    c_path.write_text(source)
    cmd = [
        _compiler(),
        "-shared",
        "-fPIC",
        "-std=c11",
        *extra_flags,
        "-o",
        str(so_path),
        str(c_path),
        "-lm",
    ]
    t0 = time.perf_counter()
    with span("exec.gcc", program=prog.name):
        try:
            _run_compiler(cmd, prog.name)
        except CCompileError:
            if owned is not None:
                shutil.rmtree(owned, ignore_errors=True)
            raise
    inc("engine.cbuild")
    observe_value("engine.cbuild_ms", (time.perf_counter() - t0) * 1e3)
    return CLibrary(so_path, ctypes.CDLL(str(so_path)), owned_dir=owned)


def load_c_library(so_path: Path | str) -> CLibrary:
    """Load an already-compiled shared library (a warm artifact-store hit);
    the caller/store keeps owning the file."""
    so_path = Path(so_path)
    return CLibrary(so_path, ctypes.CDLL(str(so_path)))


def set_library_threads(library: CLibrary, threads: int) -> bool:
    """Pin the OpenMP thread count of a loaded kernel library.

    Uses the ``repro_set_threads`` helper every emitted translation unit
    exports (a no-op in sequential builds); returns whether the library
    reports OpenMP as enabled, so callers can tell a real pin from a
    fallback.  Older cached ``.so`` files without the helper are treated
    as sequential.
    """
    setter, enabled = library._thread_control()
    if setter is not None:
        setter(int(threads))
    return enabled


def execute_with_library(
    library: CLibrary,
    prog: ImpProgram,
    sizes: Mapping[str, int],
    inputs: Mapping[str, np.ndarray],
    threads: int | None = None,
) -> np.ndarray:
    """Execute every kernel of ``prog`` in order through ``library`` and
    return the final (unpadded) output buffer.

    ``threads`` pins the OpenMP team size for this call (resolved through
    :func:`repro.exec.parallel.effective_threads`, so ``$OMP_NUM_THREADS``
    works and batch workers degrade to 1 thread).  Without OpenMP in the
    build the pin is a no-op and ``PARALLEL`` loops run sequentially.

    Sizes, argument lists and ``argtypes`` come from the library's call
    plan for this size binding, built on first use; the thread helpers
    are looked up once per library.  Inputs are bound
    under the runtimes' shared buffer rule
    (:func:`repro.exec.pyexec._kernel_input`): contiguous float32 arrays
    of the exact size pass straight through, and an input whose element
    count differs from its buffer's raises ``ValueError``.  The output is
    a fresh array on every call, so one loaded library can serve
    concurrent callers (the batch executor's thread pool): ctypes
    releases the GIL for the duration of each kernel call.
    """
    from repro.exec.parallel import effective_threads
    from repro.exec.pyexec import _kernel_input

    plan = library._call_plan(prog, sizes)
    nthreads = effective_threads(threads)
    omp_active = set_library_threads(library, nthreads)
    inc("exec.c.threads_pinned" if omp_active else "exec.c.sequential_builds")
    produced: dict[str, np.ndarray] = {}
    result: np.ndarray | None = None
    for call in plan.kernels:
        args = [_kernel_input(b, size, produced, inputs) for b, size in call.inputs]
        out = np.zeros(call.out_alloc, dtype=np.float32)
        t0 = time.perf_counter()
        with span(
            f"run:{call.name}",
            program=prog.name,
            backend="c",
            threads=nthreads if omp_active else 1,
        ):
            call.cfn(*call.size_args, *(a.ctypes.data for a in args), out.ctypes.data)
        kernel_ms = (time.perf_counter() - t0) * 1e3
        inc("exec.c.kernels", kernel=call.name)
        observe_value("exec.c.kernel_ms", kernel_ms, kernel=call.name)
        result = out[: call.out_size]
        produced[call.name] = result
        produced[call.output] = result
    assert result is not None
    return result


# -- the backend interface (see repro.exec.BACKEND_TABLE) --------------------

#: ctypes releases the GIL for each kernel call, every call allocates its
#: own output and a call plan is built once under a lock, so one loaded
#: library serves a batch's thread pool.
BATCH_POOL = "thread"

#: Whether this host can build C: a gcc or cc on PATH.
available = have_c_compiler

#: The flags that enter the cache key: the host's OpenMP and ISA level.
resolve_cflags = effective_cflags


def build(entry, cflags: tuple[str, ...]) -> None:
    """Print ``entry.program`` to C and compile it into ``entry.library``
    (the one ``.so`` build path, for fresh and for closed entries)."""
    if not have_c_compiler():
        raise RuntimeError("backend='c' requires a host C compiler (gcc/cc)")
    entry.library = compile_c_library(
        entry.program, extra_flags=tuple(cflags), source=source(entry, {})
    )


def source(entry, sizes: Mapping[str, int]) -> str:
    """The C of ``entry.program``, printed once per entry (sizes stay symbolic)."""
    if entry.c_source is None:
        entry.c_source = program_to_c(entry.program)
    return entry.c_source


def run(entry, store, sizes, inputs, threads: int | None) -> np.ndarray:
    """Execute ``entry`` through its live library: a warm disk hit loads
    the stored ``.so``, an entry with no store behind it is rebuilt."""
    library = entry.library
    if library is None or library.closed:
        so_path = store.so_path(entry.key) if store is not None else None
        if so_path is not None:
            entry.library = load_c_library(so_path)
        else:
            build(entry, tuple(entry.meta.get("cflags", DEFAULT_CFLAGS)))
    return execute_with_library(entry.library, entry.program, sizes, inputs, threads)
