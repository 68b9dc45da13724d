"""Cross-layer differential checking: interpreter vs. compiled backends.

For a generated program the denotational interpreter is the semantic
ground truth.  :func:`differential_check` compares it against the
compiled execution layers, routed through :func:`repro.compile` so the
engine front door — structural hashing, the compile cache, destination-
passing lowering, and the Python or C executor — is fuzzed along the
way:

* ``python`` backend: always compared.
* ``c`` backend: compared when a C compiler is available (the same
  gate the test-suite's ``requires_gcc`` marker uses).
* cache determinism: compiling the identical program twice through one
  engine must report a cache hit and return **bit-identical** output.

Programs the lowering layer legitimately cannot compile (reported via
``CodegenError``) are recorded as *skips*, never as failures — but any
other exception from a backend is a genuine finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.verify.gen import GeneratedProgram
from repro.verify.oracle import equivalence_report, flatten_value

__all__ = ["DiffFailure", "DiffResult", "differential_check"]


@dataclass
class DiffFailure:
    """One backend disagreement (or crash) found by the differential check."""

    backend: str
    kind: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready representation for corpus cases and CLI output."""
        return {"backend": self.backend, "kind": self.kind, "detail": self.detail}


@dataclass
class DiffResult:
    """Outcome of one differential trial."""

    failures: list[DiffFailure] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    compared: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no backend disagreed or crashed."""
        return not self.failures


def _interpret(gp: GeneratedProgram, inputs: dict[str, np.ndarray]) -> np.ndarray:
    from repro.rise.interpreter import evaluate, from_numpy

    env = {name: from_numpy(arr) for name, arr in inputs.items()}
    return np.asarray(flatten_value(evaluate(gp.expr, env)), dtype=np.float32)


def differential_check(
    gp: GeneratedProgram,
    inputs: dict[str, np.ndarray] | None = None,
    engine=None,
    rtol: float = 1e-5,
    atol: float = 1e-6,
    use_c: bool | None = None,
) -> DiffResult:
    """Compare the interpreter against the compiled backends.

    ``engine`` defaults to a fresh in-memory :class:`repro.engine.Engine`
    so fuzzing never pollutes (or is polluted by) the user's on-disk
    artifact store; pass a shared engine to also exercise cache reuse
    across programs.  ``use_c`` defaults to C-compiler availability.
    """
    from repro.codegen.views import CodegenError
    from repro.engine.pipeline import Engine
    from repro.engine.pipeline import compile as engine_compile
    from repro.exec import available_backends

    result = DiffResult()
    inputs = inputs if inputs is not None else gp.make_inputs()
    engine = engine if engine is not None else Engine(cache_dir=None)
    if use_c is None:
        use_c = "c" in available_backends()

    try:
        reference = _interpret(gp, inputs)
    except Exception as exc:  # noqa: BLE001 - any interpreter crash is a finding
        result.failures.append(
            DiffFailure("interpreter", "crash", {"error": f"{type(exc).__name__}: {exc}"})
        )
        return result

    backends = ["python"] + (["c"] if use_c else [])
    outputs: dict[str, np.ndarray] = {}
    for backend in backends:
        try:
            pipeline = engine_compile(
                gp.expr,
                backend=backend,
                sizes=gp.sizes,
                type_env=gp.type_env,
                name=f"fuzz_{gp.seed}",
                engine=engine,
            )
            out = pipeline.run(**inputs)
        except CodegenError as exc:
            result.skipped.append(f"{backend}: {exc}")
            continue
        except Exception as exc:  # noqa: BLE001 - backend crash is a finding
            result.failures.append(
                DiffFailure(backend, "crash", {"error": f"{type(exc).__name__}: {exc}"})
            )
            continue
        outputs[backend] = np.asarray(out, dtype=np.float32).reshape(-1)
        report = equivalence_report(reference, outputs[backend], rtol=rtol, atol=atol)
        if report is not None:
            result.failures.append(DiffFailure(backend, "mismatch", report))
            continue
        result.compared.append(backend)

        # Same program, same engine: the second compile must hit the
        # cache and reproduce the output bit-for-bit.
        try:
            again = engine_compile(
                gp.expr,
                backend=backend,
                sizes=gp.sizes,
                type_env=gp.type_env,
                name=f"fuzz_{gp.seed}",
                engine=engine,
            )
            out2 = np.asarray(again.run(**inputs), dtype=np.float32).reshape(-1)
        except Exception as exc:  # noqa: BLE001
            result.failures.append(
                DiffFailure(
                    backend, "cache-crash", {"error": f"{type(exc).__name__}: {exc}"}
                )
            )
            continue
        if not again.cache_status.startswith("hit"):
            result.failures.append(
                DiffFailure(backend, "cache-miss", {"status": again.cache_status})
            )
        elif not np.array_equal(outputs[backend], out2):
            result.failures.append(
                DiffFailure(
                    backend,
                    "cache-nondeterminism",
                    {"max_abs_diff": float(np.abs(outputs[backend] - out2).max())},
                )
            )

    return result
