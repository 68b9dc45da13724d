"""Differential validation of discovered schedules.

The cost model ranks candidates; it must never be the only thing
standing between a search and a wrong program.  Before a discovered
schedule is exported or recorded, this module compiles the *same* seed
expression twice — once under the deliberately unoptimized
``naive`` schedule (the reference), once under the discovered schedule —
runs both on seeded random inputs, and compares the outputs through
:func:`repro.verify.oracle.equivalence_report`, the same hardened
comparison (shape, non-finite and value checks) the fuzzing oracle uses.
When a host C compiler is available the discovered schedule is checked
through the C backend too, so the verdict covers the backend that
wall-clock ranking would run.

Sizes are chosen per candidate: every action records the divisibility it
imposes (``chunk | n``, ``vec | m``), and :func:`verification_sizes`
picks the smallest legal sizes above a floor — small enough that the
Python backend verifies in well under a second, large enough that every
chunk/strip boundary is exercised at least once.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.engine.pipeline import Engine
from repro.rise.types import ArrayType, Type
from repro.strategies.schedules import Schedule, naive_version
from repro.verify.oracle import equivalence_report

__all__ = ["verification_sizes", "make_inputs", "verify_schedule"]


def verification_sizes(
    n_multiple: int = 1, m_multiple: int = 1, floor: int = 8
) -> dict[str, int]:
    """The smallest output sizes >= ``floor`` satisfying both divisibility
    constraints — two chunk rows when a split is present, so the chunk
    *boundary* (where recomputation bugs live) is inside the image."""
    n_mult = max(1, int(n_multiple))
    m_mult = max(1, int(m_multiple))
    n = n_mult * max(1, math.ceil(floor / n_mult))
    if n == n_mult and n_mult > 1:
        n = 2 * n_mult  # at least two chunks, so borders are exercised
    m = m_mult * max(1, math.ceil(floor / m_mult))
    return {"n": n, "m": m}


def make_inputs(
    type_env: Mapping[str, Type], sizes: Mapping[str, int], seed: int = 0
) -> dict[str, np.ndarray]:
    """Seeded random float32 inputs for every free identifier.

    Shapes come from evaluating each identifier's (possibly symbolic)
    array type under ``sizes`` — the verification twin of
    :func:`repro.image.synthetic_rgb`, but for arbitrary type
    environments.
    """
    rng = np.random.default_rng(seed)
    inputs: dict[str, np.ndarray] = {}
    for name, ty in type_env.items():
        dims: list[int] = []
        t = ty
        while isinstance(t, ArrayType):
            dims.append(int(t.size.evaluate(dict(sizes))))
            t = t.elem
        inputs[name] = rng.random(tuple(dims), dtype=np.float32)
    return inputs


def verify_schedule(
    seed_expr,
    schedule: Schedule,
    type_env: Mapping[str, Type],
    sizes: Mapping[str, int] | None = None,
    seed: int = 0,
    rtol: float = 1e-3,
    atol: float = 1e-4,
    engine: Engine | None = None,
    check_c: bool | None = None,
) -> dict:
    """Differentially validate ``schedule`` against the naive reference.

    Returns a JSON-ready verdict::

        {"ok": bool, "sizes": {...}, "seed": 0,
         "checks": [{"backend": "python", "report": None}, ...]}

    ``report`` is ``None`` on agreement, else the mismatch description
    from :func:`~repro.verify.oracle.equivalence_report`.  A compile or
    run crash is itself a failing check (``kind: "crash"``), matching
    the metamorphic oracle's convention.  Tolerances default looser than
    the oracle's float64 interpreter checks: schedules legitimately
    reorder float32 arithmetic (the paper's own PSNR argument for
    ``cbuf+rot``).  ``check_c`` defaults to host-compiler availability.
    """
    from repro.exec import available_backends

    eng = engine if engine is not None else Engine()
    sizes = dict(sizes or verification_sizes())
    inputs = make_inputs(type_env, sizes, seed=seed)
    if check_c is None:
        check_c = "c" in available_backends()

    def run_once(strategy, backend: str):
        pipeline = eng.compile(
            seed_expr,
            strategy=strategy,
            type_env=dict(type_env),
            backend=backend,
            sizes=sizes,
            name=f"verify_{strategy.name.replace('-', '_')}",
        )
        return pipeline.run(**{k: v.copy() for k, v in inputs.items()})

    checks: list[dict] = []
    try:
        reference = run_once(naive_version(dict(type_env)), "python")
    except Exception as exc:  # reference must run; anything else is fatal
        return {
            "ok": False,
            "sizes": sizes,
            "seed": seed,
            "checks": [
                {
                    "backend": "python",
                    "report": {"kind": "crash", "error": f"reference: {exc}"},
                }
            ],
        }
    backends = ["python"] + (["c"] if check_c else [])
    for backend in backends:
        try:
            out = run_once(schedule, backend)
            report = equivalence_report(reference, out, rtol=rtol, atol=atol)
        except Exception as exc:
            report = {"kind": "crash", "error": f"{type(exc).__name__}: {exc}"}
        checks.append({"backend": backend, "report": report})
    return {
        "ok": all(c["report"] is None for c in checks),
        "sizes": sizes,
        "seed": seed,
        "checks": checks,
    }
