"""Concrete sizes: picking them, and resolving leftover size constraints.

:func:`smallest_sizes` picks the smallest output sizes a schedule's
divisibility allows.  Non-strict type inference leaves equations such as
``32 * k == n`` (chunk divisibility) undecided; once concrete image sizes
are known :func:`resolve_sizes` solves them, producing bindings for every
size variable a compiled program's loop extents and buffer sizes mention.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.nat import nat
from repro.codegen.ir import ImpProgram

__all__ = ["smallest_sizes", "resolve_sizes"]


def smallest_sizes(n_multiple: int = 1, m_multiple: int = 1, floor: int = 8) -> dict[str, int]:
    """The smallest output sizes >= ``floor`` with ``n_multiple | n`` and
    ``m_multiple | m`` — two multiples of ``n`` at least when one is a
    split, so the chunk *boundary* (where recomputation bugs live) is
    inside the image."""
    n_mult = max(1, int(n_multiple))
    m_mult = max(1, int(m_multiple))
    n = n_mult * max(1, math.ceil(floor / n_mult))
    if n == n_mult and n_mult > 1:
        n = 2 * n_mult
    m = m_mult * max(1, math.ceil(floor / m_mult))
    return {"n": n, "m": m}


def resolve_sizes(prog: ImpProgram, sizes: Mapping[str, int]) -> dict[str, int]:
    """Extend ``sizes`` with values for inference variables by solving the
    program's recorded size constraints numerically."""
    env: dict[str, int] = dict(sizes)
    constraints = list(prog.size_constraints)
    progress = True
    while progress and constraints:
        progress = False
        remaining = []
        for a, b in constraints:
            solved = False
            for lhs, rhs in ((a, b), (b, a)):
                unknown = [v for v in sorted(lhs.free_vars()) if v not in env]
                rhs_known = all(v in env for v in rhs.free_vars())
                if len(unknown) == 1 and rhs_known and all(
                    v in env for v in lhs.free_vars() if v != unknown[0]
                ):
                    substituted = lhs.substitute(
                        {v: nat(env[v]) for v in lhs.free_vars() if v != unknown[0]}
                    )
                    solution = substituted.solve_for(unknown[0], nat(rhs.evaluate(env)))
                    if solution is not None and solution.is_constant():
                        env[unknown[0]] = solution.constant_value()
                        progress = True
                        solved = True
                        break
            if not solved:
                remaining.append((a, b))
        constraints = remaining
    for a, b in constraints:
        if not (a.free_vars() | b.free_vars()) <= set(env):
            raise ValueError(f"unresolved size constraint {a!r} == {b!r}")
        if a.evaluate(env) != b.evaluate(env):
            raise ValueError(
                f"size constraint violated: {a!r} != {b!r} under {env}"
            )
    return env
