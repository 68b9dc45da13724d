"""Shared pytest fixtures and markers for the whole suite.

Conventions enforced here:

* ``@pytest.mark.requires_gcc`` — tests needing a working C toolchain
  are *skipped with a reason* on machines without one, never failed.
* ``fresh_metrics_registry`` — metrics tests get an isolated registry
  instead of depending on global-state ordering between tests.
* ``fresh_zoo_grid`` — one cold compile of the whole default zoo grid
  per session, shared by the suites that need every pair compiled.
* ``small_image`` — one shared, deterministically seeded RGB test image
  (the repo-wide seeding convention: every data source takes an explicit
  seed or ``numpy.random.Generator``; nothing touches numpy's global
  RNG state).
"""

from __future__ import annotations

import numpy as np
import pytest


def pytest_collection_modifyitems(config, items):
    """Skip ``requires_gcc`` tests (with a reason) when no C compiler exists."""
    from repro.exec.cbridge import have_c_compiler

    if have_c_compiler():
        return
    skip = pytest.mark.skip(reason="requires a C compiler (none found on PATH)")
    for item in items:
        if "requires_gcc" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def small_image() -> np.ndarray:
    """A small deterministic RGB image (12x16, seed 3)."""
    from repro.image.data import synthetic_rgb

    return synthetic_rgb(12, 16, seed=3)


@pytest.fixture
def fresh_metrics_registry():
    """An empty process metrics registry, restored to empty afterwards."""
    from repro.observe.metrics import registry, reset_registry

    reset_registry()
    yield registry()
    reset_registry()


@pytest.fixture
def fresh_event_log():
    """The process event log, emptied (and sink-detached) around the test."""
    from repro.observe.events import event_log, reset_event_log

    reset_event_log()
    yield event_log()
    reset_event_log()


@pytest.fixture
def fresh_engine():
    """A private in-memory compile engine (no shared on-disk cache)."""
    from repro.engine.pipeline import Engine

    return Engine(cache_dir=None)


@pytest.fixture(scope="session")
def fresh_zoo_grid():
    """The default zoo grid on one machine, compiled once on a fresh
    private engine with every ``Schedule.apply`` call recorded:
    ``(engine, cells, applied schedule names, fallbacks)``, where
    ``fallbacks`` counts each lowering fallback the grid took (see
    :func:`tests.support.fallback_counts`).  The engine then holds each
    applicable default zoo kernel on the Python backend."""
    from repro.bench.zoo import zoo_grid
    from repro.engine.pipeline import Engine
    from repro.perf.machines import ALL_MACHINES
    from repro.strategies.schedules import Schedule
    from tests.support import fallback_counts

    applied = []
    apply = Schedule.apply

    def recorded(self, program):
        applied.append(self.name)
        return apply(self, program)

    engine = Engine(cache_dir=None)
    before = fallback_counts()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Schedule, "apply", recorded)
        cells = zoo_grid(machines=ALL_MACHINES[:1], engine=engine)
    fallbacks = {k: v - before[k] for k, v in fallback_counts().items()}
    return engine, cells, applied, fallbacks
