"""Experiment harness regenerating the paper's figures and claims.

The submodules are imported by name (``repro.bench.harness``,
``repro.bench.zoo``, ...): importing them here would load each one
before ``python -m repro.bench.<module>`` runs it as ``__main__``.
"""
