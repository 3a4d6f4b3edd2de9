"""The repo's layered benchmark for the FAB storage register.

``python3 benchmarks/e2e/run.py`` (or ``python -m benchmarks.e2e``)
runs named workloads on both substrates, each in fresh subprocesses,
checks every result, and prints every metric by name with its unit.
End-to-end numbers come from an untraced pass; ``--trace`` adds a
second pass whose timing wrappers — installed from this package, never
from ``src/repro`` — give the per-layer numbers.  See ``README.md``.
"""
