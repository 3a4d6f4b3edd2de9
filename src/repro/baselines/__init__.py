"""Baseline algorithms the paper compares against.

* :mod:`repro.baselines.ls97` — a quorum-replicated atomic register in
  the style of Lynch & Shvartsman [9] (two-phase reads *and* writes over
  majority quorums of full replicas).  This is the right-hand column of
  Table 1.

The baseline runs on the same simulation substrate and reports into the
same :class:`~repro.sim.monitor.Metrics`, so cost comparisons are
apples-to-apples.
"""

from .ls97 import Ls97Cluster

__all__ = ["Ls97Cluster"]
