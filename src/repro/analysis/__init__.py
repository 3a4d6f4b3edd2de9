"""Algorithm cost analysis (paper Section 5.2, Table 1).

:mod:`repro.analysis.costs` encodes Table 1's analytic formulas —
latency in δ (the maximum one-way message delay), message counts, disk
reads/writes, and network bandwidth in units of the block size ``B`` —
for every operation variant of our algorithm and of the LS97 baseline.

:mod:`repro.analysis.compare` lines those formulas up against costs
*measured* from simulation runs (via
:class:`~repro.sim.monitor.Metrics`), which is how the Table 1
benchmark validates the implementation against the paper.
"""

from .compare import ComparisonRow, compare_table1
from .costs import CostRow, ls97_costs, our_costs, table1

__all__ = [
    "CostRow",
    "our_costs",
    "ls97_costs",
    "table1",
    "ComparisonRow",
    "compare_table1",
]
