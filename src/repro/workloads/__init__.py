"""Synthetic workload generation.

The paper's abort-rate and fast-path claims (Section 3) are workload
claims: real block workloads almost never issue concurrent conflicting
accesses to the same data, so aborts are rare and the optimistic read
path dominates.  The authors checked real traces; we provide synthetic
generators with explicit dials for the properties that matter —
read/write mix, access skew (uniform / Zipf), and a
*conflict dial* that schedules deliberately overlapping operations —
plus a simple trace format and replayer.
"""

from .generators import (
    AccessPattern,
    ConflictSchedule,
    UniformPattern,
    ZipfPattern,
)
from .traces import TraceOp, TraceReplayer, synthesize_trace

__all__ = [
    "AccessPattern",
    "UniformPattern",
    "ZipfPattern",
    "ConflictSchedule",
    "TraceOp",
    "TraceReplayer",
    "synthesize_trace",
]
