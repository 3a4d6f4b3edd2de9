"""m-quorum systems (paper Section 2.2 and Appendix A).

An *m-quorum system* over a universe of ``n`` processes is a set of
quorums where any two quorums intersect in at least ``m`` processes, and
a quorum avoiding the faulty set exists for every faulty set of size
``f``.  Theorem 2 shows such a system exists iff ``n >= 2f + m``; the
canonical construction takes all subsets of size ``n - f``.

This subpackage provides the canonical construction
(:class:`~repro.quorum.system.MajorityMQuorumSystem`), explicit quorum
systems for verification, and existence checks
(:mod:`repro.quorum.theorems`).
"""

from .system import ExplicitQuorumSystem, MajorityMQuorumSystem, MQuorumSystem
from .theorems import (
    max_fault_tolerance,
    min_processes,
    mquorum_exists,
    verify_quorum_system,
)

__all__ = [
    "MQuorumSystem",
    "MajorityMQuorumSystem",
    "ExplicitQuorumSystem",
    "mquorum_exists",
    "min_processes",
    "max_fault_tolerance",
    "verify_quorum_system",
]
