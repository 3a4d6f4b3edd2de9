"""Existence results for m-quorum systems (paper Appendix A).

Theorem 2 states that an m-quorum system over ``n`` processes tolerating
``f`` faults exists **iff** ``n >= 2f + m``.  These helpers compute the
bound in each direction and verify arbitrary quorum families against
Definition 1 — both used heavily by the test suite's exhaustive and
property-based checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Tuple

from ..erasure.interface import ErasureCode
from ..errors import ConfigurationError
from ..types import ProcessId

__all__ = [
    "mquorum_exists",
    "min_processes",
    "max_fault_tolerance",
    "verify_quorum_system",
    "QuorumSystemReport",
]


def mquorum_exists(n: int, m: int, f: int) -> bool:
    """True iff an m-quorum system exists (Theorem 2: ``n >= 2f + m``)."""
    if n < 1 or m < 1 or f < 0:
        raise ConfigurationError(
            f"need n >= 1, m >= 1, f >= 0; got n={n}, m={m}, f={f}"
        )
    return n >= 2 * f + m


def min_processes(m: int, f: int) -> int:
    """Fewest processes supporting intersection ``m`` and ``f`` faults."""
    if m < 1 or f < 0:
        raise ConfigurationError(f"need m >= 1, f >= 0; got m={m}, f={f}")
    return 2 * f + m


def max_fault_tolerance(code: ErasureCode) -> int:
    """Largest tolerable ``f`` for ``code``: ``floor((d - 1) / 2)``.

    A read decodes from the intersection of two quorums of ``n - f``
    processes, which misses at most ``2f`` blocks; every such erasure
    pattern is decodable iff ``2f <= d - 1``, ``d`` the code's minimum
    distance.  For an MDS code ``d = n - m + 1``, which gives Theorem 2's
    ``floor((n - m) / 2)``; a non-MDS code (an LRC) tolerates less.
    """
    return (code.min_distance - 1) // 2


@dataclass
class QuorumSystemReport:
    """Outcome of verifying a quorum family against Definition 1."""

    consistent: bool
    available: bool
    violations: List[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        """True iff both CONSISTENCY and AVAILABILITY hold."""
        return self.consistent and self.available


def verify_quorum_system(
    n: int,
    m: int,
    f: int,
    quorums: Iterable[Iterable[ProcessId]],
    max_violations: int = 10,
) -> QuorumSystemReport:
    """Check a quorum family against Definition 1 by exhaustion.

    CONSISTENCY: every pair of quorums intersects in at least ``m``
    processes.  AVAILABILITY: for every ``f``-subset of the universe,
    some quorum avoids it.  Exponential in ``n``; intended for tests.

    Returns a :class:`QuorumSystemReport` describing up to
    ``max_violations`` concrete violations of each property.
    """
    family: List[FrozenSet[ProcessId]] = [frozenset(q) for q in quorums]
    report = QuorumSystemReport(consistent=True, available=True)

    def note(message: str) -> None:
        if len(report.violations) < max_violations:
            report.violations.append(message)

    for q1, q2 in itertools.combinations_with_replacement(family, 2):
        if len(q1 & q2) < m:
            report.consistent = False
            note(
                f"|{sorted(q1)} ∩ {sorted(q2)}| = {len(q1 & q2)} < m={m}"
            )

    universe: Tuple[ProcessId, ...] = tuple(range(1, n + 1))
    if f > 0:
        for faulty in itertools.combinations(universe, f):
            faulty_set = set(faulty)
            if not any(q.isdisjoint(faulty_set) for q in family):
                report.available = False
                note(f"no quorum avoids faulty set {sorted(faulty_set)}")
    return report
