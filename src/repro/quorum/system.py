"""m-quorum system constructions (Definition 1 of the paper).

Two implementations are provided:

* :class:`MajorityMQuorumSystem` — the canonical system from Lemma 3/4:
  every subset of size ``n - f`` is a quorum.  This is what the protocol
  uses in practice; membership tests are O(1).
* :class:`ExplicitQuorumSystem` — an arbitrary user-supplied family of
  quorums, validated against Definition 1.  Useful for tests and for
  experimenting with non-canonical systems (e.g. grid-like systems).
"""

from __future__ import annotations

import abc
import itertools
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from ..erasure.interface import ErasureCode
from ..erasure.registry import make_code
from ..errors import ConfigurationError, QuorumError
from ..types import ProcessId
from .theorems import max_fault_tolerance

__all__ = ["MQuorumSystem", "MajorityMQuorumSystem", "ExplicitQuorumSystem"]


class MQuorumSystem(abc.ABC):
    """Abstract m-quorum system over processes ``1..n``."""

    def __init__(self, n: int, m: int) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if not 1 <= m <= n:
            raise ConfigurationError(f"m must be in 1..{n}, got {m}")
        self._n = n
        self._m = m

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def m(self) -> int:
        """Required pairwise quorum intersection."""
        return self._m

    @property
    def universe(self) -> Tuple[ProcessId, ...]:
        """The process universe ``(1, ..., n)``."""
        return tuple(range(1, self._n + 1))

    @abc.abstractmethod
    def is_quorum(self, processes: Iterable[ProcessId]) -> bool:
        """True iff the given set of processes contains a quorum."""

    @abc.abstractmethod
    def quorums(self) -> Iterator[FrozenSet[ProcessId]]:
        """Iterate over all (minimal) quorums.

        May be exponential in ``n``; intended for tests and small
        systems.
        """

    @abc.abstractmethod
    def min_quorum_size(self) -> int:
        """Size of the smallest quorum."""

    def find_live_quorum(
        self, live: Iterable[ProcessId]
    ) -> FrozenSet[ProcessId]:
        """Return a quorum contained in ``live``.

        Raises:
            QuorumError: if no quorum is fully live.
        """
        live_set = frozenset(live)
        if self.is_quorum(live_set):
            for quorum in self.quorums():
                if quorum <= live_set:
                    return quorum
        raise QuorumError(
            f"no quorum available among live processes {sorted(live_set)}"
        )


class MajorityMQuorumSystem(MQuorumSystem):
    """The canonical construction: quorums are all sets of size >= n - f.

    With ``f = floor((n - m) / 2)`` (the maximum tolerable by Theorem 2)
    this gives quorums of size ``n - f = ceil((n + m) / 2)``, and any two
    quorums intersect in at least ``2(n - f) - n >= m`` processes.  For a
    non-MDS code ``m`` common processes are not enough: the intersection
    must decode, and the bound is the code's
    (:func:`~repro.quorum.theorems.max_fault_tolerance`).

    Args:
        n: universe size.
        m: required intersection.
        f: fault tolerance; defaults to the code's maximum.
        enforce_bound: when False, skip the ``f`` bound check and build
            the (unsound) system anyway.  Two quorums then can intersect
            in a set that does not decode (fewer than ``m`` processes,
            for an MDS code), so reads can miss committed writes —
            exactly the broken configuration the fault-campaign engine
            uses to validate that its invariant checks actually fire.
            Never use outside deliberate negative testing.
        code: the ``m``-of-``n`` erasure code the quorums serve; defaults
            to an MDS code, whose bound is Theorem 2's.
    """

    def __init__(self, n: int, m: int, f: int | None = None,
                 enforce_bound: bool = True,
                 code: ErasureCode | None = None) -> None:
        super().__init__(n, m)
        if code is None:
            code = make_code(m, n)
        if (code.m, code.n) != (m, n):
            raise ConfigurationError(
                f"code {code!r} does not match n={n}, m={m}"
            )
        max_f = max_fault_tolerance(code)
        if f is None:
            f = max_f
        if f < 0:
            raise ConfigurationError(f"f must be >= 0, got {f}")
        if f > max_f and enforce_bound:
            raise ConfigurationError(
                f"f={f} exceeds the bound floor((d-1)/2)={max_f} of "
                f"{code!r} (minimum distance d={code.min_distance})"
            )
        if f >= n:
            raise ConfigurationError(f"f must be < n={n}, got {f}")
        self._f = f

    @property
    def f(self) -> int:
        """Number of faulty processes tolerated."""
        return self._f

    @property
    def quorum_size(self) -> int:
        """Quorum cardinality ``n - f``."""
        return self._n - self._f

    def is_quorum(self, processes: Iterable[ProcessId]) -> bool:
        unique = {p for p in processes if 1 <= p <= self._n}
        return len(unique) >= self.quorum_size

    def quorums(self) -> Iterator[FrozenSet[ProcessId]]:
        for combo in itertools.combinations(self.universe, self.quorum_size):
            yield frozenset(combo)

    def min_quorum_size(self) -> int:
        return self.quorum_size

    def find_live_quorum(self, live: Iterable[ProcessId]) -> FrozenSet[ProcessId]:
        live_set = sorted({p for p in live if 1 <= p <= self._n})
        if len(live_set) < self.quorum_size:
            raise QuorumError(
                f"only {len(live_set)} live processes, quorum needs "
                f"{self.quorum_size}"
            )
        return frozenset(live_set[: self.quorum_size])

    def __repr__(self) -> str:
        return (
            f"MajorityMQuorumSystem(n={self._n}, m={self._m}, f={self._f}, "
            f"quorum_size={self.quorum_size})"
        )


class ExplicitQuorumSystem(MQuorumSystem):
    """An m-quorum system given by an explicit family of quorums.

    The constructor validates Definition 1: pairwise intersections of at
    least ``m``, and availability for every faulty set of size ``f``.

    Args:
        n: universe size.
        m: required intersection.
        quorums: the quorum family.
        f: faulty-set size to validate availability against; pass ``0``
            to skip the availability check.
    """

    def __init__(
        self,
        n: int,
        m: int,
        quorums: Sequence[Iterable[ProcessId]],
        f: int = 0,
    ) -> None:
        super().__init__(n, m)
        family: List[FrozenSet[ProcessId]] = []
        for quorum in quorums:
            qset = frozenset(quorum)
            for p in qset:
                if not 1 <= p <= n:
                    raise ConfigurationError(
                        f"quorum member {p} outside universe 1..{n}"
                    )
            family.append(qset)
        if not family:
            raise ConfigurationError("quorum family must be non-empty")
        self._family = family
        self._f = f
        self._validate()

    def _validate(self) -> None:
        for q1, q2 in itertools.combinations(self._family, 2):
            if len(q1 & q2) < self._m:
                raise ConfigurationError(
                    f"CONSISTENCY violated: |{sorted(q1)} ∩ {sorted(q2)}| "
                    f"< m={self._m}"
                )
        # Self-intersection: each quorum must itself have >= m members.
        for q in self._family:
            if len(q) < self._m:
                raise ConfigurationError(
                    f"quorum {sorted(q)} smaller than m={self._m}"
                )
        if self._f > 0:
            universe: Set[ProcessId] = set(self.universe)
            for faulty in itertools.combinations(universe, self._f):
                faulty_set = set(faulty)
                if not any(q.isdisjoint(faulty_set) for q in self._family):
                    raise ConfigurationError(
                        f"AVAILABILITY violated: no quorum avoids faulty set "
                        f"{sorted(faulty_set)}"
                    )

    @property
    def f(self) -> int:
        """Faulty-set size the family was validated against."""
        return self._f

    def is_quorum(self, processes: Iterable[ProcessId]) -> bool:
        pset = frozenset(processes)
        return any(q <= pset for q in self._family)

    def quorums(self) -> Iterator[FrozenSet[ProcessId]]:
        return iter(self._family)

    def min_quorum_size(self) -> int:
        return min(len(q) for q in self._family)

    def __repr__(self) -> str:
        return (
            f"ExplicitQuorumSystem(n={self._n}, m={self._m}, "
            f"|quorums|={len(self._family)})"
        )
