"""Confidence-driven sampling primitives for the scrub scheduler.

The exhaustive sweep verifies every (register, brick) pair per cycle —
O(fleet) work that is untenable at millions of registers.  The key
observation (borrowed from data-availability sampling) is that the
scrubber's real job is *detection*: if a fraction ``p`` of the pair
space is corrupt, a uniform random sample of ``s`` pairs misses every
corrupt pair with probability ``(1 - p)^s``, independent of fleet size.
Solving for a target detection confidence ``c`` gives

    s >= ln(1 - c) / ln(1 - p)

samples per cycle — a few hundred scans for 95% confidence at a 1%
corruption rate, whether the fleet holds a thousand pairs or a billion.
:func:`required_samples` is that formula; :func:`detection_confidence`
is its inverse (the confidence a given budget buys).

Three scheduling structures turn the math into a scrubber:

* :class:`PairSampler` — seeded uniform draws over the live pair list,
  with a persistent *aging cursor*: a quarter of every draw is taken
  round-robin from the cursor, so every live pair is visited within
  ``ceil(pairs / aging_share)`` cycles even if the uniform draws never
  land on it.  Pure sampling alone has an unbounded worst case;
  the cursor bounds it.
* :class:`RevisitQueue` — a max-priority queue of registers that
  deserve attention before cold ones: known-dirty, quarantined, or
  just-repaired (to re-verify the write-back).  Severity-ordered with
  FIFO tie-breaking; stale entries are dropped lazily.
* :class:`RepairQueue` — a budgeted admission queue for repair
  write-backs: at most ``max_inflight`` concurrent repairs, admitted in
  fragments-lost severity order, so a burst of detections cannot flood
  the protocol with rebuild traffic.

Everything is deterministic given the seed: fixed-seed campaigns with
sampling enabled reproduce bit-identical scan sequences and counters.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError

__all__ = [
    "required_samples",
    "detection_confidence",
    "PairSampler",
    "RevisitQueue",
    "RepairQueue",
]

#: A scan target: (register_id, process_id).
Pair = Tuple[int, int]

#: Share of every draw taken round-robin from the aging cursor.
_AGING_FRACTION = 0.25


def required_samples(
    confidence: float, corrupt_rate: float, total_pairs: int
) -> int:
    """Samples per cycle for ``P(hit >= 1 corrupt pair) >= confidence``.

    Assumes a fraction ``corrupt_rate`` of the ``total_pairs`` pair
    space is corrupt and draws are uniform.  The result is clamped to
    ``[1, total_pairs]`` — when the confidence target needs more
    samples than pairs exist, sampling degenerates into the full sweep
    (which is exactly when the sweep is the better scheduler).
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"target confidence must be in (0, 1), got {confidence}"
        )
    if not 0.0 < corrupt_rate < 1.0:
        raise ConfigurationError(
            f"assumed corrupt rate must be in (0, 1), got {corrupt_rate}"
        )
    if total_pairs <= 0:
        return 0
    samples = math.ceil(math.log(1.0 - confidence) / math.log(1.0 - corrupt_rate))
    return max(1, min(int(samples), total_pairs))


def detection_confidence(samples: int, corrupt_rate: float) -> float:
    """Probability a cycle of ``samples`` uniform draws hits corruption.

    The forward form of :func:`required_samples`: with a fraction
    ``corrupt_rate`` of pairs corrupt, ``1 - (1 - p)^s``.
    """
    if samples <= 0 or corrupt_rate <= 0.0:
        return 0.0
    if corrupt_rate >= 1.0:
        return 1.0
    return 1.0 - (1.0 - corrupt_rate) ** samples


class PairSampler:
    """Seeded pair draws: uniform sampling plus an aging cursor.

    Args:
        seed: RNG seed; equal seeds reproduce identical draw sequences
            over identical pair lists (the campaign determinism
            property).

    A quarter of every draw (``_AGING_FRACTION``) is taken round-robin
    from the persistent cursor instead of uniformly.  This is the
    eventual-coverage guarantee: with a stable pair list of ``P`` pairs
    and a per-cycle budget ``b``, every pair is visited within
    ``ceil(P / max(1, b // 4))`` cycles, regardless of how the uniform
    draws fall.

    ``laps`` counts completed passes over the pair space: one per
    cumulative cursor advance of one pair-list length, and one per
    draw whose budget covers every pair.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        #: Lazily initialised to a seeded random phase on the first
        #: draw: a fixed start would make every sampler scan the same
        #: prefix first, correlating daemons fleet-wide.  The phase
        #: shifts, not weakens, the coverage bound.
        self._cursor: Optional[int] = None
        self.laps = 0
        self._lap_progress = 0

    def draw(self, pairs: Sequence[Pair], count: int) -> List[Pair]:
        """Up to ``count`` distinct pairs to scan this cycle.

        ``pairs`` is the *current* live pair list (callers re-resolve it
        every cycle, so growth and deletion are picked up immediately);
        it should be in a stable order — sorted — for the cursor's
        coverage bound to hold.  The aging share comes first, then
        uniform draws without replacement; duplicates between the two
        shares are dropped rather than topped up, so ``count`` is an
        upper bound on scan cost.  A ``count`` covering every pair is a
        full pass, in cursor order.
        """
        total = len(pairs)
        if total == 0 or count <= 0:
            return []
        if self._cursor is None:
            self._cursor = self._rng.randrange(total)
        if count >= total:
            self.laps += 1
            return [pairs[(self._cursor + i) % total] for i in range(total)]
        aging = min(count, max(1, int(count * _AGING_FRACTION)))
        drawn: List[Pair] = []
        seen: Set[Pair] = set()
        for offset in range(aging):
            pair = pairs[(self._cursor + offset) % total]
            if pair not in seen:
                seen.add(pair)
                drawn.append(pair)
        self._cursor = (self._cursor + aging) % total
        self._lap_progress += aging
        self.laps += self._lap_progress // total
        self._lap_progress %= total
        uniform = count - aging
        if uniform > 0:
            for pair in self._rng.sample(list(pairs), min(uniform, total)):
                if pair not in seen:
                    seen.add(pair)
                    drawn.append(pair)
        return drawn


class RevisitQueue:
    """Max-priority queue of registers to re-scan ahead of cold ones.

    ``push`` keeps only the highest severity seen per register (a
    re-push with lower severity is a no-op); ``pop`` returns the
    highest-severity register, FIFO among equals, or ``None`` when
    empty.  Superseded heap entries are discarded lazily at pop time,
    so the structure stays O(live registers) plus a transient of stale
    entries bounded by the push count since the last drain.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int]] = []
        self._severity: Dict[int, float] = {}
        self._order = 0

    def push(self, register_id: int, severity: float = 1.0) -> None:
        current = self._severity.get(register_id)
        if current is not None and current >= severity:
            return
        self._severity[register_id] = severity
        self._order += 1
        heapq.heappush(self._heap, (-severity, self._order, register_id))

    def pop(self) -> Optional[int]:
        while self._heap:
            negative, _order, register_id = heapq.heappop(self._heap)
            if self._severity.get(register_id) == -negative:
                del self._severity[register_id]
                return register_id
        return None

    def __len__(self) -> int:
        return len(self._severity)

    def __contains__(self, register_id: int) -> bool:
        return register_id in self._severity


class RepairQueue:
    """Budgeted admission control for repair write-backs.

    Registers are offered with a *severity* (fragments lost — the
    number of bricks whose copy of the register is dirty); admission is
    severity-ordered so the stripes closest to unrecoverable repair
    first.  At most ``max_inflight`` repairs run concurrently; the rest
    wait queued.  Offering a register already queued or in flight only
    raises its queued severity.
    """

    def __init__(self, max_inflight: int = 4) -> None:
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.max_inflight = max_inflight
        self._queue = RevisitQueue()
        self._inflight: Set[int] = set()

    def offer(self, register_id: int, severity: float = 1.0) -> None:
        if register_id in self._inflight:
            return
        self._queue.push(register_id, severity)

    def next_ready(self) -> Optional[int]:
        """Admit the next repair, or ``None`` (empty or budget spent).

        The returned register is counted in flight immediately; the
        caller must eventually call :meth:`finished` (successful or
        not) to release the slot.
        """
        if len(self._inflight) >= self.max_inflight:
            return None
        register_id = self._queue.pop()
        if register_id is None:
            return None
        self._inflight.add(register_id)
        return register_id

    def finished(self, register_id: int) -> None:
        self._inflight.discard(register_id)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    @property
    def queued(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[int]:  # pragma: no cover - debug aid
        return iter(sorted(self._inflight))
