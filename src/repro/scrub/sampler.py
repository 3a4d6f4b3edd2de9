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

* :class:`PairSampler` — the one scan order: a seeded permutation of the
  pair space per *lap*, walked a budget of pairs per cycle.  Each cycle
  is a uniform sample without replacement (so the confidence math
  holds), and a lap visits every pair exactly once, so with ``P`` pairs
  and a budget ``b`` every pair is visited within ``ceil(P / b)``
  cycles.  Pure sampling alone has an unbounded worst case; the lap
  bounds it.
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
from typing import Dict, Iterable, List, Optional, Set, Tuple

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
    """The scan order: one seeded permutation of the pair space per lap.

    Args:
        seed: RNG seed; equal seeds reproduce identical scan sequences
            over identical pair lists (the campaign determinism
            property).

    :meth:`start_lap` takes the *current* pair list (callers resolve it
    once per lap, so growth and deletion are picked up when the next
    lap starts) and shuffles it; :meth:`draw` walks the permutation.
    The last draw of a lap may come up short: a lap never spills into
    the next one, so each lap is exactly one pass.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        #: The current lap's pairs, in scan order.
        self.lap: List[Pair] = []
        self._walked = 0

    @property
    def lap_done(self) -> bool:
        """True when every pair of the current lap has been drawn."""
        return self._walked >= len(self.lap)

    def start_lap(self, pairs: Iterable[Pair]) -> None:
        """Begin a pass over ``pairs`` in a fresh seeded order."""
        self.lap = list(pairs)
        self._rng.shuffle(self.lap)
        self._walked = 0

    def draw(self, count: int) -> List[Pair]:
        """The next (up to) ``count`` pairs of the current lap."""
        drawn = self.lap[self._walked:self._walked + max(0, count)]
        self._walked += len(drawn)
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
