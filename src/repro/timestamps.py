"""Timestamps for ordering register operations (paper Section 2.3).

Each process provides a non-blocking ``newTS`` operation returning totally
ordered timestamps with three properties:

* **UNIQUENESS** — any two invocations (on any processes) return different
  timestamps;
* **MONOTONICITY** — successive invocations on one process return
  increasing timestamps;
* **PROGRESS** — if ``newTS`` on some process returns ``t``, another
  process invoking ``newTS`` infinitely often eventually receives a
  timestamp larger than ``t``.

As the paper notes, a logical or loosely synchronized real-time clock
combined with the issuer's process id to break ties satisfies all three.
We implement exactly that: a :class:`Timestamp` is a ``(time, process_id)``
pair, and :class:`TimestampSource` is a per-process hybrid clock that can
model clock skew (used by the abort-rate ablation benchmarks).

Two distinguished sentinels exist: :data:`LOW_TS` compares below every
generated timestamp and :data:`HIGH_TS` above every generated timestamp.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Optional

from .errors import ConfigurationError

__all__ = [
    "Timestamp",
    "LOW_TS",
    "HIGH_TS",
    "TimestampSource",
]


class Timestamp(tuple):
    """A totally ordered timestamp: ``(time, process_id)`` lexicographic.

    ``kind`` distinguishes the two sentinels from ordinary timestamps:
    ``-1`` for :data:`LOW_TS`, ``0`` for generated timestamps, ``+1`` for
    :data:`HIGH_TS`.  Sentinels sort strictly below / above every
    generated timestamp regardless of their numeric fields.

    The value is the tuple ``(kind, time, process_id)``, so ordering,
    equality and hashing are the builtin tuple's, run in C on every log
    bisection and handler comparison.
    """

    __slots__ = ()

    def __new__(cls, time: int, process_id: int,
                kind: int = 0) -> "Timestamp":
        return tuple.__new__(cls, (kind, time, process_id))

    def __getnewargs__(self):
        # pickle and copy rebuild through __new__'s argument order.
        return (self[1], self[2], self[0])

    kind = property(itemgetter(0), doc="-1 LowTS, 0 generated, +1 HighTS.")
    time = property(itemgetter(1), doc="The clock reading (ticks).")
    process_id = property(itemgetter(2), doc="The issuer, breaking ties.")

    def __repr__(self) -> str:
        kind = self[0]
        if kind < 0:
            return "LowTS"
        if kind > 0:
            return "HighTS"
        return f"TS({self[1]},{self[2]})"

    @property
    def is_low(self) -> bool:
        """True iff this is the :data:`LOW_TS` sentinel."""
        return self[0] < 0

    @property
    def is_high(self) -> bool:
        """True iff this is the :data:`HIGH_TS` sentinel."""
        return self[0] > 0


#: Sentinel below every generated timestamp (the paper's ``LowTS``).
LOW_TS = Timestamp(0, 0, kind=-1)

#: Sentinel above every generated timestamp (the paper's ``HighTS``).
HIGH_TS = Timestamp(0, 0, kind=+1)


class TimestampSource:
    """Per-process ``newTS`` implementation (a hybrid logical clock).

    The source combines a physical-clock reading (supplied by a callable,
    typically the simulation clock plus a per-process skew) with a logical
    counter that guarantees local monotonicity even if the physical clock
    stalls or runs backwards, and uses the process id as the tiebreaker
    giving global uniqueness.

    Args:
        process_id: id of the owning process; must be positive so that
            generated timestamps never collide with the sentinels.
        clock: optional callable returning the current physical time as a
            number.  When ``None``, the source is purely logical.
        skew: constant offset added to every clock reading, used by the
            benchmarks to model clock-synchronization error.  Larger skew
            raises the protocol's abort rate but never hurts safety
            (paper Section 3).
        resolution: multiplier converting clock readings to integer
            ticks.  Finer resolution reduces spurious ties.
    """

    def __init__(
        self,
        process_id: int,
        clock: Optional[Callable[[], float]] = None,
        skew: float = 0.0,
        resolution: float = 1_000_000.0,
    ) -> None:
        if process_id <= 0:
            raise ConfigurationError(
                f"process_id must be positive, got {process_id}"
            )
        self._process_id = process_id
        self._clock = clock
        self._skew = skew
        self._resolution = resolution
        self._last_time = 0

    @property
    def process_id(self) -> int:
        """Id of the process owning this source."""
        return self._process_id

    def _physical_ticks(self) -> int:
        if self._clock is None:
            return 0
        reading = self._clock() + self._skew
        return int(reading * self._resolution)

    def new_ts(self) -> Timestamp:
        """Generate a fresh timestamp (the paper's ``newTS``).

        Returns the maximum of the (skewed) physical reading and the
        previous value plus one, so the result is strictly larger than
        every timestamp previously produced by this source.
        """
        ticks = max(self._physical_ticks(), self._last_time + 1)
        self._last_time = ticks
        return Timestamp(ticks, self._process_id)

    def observe(self, ts: Timestamp) -> None:
        """Advance the logical clock past an externally observed timestamp.

        Not required for the paper's properties, but adopting observed
        timestamps (Lamport-style) dramatically reduces the abort rate
        when physical clocks are badly skewed; the ablation benchmark
        exercises both modes.
        """
        if ts.kind == 0 and ts.time > self._last_time:
            self._last_time = ts.time
