"""Input generation and checking shared by the serving workloads.

Everything a workload feeds the system comes from here and from
``random.Random`` seeded by ``--seed``: the payload pool, each trial's
operation plan, and the open-loop arrival schedule.  The system under
test only ever sees the generated inputs.

A plan is a list of plain tuples so it can be digested and compared
between runs::

    ("r",  block)                 one-block read
    ("w",  block, pool_index)     one-block write
    ("rs", stripe)                full-stripe read  (stripe_shuffle off)
    ("ws", stripe, (i1, .., im))  full-stripe write (stripe_shuffle off)
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "POOL_BLOCKS",
    "rng_for",
    "make_pool",
    "make_plan",
    "poisson_schedule",
    "digest",
    "Model",
    "count_failed",
    "latency_ms",
]

#: Distinct random payload blocks a workload draws its writes from.
POOL_BLOCKS = 64


def rng_for(seed: int, *scope) -> random.Random:
    """The generator for one named part of a run (setup, trial 3, ...)."""
    return random.Random("/".join(str(part) for part in (seed,) + scope))


def make_pool(rng: random.Random, block_size: int) -> List[bytes]:
    """``POOL_BLOCKS`` random blocks; writes pick from these by index."""
    return [rng.randbytes(block_size) for _ in range(POOL_BLOCKS)]


def make_plan(
    rng: random.Random,
    ops: int,
    mix: Sequence[Tuple[float, str]],
    num_blocks: int,
    m: int,
    blocks: Optional[Sequence[int]] = None,
) -> List[tuple]:
    """``ops`` operations drawn from ``mix`` = ``[(weight, kind), ...]``.

    Addresses are uniform over the volume, or over ``blocks`` when a
    closed-loop client owns only some of it.
    """
    kinds = [kind for _weight, kind in mix]
    weights = [weight for weight, _kind in mix]
    stripes = num_blocks // m
    plan = []
    for kind in rng.choices(kinds, weights, k=ops):
        if kind in ("r", "w"):
            block = (
                rng.randrange(num_blocks) if blocks is None
                else blocks[rng.randrange(len(blocks))]
            )
            if kind == "r":
                plan.append(("r", block))
            else:
                plan.append(("w", block, rng.randrange(POOL_BLOCKS)))
        elif kind == "rs":
            plan.append(("rs", rng.randrange(stripes)))
        else:
            plan.append((
                "ws", rng.randrange(stripes),
                tuple(rng.randrange(POOL_BLOCKS) for _ in range(m)),
            ))
    return plan


def poisson_schedule(
    rng: random.Random, rate: float, duration: float
) -> List[float]:
    """Due times (seconds from the start) of arrivals at ``rate``.

    A Poisson process conditioned on its count: exactly
    ``round(rate * duration)`` arrivals, uniform over the interval, so
    gaps are exponential-like but every trial offers the same number
    of ops and trials are comparable.
    """
    count = max(1, round(rate * duration))
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


def digest(*parts) -> str:
    """A short stable digest of generated inputs (plans, schedules)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class Model:
    """What each block must read as: the last write submitted to it.

    A session dispatches in submission order per register, so a read
    submitted after a write of the same block must return that write —
    across in-flight operations too.  Blocks never written read as
    zeros (the register's nil).
    """

    def __init__(self, volume, pool: Sequence[bytes]) -> None:
        self.volume = volume
        self.pool = pool
        self.m = volume.m
        self._zero = bytes(volume.block_size)
        self._blocks: Dict[int, bytes] = {}

    def expect(self, block: int) -> bytes:
        return self._blocks.get(block, self._zero)

    def submit(self, session, entry: tuple, stamp: Optional[int] = None):
        """Submit one plan entry; returns ``(SessionOp, expected)``.

        ``expected`` is None for writes.  ``stamp`` makes a written
        value unique (the linearizability checker's assumption) by
        overwriting the block's last eight bytes.
        """
        kind = entry[0]
        if kind == "r":
            return session.submit_read(entry[1]), self.expect(entry[1])
        if kind == "w":
            data = self.pool[entry[2]]
            if stamp is not None:
                data = data[:-8] + stamp.to_bytes(8, "big")
            self._blocks[entry[1]] = data
            return session.submit_write(entry[1], data), None
        first = entry[1] * self.m
        if kind == "rs":
            (op,) = session.submit_read_range(first, self.m)
            return op, [self.expect(first + unit) for unit in range(self.m)]
        data_blocks = [self.pool[index] for index in entry[2]]
        for unit, data in enumerate(data_blocks):
            self._blocks[first + unit] = data
        (op,) = session.submit_write_range(first, data_blocks)
        return op, None


def count_failed(records: Sequence[tuple]) -> int:
    """Operations that did not end ``ok`` or read the wrong bytes.

    ``records`` holds ``(SessionOp, expected, ...)`` tuples; an op still
    pending at the workload's deadline is neither ``ok`` nor right.
    """
    return sum(
        1 for record in records
        if not record[0].ok
        or (record[1] is not None and record[0].value != record[1])
    )


def latency_ms(finished_at: float, due_at: float, units_per_s: float) -> float:
    """Latency of an op from its *due* time, in milliseconds.

    Both stamps are transport time units (``units_per_s`` of them per
    second).  Timing from the due time, not the submit time, charges an
    op for any stall that delayed the generator itself.
    """
    return (finished_at - due_at) * 1000.0 / units_per_s
