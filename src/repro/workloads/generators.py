"""Workload generators: access patterns and conflict schedules."""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "AccessPattern",
    "UniformPattern",
    "ZipfPattern",
    "ConflictSchedule",
]


class AccessPattern(abc.ABC):
    """Chooses which logical block each operation touches."""

    @abc.abstractmethod
    def next_block(self, rng: random.Random, num_blocks: int) -> int:
        """The next block index in ``0..num_blocks-1``."""


class UniformPattern(AccessPattern):
    """Uniformly random block choice — the conflict-minimizing pattern."""

    def next_block(self, rng: random.Random, num_blocks: int) -> int:
        return rng.randrange(num_blocks)


class ZipfPattern(AccessPattern):
    """Zipf-skewed choice: a hot set concentrates accesses.

    Args:
        exponent: skew parameter ``s`` (1.0 is classic Zipf; larger is
            hotter).  Popularity rank is a random permutation of blocks,
            fixed per pattern instance.
    """

    def __init__(self, exponent: float = 1.0, seed: int = 0) -> None:
        if exponent <= 0:
            raise ConfigurationError(f"exponent must be positive, got {exponent}")
        self.exponent = exponent
        self._perm_seed = seed
        self._weights: Optional[List[float]] = None
        self._perm: Optional[List[int]] = None
        self._size = 0

    def _prepare(self, num_blocks: int) -> None:
        if self._weights is not None and self._size == num_blocks:
            return
        self._size = num_blocks
        raw = [1.0 / (rank**self.exponent) for rank in range(1, num_blocks + 1)]
        total = sum(raw)
        self._weights = [w / total for w in raw]
        perm_rng = random.Random(self._perm_seed)
        self._perm = list(range(num_blocks))
        perm_rng.shuffle(self._perm)

    def next_block(self, rng: random.Random, num_blocks: int) -> int:
        self._prepare(num_blocks)
        return self._perm[
            rng.choices(range(num_blocks), weights=self._weights, k=1)[0]
        ]


@dataclass
class ConflictSchedule:
    """Deliberately overlapping operations for the abort-rate ablation.

    Generates rounds; in each round, ``writers`` distinct coordinators
    write the *same* register within a ``spread`` time window (launch
    times jittered inside it).  ``conflict_probability`` dials what
    fraction of rounds actually collide; non-colliding rounds place the
    writers on distinct registers.

    Attributes:
        num_registers: register pool size.
        writers: concurrent coordinators per round.
        spread: launch-time window width (simulated time units).
        conflict_probability: P(round targets a single shared register).
        seed: RNG seed.
    """

    num_registers: int
    writers: int = 2
    spread: float = 1.0
    conflict_probability: float = 1.0
    seed: int = 0

    def rounds(self, count: int) -> List[List[Tuple[int, float]]]:
        """``count`` rounds of ``(register_id, launch_offset)`` per writer."""
        rng = random.Random(self.seed)
        result: List[List[Tuple[int, float]]] = []
        for _ in range(count):
            collide = rng.random() < self.conflict_probability
            if collide:
                register = rng.randrange(self.num_registers)
                round_ops = [
                    (register, rng.uniform(0.0, self.spread))
                    for _ in range(self.writers)
                ]
            else:
                registers = rng.sample(
                    range(self.num_registers), min(self.writers, self.num_registers)
                )
                round_ops = [
                    (registers[i % len(registers)], rng.uniform(0.0, self.spread))
                    for i in range(self.writers)
                ]
            result.append(round_ops)
        return result
