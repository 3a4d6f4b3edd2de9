"""System-level MTTDL models (Figure 2).

Three system designs, each laid out over ``N`` bricks sized to the
requested logical capacity:

* :class:`StripingSystem` — data striped with **no** cross-brick
  redundancy; one brick data-loss event loses system data.
* :class:`ReplicationSystem` — ``k``-way replication across bricks;
  data survives up to ``k - 1`` concurrent brick failures.
* :class:`ErasureCodedSystem` — ``m``-of-``n`` erasure coding; data
  survives ``n - m`` concurrent brick failures.
* :class:`LRCSystem` — local-reconstruction coding: ``m`` data bricks
  in ``L`` locally-parity-protected groups plus ``g`` global parities.
  Trades one parity's worth of tolerance against Reed-Solomon at equal
  overhead for group-local rebuild, which shortens the repair window
  (and the window is what MTTDL is most sensitive to).

**The placement model.**  A group-level Markov chain
(:func:`repro.reliability.markov.birth_death_mttdl`) gives the expected
time until ``t + 1`` bricks are concurrently down.  Whether that event
loses data depends on placement:

* ``placement="random"`` (the paper's "random data striping across
  bricks", our default): stripes live on random brick subsets, so a
  given set of ``t + 1`` failed bricks is fatal only if some stripe's
  brick set covers it.  With ``G`` independently placed segment groups
  of size ``n``, the fatal fraction is

      p = 1 - (1 - C(N - t - 1, n - t - 1) / C(N, n)) ** G

  and the system revisits the ``t + 1``-down state a geometric number
  of times (mean ``1 / p``) before hitting a fatal combination:
  ``MTTDL = MTTDL_markov(N) / p``.  This is the quantitative version of
  the paper's "MTTDL is roughly proportional to the number of
  combinations of brick failures that can lead to a data loss".

* ``placement="grouped"``: bricks are statically partitioned into
  redundancy groups; groups fail independently and the system MTTDL is
  the group MTTDL divided by the group count.

Placement needs a segment size: FAB distributes data in fixed-size
segment groups, so ``segment_gb`` controls how many distinct brick
subsets carry data.  The default (16 GB of logical data per group) is
the calibration under which the model reproduces the paper's Figure 3
anchor points — overhead 4.0 for replication/R0, ~3.2 for
replication/R5, 1.6 for EC(5,8)/R0 — at the one-million-year MTTDL
target; EXPERIMENTS.md reports the sensitivity to this choice.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace

from ..errors import ConfigurationError
from .components import HOURS_PER_YEAR, BrickParams
from .markov import birth_death_mttdl

__all__ = [
    "SystemModel",
    "StripingSystem",
    "ReplicationSystem",
    "ErasureCodedSystem",
    "LRCSystem",
]


@dataclass(frozen=True)
class SystemModel(abc.ABC):
    """Common frame: brick parameters + placement policy.

    Attributes:
        brick: the brick model (internal RAID level matters).
        placement: ``"random"`` or ``"grouped"`` (see module docstring).
        segment_gb: logical data per placement segment; smaller segments
            mean more distinct brick subsets carry data, increasing the
            fatal fraction under random placement.
    """

    brick: BrickParams = BrickParams()
    placement: str = "random"
    segment_gb: float = 16.0

    def __post_init__(self) -> None:
        if self.placement not in ("random", "grouped"):
            raise ConfigurationError(
                f"placement must be 'random' or 'grouped', got {self.placement!r}"
            )
        if self.segment_gb <= 0:
            raise ConfigurationError("segment_gb must be positive")

    # -- subclass responsibilities -------------------------------------

    @property
    @abc.abstractmethod
    def storage_overhead(self) -> float:
        """Raw/logical capacity ratio across bricks (excl. brick internals)."""

    @property
    @abc.abstractmethod
    def tolerated_failures(self) -> int:
        """Concurrent brick failures survived without data loss."""

    @property
    @abc.abstractmethod
    def group_size(self) -> int:
        """Bricks in one redundancy group."""

    @property
    @abc.abstractmethod
    def logical_gb_per_group(self) -> float:
        """Logical data carried by one placement segment group."""

    @property
    def repair_speedup(self) -> float:
        """Factor by which the layout shortens single-brick repair.

        The repair window scales with the bytes a rebuild must read;
        codes with repair locality (LRC) read a fraction of the stripe
        and finish proportionally sooner.  Default 1.0 (whole-stripe
        repair).
        """
        return 1.0

    # -- shared machinery -------------------------------------------------

    @property
    def total_overhead(self) -> float:
        """Raw/logical ratio including brick-internal RAID-5 parity."""
        return self.storage_overhead * self.brick.capacity_overhead

    def bricks_for(self, logical_capacity_tb: float) -> int:
        """Fleet size needed for the given logical capacity."""
        if logical_capacity_tb <= 0:
            raise ConfigurationError("capacity must be positive")
        raw_tb = logical_capacity_tb * self.storage_overhead
        return max(self.group_size, math.ceil(raw_tb / self.brick.capacity_tb))

    def segment_groups(self, logical_capacity_tb: float) -> int:
        """Number of placement segment groups for the given capacity."""
        return max(
            1, math.ceil(logical_capacity_tb * 1024.0 / self.logical_gb_per_group)
        )

    def fatal_fraction(self, logical_capacity_tb: float) -> float:
        """P(a random set of ``t+1`` concurrently-failed bricks is fatal).

        A failed set ``F`` (|F| = t+1) is fatal iff some segment group's
        brick set contains it.  Groups are placed independently and
        uniformly over ``C(N, n)`` brick subsets; of those,
        ``C(N - |F|, n - |F|)`` contain ``F``.
        """
        n_bricks = self.bricks_for(logical_capacity_tb)
        fatal_size = self.tolerated_failures + 1
        group = self.group_size
        if n_bricks <= group:
            return 1.0
        numerator = math.comb(n_bricks - fatal_size, group - fatal_size)
        denominator = math.comb(n_bricks, group)
        per_group = numerator / denominator
        groups = self.segment_groups(logical_capacity_tb)
        # 1 - (1 - q)^G computed stably for tiny q and huge G.
        return -math.expm1(groups * math.log1p(-per_group))

    def mttdl_hours(self, logical_capacity_tb: float) -> float:
        """System MTTDL in hours at the given logical capacity."""
        n_bricks = self.bricks_for(logical_capacity_tb)
        lam = self.brick.data_loss_rate
        mu = self.repair_speedup / self.brick.brick_repair_hours
        t = self.tolerated_failures
        if self.placement == "grouped" and self.group_size > 1:
            groups = max(1, math.ceil(n_bricks / self.group_size))
            group_mttdl = birth_death_mttdl(self.group_size, t, lam, mu)
            return group_mttdl / groups
        base = birth_death_mttdl(n_bricks, t, lam, mu)
        if t == 0:
            return base  # every brick carries data: always fatal
        p_fatal = self.fatal_fraction(logical_capacity_tb)
        if p_fatal <= 0.0:
            raise ConfigurationError("fatal fraction underflowed to zero")
        return base / p_fatal

    def mttdl_years(self, logical_capacity_tb: float) -> float:
        """System MTTDL in years."""
        return self.mttdl_hours(logical_capacity_tb) / HOURS_PER_YEAR

    def with_brick(self, brick: BrickParams) -> "SystemModel":
        """A copy of this model with different brick parameters."""
        return replace(self, brick=brick)


@dataclass(frozen=True)
class StripingSystem(SystemModel):
    """Striping over bricks with no cross-brick redundancy.

    Figure 2 draws this with "reliable R5 bricks": high-end arrays with
    internal RAID-5.  One brick data-loss event loses system data, so
    MTTDL falls as ``1 / N`` — "adequate only for small systems".
    """

    @property
    def storage_overhead(self) -> float:
        return 1.0

    @property
    def tolerated_failures(self) -> int:
        return 0

    @property
    def group_size(self) -> int:
        return 1

    @property
    def logical_gb_per_group(self) -> float:
        return self.segment_gb


@dataclass(frozen=True)
class ReplicationSystem(SystemModel):
    """k-way replication across bricks."""

    replicas: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {self.replicas}")

    @property
    def storage_overhead(self) -> float:
        return float(self.replicas)

    @property
    def tolerated_failures(self) -> int:
        return self.replicas - 1

    @property
    def group_size(self) -> int:
        return self.replicas

    @property
    def logical_gb_per_group(self) -> float:
        # One replica group carries one segment of logical data.
        return self.segment_gb


@dataclass(frozen=True)
class ErasureCodedSystem(SystemModel):
    """m-of-n erasure coding across bricks."""

    m: int = 5
    n: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.m <= self.n:
            raise ConfigurationError(f"need 1 <= m <= n, got m={self.m} n={self.n}")

    @property
    def storage_overhead(self) -> float:
        return self.n / self.m

    @property
    def tolerated_failures(self) -> int:
        return self.n - self.m

    @property
    def group_size(self) -> int:
        return self.n

    @property
    def logical_gb_per_group(self) -> float:
        # A stripe group of n bricks holds m segments of logical data.
        return self.m * self.segment_gb


@dataclass(frozen=True)
class LRCSystem(SystemModel):
    """Local-reconstruction coding across bricks.

    ``m`` data bricks are split into ``local_groups`` balanced groups,
    each with one XOR parity; ``global_parities`` Cauchy rows cover
    multi-failure patterns (:class:`repro.erasure.lrc.LRCCode` is the
    executable counterpart).  The model captures the LRC trade:

    * at-rest tolerance: any ``global_parities + 1`` concurrent
      failures (the standard LRC guarantee — one loss repairs locally,
      the rest lean on the globals), versus ``n - m`` for Reed-Solomon
      at the same overhead.  This is the erasures a stripe survives,
      which is what MTTDL needs; it is not the protocol's f, which is
      ``quorum.theorems.max_fault_tolerance(code)`` (1 for LRC(4,8));
    * repair: a single failed brick is rebuilt from its local group —
      ``ceil(m / L)`` reads instead of ``m`` — so the repair rate
      scales up by :attr:`repair_speedup` and the window in which a
      second failure can compound shrinks by the same factor.
    """

    m: int = 4
    local_groups: int = 2
    global_parities: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.m < 1:
            raise ConfigurationError(f"m must be >= 1, got {self.m}")
        if not 1 <= self.local_groups <= self.m:
            raise ConfigurationError(
                f"need 1 <= local_groups <= m, got {self.local_groups}"
            )
        if self.global_parities < 0:
            raise ConfigurationError(
                f"global_parities must be >= 0, got {self.global_parities}"
            )

    @property
    def n(self) -> int:
        """Total bricks per stripe: data + local + global parities."""
        return self.m + self.local_groups + self.global_parities

    @property
    def storage_overhead(self) -> float:
        return self.n / self.m

    @property
    def tolerated_failures(self) -> int:
        return self.global_parities + 1

    @property
    def group_size(self) -> int:
        return self.n

    @property
    def logical_gb_per_group(self) -> float:
        return self.m * self.segment_gb

    @property
    def local_read_cost(self) -> int:
        """Fragments read to rebuild one lost brick (largest group)."""
        return math.ceil(self.m / self.local_groups)

    @property
    def repair_speedup(self) -> float:
        return self.m / self.local_read_cost
