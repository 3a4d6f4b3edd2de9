"""The fault-campaign engine.

One campaign run = one seeded, fully deterministic experiment:

1. generate a fault schedule from the seed (or take an explicit one,
   e.g. from the shrinker);
2. build a :class:`~repro.core.cluster.FabCluster` with seed-derived
   clock skews and install a :class:`CampaignMonitor`;
3. drive a mixed read/write/block workload from several client drivers
   on different coordinator bricks, recording every operation in the
   verify layer's history recorders;
4. apply the schedule with :func:`~repro.campaign.schedule.
   apply_schedule`, sampling the timestamp monitor after each event;
5. drain (all faults withdrawn by the schedule generator, in-flight
   operations finish or time out), then check strict linearizability
   of every register's history.

Everything random derives from ``config.seed``: the schedule, the
clients' operation choices, the network jitter, the coordinators'
retransmission jitter.  Two runs with equal config and schedule produce
identical results — the property the shrinker and the determinism tests
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import random

from ..core.cluster import ClusterConfig, FabCluster
from ..core.coordinator import CoordinatorConfig
from ..erasure.registry import make_code
from ..errors import ConfigurationError, StorageError
from ..quorum.theorems import max_fault_tolerance
from ..sim.network import NetworkConfig
from ..types import OpKind
from ..verify.history import HistoryRecorder
from .invariants import CampaignMonitor, Violation
from .schedule import CampaignSchedule, apply_schedule, generate_schedule

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "broken_config",
]

#: Operation mix: the chance an op writes, and that it touches one block
#: rather than the whole stripe.
_WRITE_FRACTION = 0.5
_BLOCK_FRACTION = 0.4
#: Gap between a client's operations.
_THINK_TIME = 2.0
#: Period of the timestamp monitor's samples.
_SAMPLE_INTERVAL = 25.0
#: Wake-up period of the scrub daemon, when it runs.
_SCRUB_INTERVAL = 20.0
#: Fault mix passed to :func:`~repro.campaign.schedule.generate_schedule`
#: (weights of crash, partition and drop faults), and its clock-skew
#: range (no skew).  A skewed run passes its own schedule.
CRASH_WEIGHT = 3.0
PARTITION_WEIGHT = 1.0
DROP_WEIGHT = 1.0
MAX_CLOCK_SKEW = 0.0


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one campaign run (all randomness derives from ``seed``).

    Attributes:
        m / n / f: cluster shape; ``f=None`` takes the Theorem 2 maximum.
        code_kind: stripe code, forwarded to the cluster — the campaign
            and its invariants run unchanged over any registered code
            (the sharded LRC campaign relies on this).
        allow_unsafe_f: permit ``f`` beyond the bound — the deliberately
            broken mode used to validate that the invariant checks fire.
        registers / clients / ops_per_client: workload shape; clients
            issue operations back-to-back (2 time units apart, half of
            them writes, 40% single-block) against random registers
            through random live coordinators, with §5.1 GC on.
        duration: schedule horizon; no fault fires after it.
        drain: extra simulated time after ``duration`` for in-flight
            operations to finish or time out (an operation cut off from
            a quorum aborts after the default
            ``CoordinatorConfig.op_timeout``).
        max_down: cap on concurrently crashed bricks, passed to
            :func:`~repro.campaign.schedule.generate_schedule` with the
            module's fixed crash/partition/drop mix.
        corrupt_weight: weight of silent bit-flip faults in the mix
            (0 disables corruption injection entirely; must be >= 0).
        scrub_enabled: run the background scrub-and-repair daemon
            during the campaign, auditing every (register, brick)
            pair every 20 time units in a fixed order, so campaign
            determinism and the corruption invariants hold unchanged.
    """

    m: int = 3
    n: int = 5
    f: Optional[int] = None
    allow_unsafe_f: bool = False
    block_size: int = 32
    code_kind: str = "auto"
    seed: int = 0
    registers: int = 4
    clients: int = 3
    ops_per_client: int = 30
    duration: float = 400.0
    drain: float = 150.0
    max_down: Optional[int] = None
    corrupt_weight: float = 0.0
    scrub_enabled: bool = False

    def __post_init__(self) -> None:
        for name in ("registers", "clients", "ops_per_client"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.corrupt_weight < 0:
            raise ConfigurationError(
                f"corrupt_weight must be >= 0, got {self.corrupt_weight}"
            )

    @property
    def effective_f(self) -> int:
        return _tolerance(self) if self.f is None else self.f

    @property
    def effective_max_down(self) -> int:
        if self.max_down is not None:
            return self.max_down
        # Never schedule more concurrent crashes than a *sound* config
        # could tolerate, even in broken mode — the broken configs fail
        # on intersection, not availability.
        if self.n <= self.m:
            return 0
        return max(1, min(self.effective_f, _tolerance(self)))


def _tolerance(config: CampaignConfig) -> int:
    """The largest ``f`` the config's code allows."""
    return max_fault_tolerance(make_code(config.m, config.n, config.code_kind))


@dataclass
class CampaignResult:
    """Outcome of one campaign run (deterministic given config+schedule)."""

    seed: int
    violations: List[Violation]
    ops: Dict[str, int]  # status -> count, over all registers
    schedule_events: int
    registers_checked: int
    blocks_checked: int
    recoveries_checked: int
    samples_taken: int
    sim_time: float
    reads_verified: int = 0
    #: Corruption-resilience counters: corruptions_injected,
    #: torn_injected, checksum_failures, degraded_reads, scrub_scans,
    #: scrub_detections, scrub_repairs.
    corruption: Dict[str, int] = field(default_factory=dict)
    schedule: CampaignSchedule = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "ops": dict(self.ops),
            "schedule_events": self.schedule_events,
            "registers_checked": self.registers_checked,
            "blocks_checked": self.blocks_checked,
            "recoveries_checked": self.recoveries_checked,
            "samples_taken": self.samples_taken,
            "sim_time": self.sim_time,
            "reads_verified": self.reads_verified,
            "corruption": dict(self.corruption),
        }


class _Client:
    """One closed-loop workload driver: issue, await, think, repeat.

    Implemented with completion callbacks rather than as a simulation
    process so that a coordinator crash interrupts only the *operation*
    (recorded as CRASHED) — the client itself survives and moves on to
    another live brick, like a real initiator failing over.
    """

    def __init__(self, engine: "_Engine", client_id: int, seed: int) -> None:
        self.engine = engine
        self.rng = random.Random(seed)
        self.client_id = client_id
        self.remaining = engine.config.ops_per_client
        self._start_next()

    def _start_next(self) -> None:
        engine = self.engine
        if self.remaining <= 0 or engine.env.now >= engine.config.duration:
            return
        live = sorted(
            pid for pid, node in engine.cluster.nodes.items() if node.is_up
        )
        if not live:
            self._after(_THINK_TIME)
            return
        pid = self.rng.choice(live)
        register_id = self.rng.randrange(engine.config.registers)
        node = engine.cluster.nodes[pid]
        coordinator = engine.cluster.coordinators[pid]
        kind, value, block_index, generator = self._pick_op(
            coordinator, register_id
        )
        try:
            process = node.spawn(generator)
        except StorageError:
            # The brick crashed between the liveness check and the
            # spawn (same-timestamp event); retry elsewhere.
            generator.close()
            self._after(_THINK_TIME)
            return
        self.remaining -= 1
        engine.recorders[register_id].track(
            process, kind, value=value, block_index=block_index,
            coordinator=pid,
        )
        process._add_callback(lambda _e: self._op_done())

    def _pick_op(self, coordinator, register_id: int) -> Tuple:
        cfg = self.engine.config
        writing = self.rng.random() < _WRITE_FRACTION
        block_op = self.rng.random() < _BLOCK_FRACTION
        if writing and block_op:
            j = self.rng.randint(1, cfg.m)
            block = self.engine.fresh_block()
            return (
                OpKind.WRITE_BLOCK, block, j,
                coordinator.write_block(register_id, j, block),
            )
        if writing:
            stripe = [self.engine.fresh_block() for _ in range(cfg.m)]
            return (
                OpKind.WRITE_STRIPE, stripe, None,
                coordinator.write_stripe(register_id, stripe),
            )
        if block_op:
            j = self.rng.randint(1, cfg.m)
            return (
                OpKind.READ_BLOCK, None, j,
                coordinator.read_block(register_id, j),
            )
        return (
            OpKind.READ_STRIPE, None, None,
            coordinator.read_stripe(register_id),
        )

    def _op_done(self) -> None:
        self._after(_THINK_TIME)

    def _after(self, delay: float) -> None:
        timer = self.engine.env.timeout(delay)
        timer._add_callback(lambda _t: self._start_next())


class _Engine:
    """Owns the cluster, recorders, and unique-value generation."""

    def __init__(self, config: CampaignConfig,
                 schedule: CampaignSchedule) -> None:
        self.config = config
        self.cluster = FabCluster(
            ClusterConfig(
                m=config.m,
                n=config.n,
                f=config.f,
                allow_unsafe_f=config.allow_unsafe_f,
                block_size=config.block_size,
                code_kind=config.code_kind,
                seed=config.seed,
                clock_skews=dict(schedule.clock_skews),
                network=NetworkConfig(
                    min_latency=1.0,
                    max_latency=3.0,
                    jitter_seed=config.seed,
                ),
                coordinator=CoordinatorConfig(gc_enabled=True),
                metrics_history_limit=256,
            )
        )
        self.env = self.cluster.env
        self.recorders = {
            register_id: HistoryRecorder(self.env, register_id=register_id)
            for register_id in range(config.registers)
        }
        self._value_counter = 0
        #: Every payload ever issued to a write — the read-verification
        #: invariant's ground truth (any bit flip leaves this set).
        self.issued_blocks: set = set()

    def fresh_block(self) -> bytes:
        """A unique, non-zero block value (the checker's assumption)."""
        self._value_counter += 1
        tag = f"s{self.config.seed}v{self._value_counter}."
        data = (tag.encode() * self.config.block_size)
        block = data[: self.config.block_size]
        self.issued_blocks.add(block)
        return block


def run_campaign(
    config: CampaignConfig,
    schedule: Optional[CampaignSchedule] = None,
) -> CampaignResult:
    """Run one campaign; returns its (deterministic) result.

    Args:
        config: all knobs; the fault schedule is generated from
            ``config.seed`` unless an explicit ``schedule`` is given
            (as the shrinker does when re-running subsets).
    """
    if schedule is None:
        schedule = generate_schedule(
            seed=config.seed,
            n=config.n,
            duration=config.duration,
            max_down=config.effective_max_down,
            crash_weight=CRASH_WEIGHT,
            partition_weight=PARTITION_WEIGHT,
            drop_weight=DROP_WEIGHT,
            corrupt_weight=config.corrupt_weight,
            registers=config.registers,
            max_clock_skew=MAX_CLOCK_SKEW,
        )
    engine = _Engine(config, schedule)
    monitor = CampaignMonitor(engine.cluster)

    def on_event(event, took_effect: bool) -> None:
        if event.kind == "corrupt" and took_effect:
            # Drop the replica's volatile mirror so the damage is not
            # masked by caching, and stand the monitor down for it.
            pid, register_id = event.targets
            engine.cluster.replicas[pid].drop_mirror(register_id)
            monitor.note_corruption(pid, register_id)
        monitor.sample()

    applied = apply_schedule(engine.cluster, schedule, on_event)

    daemon = None
    if config.scrub_enabled:
        # Imported here: repro.scrub builds on core.rebuild, and the
        # campaign package should stay importable without it.
        from ..scrub.daemon import ScrubDaemon

        daemon = ScrubDaemon(
            engine.cluster,
            interval=_SCRUB_INTERVAL,
            horizon=config.duration + config.drain,
        )
        daemon.start()

    # Periodic timestamp samples, independent of fault events.
    def periodic() -> None:
        if engine.env.now >= config.duration + config.drain:
            return
        monitor.sample()
        timer = engine.env.timeout(_SAMPLE_INTERVAL)
        timer._add_callback(lambda _t: periodic())

    periodic()

    client_master = random.Random((config.seed << 16) ^ 0xC0FFEE)
    for client_id in range(config.clients):
        _Client(engine, client_id, seed=client_master.randrange(2**31))

    engine.cluster.run(until=config.duration + config.drain)
    if daemon is not None:
        daemon.stop()
    monitor.sample()

    blocks_checked = 0
    reads_verified = 0
    for register_id, recorder in engine.recorders.items():
        blocks_checked += monitor.check_history(
            register_id, recorder, config.m
        )
        reads_verified += monitor.check_read_integrity(
            register_id, recorder, engine.issued_blocks, config.block_size
        )

    ops: Dict[str, int] = {}
    for recorder in engine.recorders.values():
        for status, count in recorder.summary().items():
            ops[status] = ops.get(status, 0) + count

    metrics = engine.cluster.metrics
    corruption = {
        "corruptions_injected": applied["corrupt"],
        "torn_injected": applied["torn_write"],
        "checksum_failures": metrics.checksum_failures,
        "degraded_reads": metrics.degraded_reads,
        "scrub_scans": metrics.scrub_scans,
        "scrub_detections": metrics.scrub_detections,
        "scrub_repairs": metrics.scrub_repairs,
    }

    return CampaignResult(
        seed=config.seed,
        violations=list(monitor.violations),
        ops=dict(sorted(ops.items())),
        schedule_events=len(schedule.events),
        registers_checked=len(engine.recorders),
        blocks_checked=blocks_checked,
        recoveries_checked=monitor.recoveries_checked,
        samples_taken=monitor.samples_taken,
        sim_time=engine.env.now,
        reads_verified=reads_verified,
        corruption=corruption,
        schedule=schedule,
    )


def broken_config(base: CampaignConfig) -> CampaignConfig:
    """A deliberately unsound variant of ``base``.

    Raises ``f`` one past the code's bound (so two quorums of size
    ``n - f`` can intersect in a set that does not decode: fewer than
    ``m`` processes for an MDS code, ``n < 2f + m``) and flips
    ``allow_unsafe_f``.  Used to validate that the campaign's invariant
    checks actually fire.
    """
    unsafe_f = _tolerance(base) + 1
    return replace(base, f=unsafe_f, allow_unsafe_f=True)
