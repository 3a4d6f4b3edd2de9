"""The named workloads.

Each workload builds its system through the public surfaces only
(``repro.api.open_cluster`` / ``open_volume``, ``FabCluster``,
``VolumeSession``, ``AsyncioTransport``, ``run_campaign``), generates
its inputs from the seed, times one *trial* of a fixed amount of work,
and checks every result.  ``README.md`` records why each exists.

All workloads share one coroutine-shaped interface so the worker has a
single driver: the sim workloads simply never await.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api, campaign
from repro.core.cluster import ClusterConfig, FabCluster
from repro.core.coordinator import CoordinatorConfig
from repro.transport.aio import AsyncioTransport
from repro.verify.linearizability import check_strict_linearizability

from . import loadgen

__all__ = ["Trial", "Workload", "WORKLOADS", "GATED", "free_port_block"]

#: Cap on one coordinator quorum phase on the wall-clock substrates, as
#: ``repro serve`` sets it: without it a phase abandoned by its session
#: retransmits forever.
ASYNCIO_OP_TIMEOUT = 300.0
#: After an open-loop schedule ends, how long unfinished ops may drain.
DRAIN_GRACE_S = 5.0


@dataclass
class Trial:
    """One timed trial.

    ``attempted``/``failed`` count what correctness is judged on (ops;
    seeds for the campaign); ``ops`` is the verified user operations
    the throughput metrics divide by.  Latencies are milliseconds from
    due/submit time to ``SessionOp.finished_at``.  ``records`` keeps
    ``(SessionOp, expected, due_wall[, due_units])`` — the due time on
    the harness's clock and, on asyncio, on the transport's — for the
    traced pass only.
    """

    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    ops: int
    user_bytes: int = 0
    read_ms: List[float] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    offered_ops_per_s: float = 0.0
    seeds: int = 0
    timed_out: bool = False
    records: List[tuple] = field(default_factory=list, repr=False)

    @classmethod
    def measured(cls, records: List[tuple], attempted: int, wall0: float,
                 cpu0: float, block_size: int, **fields) -> "Trial":
        """Stop the clocks, then check: call right after the timed region.

        Ops of the plan that were never submitted (a client cut off at
        the deadline) are as failed as the one it was stuck on.
        """
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        failed = loadgen.count_failed(records) + attempted - len(records)
        return cls(
            wall_s=wall, cpu_s=cpu, attempted=attempted, failed=failed,
            ops=attempted - failed, records=records,
            user_bytes=sum(len(r[0].blocks) for r in records) * block_size,
            **fields,
        )


class Workload:
    """Base: identity, seeded RNG scopes, and the no-op lifecycle."""

    name = ""
    why = ""
    #: Timed trials of the traced pass (fixed, so exact counters repeat).
    traced_trials = 2
    #: Wall seconds one trial took at the parent commit on the sizing
    #: box.  A sizing constant only: it turns ``--seconds`` into a trial
    #: *count*, so a run does the same work whatever the commit's speed
    #: and same-seed runs generate identical inputs.
    nominal_trial_s = 0.6
    cluster: Optional[FabCluster] = None
    volume = None

    def __init__(self, seed: int, scale: float = 1.0,
                 port_base: Optional[int] = None) -> None:
        self.seed = seed
        self.scale = scale
        self.port_base = port_base
        self.digests: List[str] = []

    def rng(self, *scope):
        return loadgen.rng_for(self.seed, self.name, *scope)

    def scaled(self, count: int, floor: int = 1) -> int:
        return max(floor, int(round(count * self.scale)))

    async def setup(self) -> None:
        """Build the system and prefill it (untimed, part of set-up)."""

    def plan(self, key, warmup: bool = False):
        """Inputs of one trial, a pure function of ``(seed, key)``."""
        raise NotImplementedError

    async def run(self, plan, deadline: float) -> Trial:
        """Time one trial of ``plan`` and check its results."""
        raise NotImplementedError

    async def teardown(self) -> Dict[str, float]:
        """Stop what setup started; returns end-of-run numbers."""
        return {}

    def space_amp(self) -> float:
        """Bytes in stable storage per live user byte (all prefilled).

        0.0 where the harness cannot reach a cluster (the campaign).
        """
        if self.cluster is None:
            return 0.0
        stored = sum(
            node.stable.size_bytes() for node in self.cluster.nodes.values()
        )
        return stored / self.volume.capacity_bytes


# --------------------------------------------------------------------------
# Sim workloads: one pipelined session over the deterministic kernel.
# --------------------------------------------------------------------------


class SimWorkload(Workload):
    """RS(4,8) on the sim, δ = 1, no drops, GC on, ``max_inflight=8``."""

    m, n = 4, 8
    block_size = 64
    stripes = 256
    stripe_shuffle = True
    ops_per_trial = 2000
    mix: Sequence[Tuple[float, str]] = ((0.5, "r"), (0.5, "w"))
    #: Bricks crashed after prefill (``sim-degraded``).
    crashed: Tuple[int, ...] = ()

    async def setup(self) -> None:
        self.cluster = api.open_cluster(
            self.m, self.n, block_size=self.block_size, gc_enabled=True,
            seed=self.seed,
        )
        self.volume = api.open_volume(
            self.cluster, stripes=self.scaled(self.stripes, 4),
            stripe_shuffle=self.stripe_shuffle,
        )
        rng = self.rng("setup")
        self.model = loadgen.Model(
            self.volume, loadgen.make_pool(rng, self.block_size)
        )
        prefill = [
            ("w", block, rng.randrange(loadgen.POOL_BLOCKS))
            for block in range(self.volume.num_blocks)
        ]
        self.digests.append(loadgen.digest(prefill))
        with self.volume.session(max_inflight=8) as session:
            records = [self.model.submit(session, e) for e in prefill]
        if loadgen.count_failed(records):
            raise RuntimeError(f"{self.name}: prefill failed")
        for pid in self.crashed:
            self.cluster.crash(pid)

    def plan(self, key, warmup: bool = False):
        ops = self.scaled(self.ops_per_trial // (3 if warmup else 1), 8)
        plan = loadgen.make_plan(
            self.rng("trial", key), ops, self.mix,
            self.volume.num_blocks, self.m,
        )
        self.digests.append(loadgen.digest(plan))
        return plan

    async def run(self, plan, deadline: float) -> Trial:
        submit = self.model.submit
        cpu0, wall0 = time.process_time(), time.perf_counter()
        session = self.volume.session(max_inflight=8)
        records = [submit(session, entry) + (wall0,) for entry in plan]
        session.drain()
        return Trial.measured(
            records, len(plan), wall0, cpu0, self.block_size
        )


class SimSmallRW(SimWorkload):
    name = "sim-small-rw"
    why = ("64 B blocks: coordinator, replica, DES kernel and StableStore "
           "do the work, the GF kernel only its fixed per-call cost")


class SimLargeStripe(SimWorkload):
    name = "sim-large-stripe"
    why = ("64 KiB blocks, full-stripe and Modify writes: erasure matmul "
           "and store CRC/freeze bytes dominate, protocol is the minority")
    block_size = 64 * 1024
    stripes = 32
    stripe_shuffle = False
    ops_per_trial = 500
    nominal_trial_s = 0.57
    mix = ((0.4, "ws"), (0.3, "rs"), (0.3, "w"))


class SimDegraded(SimWorkload):
    name = "sim-degraded"
    why = ("f = 2 bricks down (one data, one parity): reads of the lost "
           "unit recover, decode and write back; guards the failure path")
    block_size = 16 * 1024
    stripes = 64
    ops_per_trial = 1200
    mix = ((0.7, "r"), (0.3, "w"))
    crashed = (1, 6)


# --------------------------------------------------------------------------
# Asyncio workloads: wall-clock loopback or TCP, RS(3,5), 4 KiB.
# --------------------------------------------------------------------------


def free_port_block(count: int, start: int) -> int:
    """First ``base >= start`` whose ``count`` consecutive ports all bind.

    Binds with ``SO_REUSEADDR`` as asyncio's servers do, so ports in
    ``TIME_WAIT`` from a previous run count as free and only a live
    listener pushes the block further up.
    """
    base = start
    while base + count < 65536:
        held = []
        try:
            for port in range(base, base + count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                held.append(sock)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("127.0.0.1", port))
            return base
        except OSError:
            base += count
        finally:
            for sock in held:
                sock.close()
    raise RuntimeError(f"no free block of {count} ports from {start}")


class AioWorkload(Workload):
    """A cluster on :class:`AsyncioTransport`; no injected delay."""

    m, n = 3, 5
    block_size = 4096
    mode = "loopback"
    stripes = 256
    units_per_s = 1000.0  # the transport's default time_scale

    async def setup(self) -> None:
        base_port = 0
        if self.mode == "tcp":
            base_port = free_port_block(self.n, self.port_base or 17420)
        self.transport = AsyncioTransport(mode=self.mode, base_port=base_port)
        self.cluster = FabCluster(
            ClusterConfig(
                m=self.m, n=self.n, block_size=self.block_size,
                transport="asyncio", seed=self.seed,
                coordinator=CoordinatorConfig(
                    op_timeout=ASYNCIO_OP_TIMEOUT, gc_enabled=True
                ),
            ),
            transport=self.transport,
        )
        self.volume = api.open_volume(
            self.cluster, stripes=self.num_stripes(), stripe_shuffle=False
        )
        self.model = loadgen.Model(
            self.volume,
            loadgen.make_pool(self.rng("setup"), self.block_size),
        )
        await self.transport.start()

    def num_stripes(self) -> int:
        return self.scaled(self.stripes, 4)

    async def teardown(self) -> Dict[str, float]:
        await self.transport.stop()
        return {}

    def _latencies(self, trial: Trial) -> Trial:
        for op, _expected, _due_wall, due_units in trial.records:
            if op.finished_at is None:
                continue
            ms = loadgen.latency_ms(
                op.finished_at, due_units, self.units_per_s
            )
            (trial.write_ms if op.is_write else trial.read_ms).append(ms)
        return trial


class TcpOpenRW(AioWorkload):
    """Open loop: Poisson arrivals at a fixed rate into one session."""

    name = "tcp-open-rw"
    why = ("service latency over real sockets at a fixed 50 ops/s: the "
           "JSON+base64 wire codec and the asyncio pump dominate")
    mode = "tcp"
    rate = 50.0
    trial_seconds = nominal_trial_s = 0.9
    warmup_seconds = 0.5
    traced_trials = 5

    async def setup(self) -> None:
        await super().setup()
        rng = self.rng("prefill")
        prefill = [
            ("ws", stripe, tuple(
                rng.randrange(loadgen.POOL_BLOCKS) for _ in range(self.m)
            ))
            for stripe in range(self.volume.num_stripes)
        ]
        self.digests.append(loadgen.digest(prefill))
        session = self.volume.session(max_inflight=2)
        records = [self.model.submit(session, e) for e in prefill]
        await asyncio.wait_for(session.drain_async(), timeout=20.0)
        if loadgen.count_failed(records):
            raise RuntimeError(f"{self.name}: prefill failed")

    def plan(self, key, warmup: bool = False):
        rng = self.rng("trial", key)
        seconds = self.warmup_seconds if warmup else self.trial_seconds
        seconds = max(0.2, seconds * self.scale)
        due = loadgen.poisson_schedule(rng, self.rate, seconds)
        ops = loadgen.make_plan(
            rng, len(due), ((0.5, "r"), (0.5, "w")),
            self.volume.num_blocks, self.m,
        )
        self.digests.append(loadgen.digest(due, ops))
        return seconds, list(zip(due, ops))

    async def run(self, plan, deadline: float) -> Trial:
        seconds, schedule = plan
        session = self.volume.session(max_inflight=64)
        records, late = [], []
        cpu0 = time.process_time()
        wall0, units0 = time.perf_counter(), self.transport.now()
        for due, entry in schedule:
            delay = wall0 + due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append((time.perf_counter() - wall0 - due) * 1000.0)
            records.append(self.model.submit(session, entry) + (
                wall0 + due, units0 + due * self.units_per_s,
            ))
        remaining = wall0 + seconds - time.perf_counter()
        if remaining > 0:
            await asyncio.sleep(remaining)
        timed_out = False
        try:
            limit = min(DRAIN_GRACE_S, deadline - time.perf_counter())
            await asyncio.wait_for(session.drain_async(), max(0.05, limit))
        except asyncio.TimeoutError:
            timed_out = True
        return self._latencies(Trial.measured(
            records, len(schedule), wall0, cpu0, self.block_size,
            late_ms=late, offered_ops_per_s=len(schedule) / seconds,
            timed_out=timed_out,
        ))


class ClosedLoop(AioWorkload):
    """``clients`` closed-loop clients, each with its own stripe.

    A client is a coroutine: submit one op on its own
    ``VolumeSession(max_inflight=1)``, ``drain_async``, next.  Stripes
    are private, so any abort is a transport or protocol effect, not
    workload contention.  Written values are stamped unique so a
    sample of clients' per-block histories can go through the
    strict-linearizability checker at the end of the run.
    """

    clients = 2
    ops_per_client = 150
    warmup_ops_per_client = 50
    #: Clients whose histories are checked at the end (a seeded sample).
    checked_clients = 0

    def num_stripes(self) -> int:
        """One stripe, and so one client, each (scaled down in tests)."""
        return self.scaled(self.clients, min(self.clients, 8))

    async def setup(self) -> None:
        await super().setup()
        self.sessions = [
            self.volume.session(max_inflight=1, seed=client)
            for client in range(self.volume.num_stripes)
        ]
        self._stamp = 0

    def plan(self, key, warmup: bool = False):
        per_client = self.scaled(
            self.warmup_ops_per_client if warmup else self.ops_per_client
        )
        plans = []
        for client in range(len(self.sessions)):
            own = range(client * self.m, (client + 1) * self.m)
            plan = loadgen.make_plan(
                self.rng("trial", key, client), per_client,
                ((0.5, "r"), (0.5, "w")), self.volume.num_blocks, self.m,
                blocks=own,
            )
            if warmup:
                # The first write to a stripe takes the slow path (no
                # base value to Modify); do it before timing starts.
                plan[0] = ("w", own[0], 0)
            plans.append(plan)
        self.digests.append(loadgen.digest(plans))
        return plans

    async def _client(self, session, plan, records) -> None:
        for entry in plan:
            self._stamp += 1
            due = time.perf_counter(), self.transport.now()
            records.append(
                self.model.submit(session, entry, self._stamp) + due
            )
            await session.drain_async()

    async def run(self, plan, deadline: float) -> Trial:
        records: List[tuple] = []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        tasks = [
            asyncio.ensure_future(self._client(session, client_plan, records))
            for session, client_plan in zip(self.sessions, plan)
        ]
        _done, pending = await asyncio.wait(
            tasks, timeout=max(0.05, deadline - time.perf_counter())
        )
        for task in pending:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for task in tasks:
            if not task.cancelled() and task.exception() is not None:
                raise task.exception()
        trial = Trial.measured(
            records, sum(len(client_plan) for client_plan in plan),
            wall0, cpu0, self.block_size, timed_out=bool(pending),
        )
        trial.offered_ops_per_s = trial.attempted / trial.wall_s
        return self._latencies(trial)

    async def teardown(self) -> Dict[str, float]:
        result = await super().teardown()
        rng = self.rng("linearizability-sample")
        count = min(self.checked_clients, len(self.sessions))
        violations = 0
        for session in rng.sample(self.sessions, count):
            per_block: Dict[tuple, list] = {}
            for record in session.history():
                # The checker compares and prints values; a digest
                # keeps equality, uniqueness and nil at 20 bytes each.
                value = record.value
                if value is not None and any(value):
                    value = hashlib.sha1(value).digest()
                key = (record.register_id, record.block_index)
                per_block.setdefault(key, []).append(
                    dataclasses.replace(record, value=value)
                )
            violations += sum(
                1 for records in per_block.values()
                if not check_strict_linearizability(records).ok
            )
        result["linearizability_violations"] = violations
        return result


class TcpClosedC2(ClosedLoop):
    name = "tcp-closed-c2"
    why = ("two closed-loop TCP clients: saturation throughput at the "
           "concurrency where the socket path peaks, retransmissions ~0")
    mode = "tcp"


class TcpClosedC8(ClosedLoop):
    name = "tcp-closed-c8"
    why = ("eight closed-loop TCP clients: latency passes the 8 ms "
           "retransmit interval and throughput collapses (diagnostic)")
    mode = "tcp"
    clients = 8
    ops_per_client = 40
    warmup_ops_per_client = 10
    nominal_trial_s = 2.0


class LoopbackC1000(ClosedLoop):
    name = "loopback-c1000"
    why = ("1000 closed-loop clients in-process: session pumps and the "
           "single asyncio pump under 1000 waiters, wire codec bypassed")
    clients = 1000
    ops_per_client = 2
    warmup_ops_per_client = 1
    nominal_trial_s = 1.0
    checked_clients = 50


# --------------------------------------------------------------------------
# The developer-facing loop: fault-campaign seeds, run and checked.
# --------------------------------------------------------------------------


class CampaignSeeds(Workload):
    """``run_campaign(CampaignConfig())`` defaults over derived seeds.

    ``corrupt_weight`` stays at its default 0: with corruption on, the
    parent commit reports linearizability violations (README, finding
    c), and a gated workload must be failure-free.
    """

    name = "campaign-seeds"
    why = ("schedule generation, sim run under crash/partition/drop "
           "faults, online invariants and the linearizability check")
    seeds_per_trial = 15
    #: Campaign seeds 0..SWEPT-1 were all run at the parent commit with
    #: these defaults; one violated (README, finding d).  Derived seeds
    #: stay inside the swept range and step over the known violation,
    #: so that a red run means a regression and not an unlucky seed.
    SWEPT = 12000
    KNOWN_VIOLATIONS = frozenset({8010})

    def plan(self, key, warmup: bool = False):
        count = self.scaled(5 if warmup else self.seeds_per_trial)
        first = self.seed * 1000 + self.rng("trial", key).randrange(
            1000 - count
        )
        spare = len(self.KNOWN_VIOLATIONS)
        seeds = [
            seed % self.SWEPT for seed in range(first, first + count + spare)
            if seed % self.SWEPT not in self.KNOWN_VIOLATIONS
        ][:count]
        self.digests.append(loadgen.digest(seeds))
        return seeds

    async def run(self, plan, deadline: float) -> Trial:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        results = [
            campaign.run_campaign(campaign.CampaignConfig(seed=seed))
            for seed in plan
        ]
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        clean = [result for result in results if result.ok]
        self.last_results = results
        return Trial(
            wall_s=wall, cpu_s=cpu, attempted=len(results),
            failed=len(results) - len(clean),
            ops=sum(sum(result.ops.values()) for result in clean),
            seeds=len(clean),
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        SimSmallRW, SimLargeStripe, SimDegraded, TcpOpenRW, TcpClosedC2,
        LoopbackC1000, CampaignSeeds, TcpClosedC8,
    )
}

#: Workloads ``BENCHMARK.json`` lists.  ``tcp-closed-c8`` stays out: it
#: sits inside the retransmission collapse on purpose, so its throughput
#: moves 2x run to run and cold trials lose ops — it is kept as a
#: diagnostic a retransmit fix can be shown on, not as a gate.
GATED = [name for name in WORKLOADS if name != "tcp-closed-c8"]
