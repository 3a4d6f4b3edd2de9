"""The ``repro serve`` load driver: a cluster under real concurrency.

Hosts a FAB cluster on an :class:`~repro.transport.aio.AsyncioTransport`
(in-process loopback by default, TCP framing optionally) and drives it
with many concurrent :class:`~repro.core.session.VolumeSession` clients
— the "millions of users" configuration the sim cannot exercise,
running the very same protocol code the deterministic campaigns verify.

Each client owns one stripe of a shared volume (with ``stripe_shuffle``
client ``c``'s logical blocks are ``c + k * clients``), so sessions
never contend on a register: any failed session indicates a transport
or protocol defect, not workload-induced aborts.  Clients alternate
writes and read-backs and verify every read against the last value they
wrote.

**Chaos mode** (any non-zero fault knob, or a partition) installs a
seeded :class:`~repro.transport.chaos.ChaosPolicy` on the transport
(``Transport.set_chaos``), which drops / duplicates / corrupts frames
on the *wall-clock* path, and an optional timed
partition is a two-event fault plan applied once the transport runs
(clients keep re-reading their blocks until the plan's last event), while
sessions run with a chaos-tolerant retry policy (more attempts,
generous failover budget).  The run must still finish with
**zero failed sessions** and a **strictly linearizable** per-client
history — losing up to ~10% of messages merely costs latency, because
retransmission and retry heal every injected fault.  The chaos counters
(delivered/dropped/corrupted/…), the policy and plan themselves, and the
linearizability verdict land in the result as first-class axes, so a
saved result is a self-describing reproducer.

The result is that verdict, not a throughput figure: throughput and
latency under a stated offered load are measured by ``benchmarks/e2e``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional, Sequence, Tuple

from ..campaign.schedule import CampaignSchedule, FaultEvent, apply_schedule
from ..core.cluster import ClusterConfig, FabCluster
from ..core.coordinator import CoordinatorConfig
from ..core.session import RetryPolicy
from ..core.volume import LogicalVolume
from ..errors import ConfigurationError
from ..transport.aio import AsyncioTransport
from ..transport.chaos import ChaosPolicy, LinkChaos
from ..verify.linearizability import check_strict_linearizability

__all__ = ["run_serve"]

#: Chaos-tolerant session policy: attempts sized for sustained ~10%
#: loss and a failover budget wide enough to rotate past a minority
#: group.  A coordinator stranded in a partition needs no attempt
#: deadline: its phases expire after ``SERVE_OP_TIMEOUT`` and the
#: attempt returns ⊥.  An aborted attempt may still have landed and be
#: rolled forward by a reader, so each retry is a new write of the same
#: value (Section 4), not a replay of the old one.
CHAOS_SESSION_RETRY = RetryPolicy(
    attempts=12,
    backoff=4.0,
    max_failovers=64,
)

#: Bound on one coordinator quorum phase, in transport time units (ms):
#: a phase with no quorum expires after 38 retransmission rounds
#: (304 ms) and its attempt returns a retryable ⊥.
SERVE_OP_TIMEOUT = 300.0

#: Cluster shape, block size and per-session pipeline depth.
_M, _N = 3, 5
_BLOCK_SIZE = 64
_MAX_INFLIGHT = 4


def _client_payload(client: int, op_index: int) -> bytes:
    return (f"c{client}.{op_index}.".encode() * _BLOCK_SIZE)[:_BLOCK_SIZE]


def _verify_linearizable(sessions: Sequence) -> Tuple[bool, int]:
    """Check every client's per-block history for strict linearizability.

    Clients own disjoint stripes, so each session's history is a
    complete per-register client view; the Appendix-B checker runs on
    each block's projection.  Returns ``(all_ok, blocks_checked)``.
    """
    ok = True
    blocks_checked = 0
    for session in sessions:
        per_block: dict = {}
        for record in session.history():
            if record.block_index is None:
                continue  # full-stripe writes don't occur in this workload
            key = (record.register_id, record.block_index)
            per_block.setdefault(key, []).append(record)
        for records in per_block.values():
            blocks_checked += 1
            if not check_strict_linearizability(records).ok:
                ok = False
    return ok, blocks_checked


async def _serve(
    clients: int,
    ops_per_client: int,
    mode: str,
    base_port: int,
    chaos_policy: Optional[ChaosPolicy],
    plan: Optional[CampaignSchedule],
) -> dict:
    transport = AsyncioTransport(mode=mode, base_port=base_port)
    if chaos_policy is not None:
        transport.set_chaos(chaos_policy)
    cluster = FabCluster(
        ClusterConfig(
            m=_M, n=_N, block_size=_BLOCK_SIZE, transport="asyncio",
            coordinator=CoordinatorConfig(op_timeout=SERVE_OP_TIMEOUT),
        ),
        transport=transport,
    )
    volume = LogicalVolume(cluster, num_stripes=clients)
    retry = CHAOS_SESSION_RETRY if chaos_policy is not None else None
    await transport.start()
    start = time.monotonic()
    try:
        if plan is not None:
            apply_schedule(cluster, plan)
        sessions = []
        expected = []
        written = []
        for client in range(clients):
            session = volume.session(
                max_inflight=_MAX_INFLIGHT, seed=client, retry=retry
            )
            reads = []
            last_value = {}
            for op_index in range(ops_per_client):
                # Walk the client's own stripe units; write first so
                # every read-back has a known expected value.
                block = client + ((op_index // 2) % _M) * clients
                if op_index % 2 == 0 or block not in last_value:
                    value = _client_payload(client, op_index)
                    session.submit_write(block, value)
                    last_value[block] = value
                else:
                    reads.append((session.submit_read(block), last_value[block]))
            sessions.append(session)
            expected.append(reads)
            written.append(last_value)
        await asyncio.gather(
            *(session.drain_async() for session in sessions)
        )
        # Like a campaign, a run outlasts its fault plan: until the last
        # event has fired, every client re-reads (and verifies) what it
        # wrote, so the plan always acts on live traffic.
        horizon = max((e.time for e in plan.events), default=0.0) \
            if plan is not None else 0.0
        while transport.now() < horizon:
            for session, reads, last_value in zip(sessions, expected, written):
                reads.extend(
                    (session.submit_read(block), value)
                    for block, value in last_value.items()
                )
            await asyncio.gather(
                *(session.drain_async() for session in sessions)
            )
    finally:
        wall = time.monotonic() - start
        await transport.stop()

    failed_sessions = 0
    failed_ops = 0
    total_ops = 0
    for session, reads in zip(sessions, expected):
        session_ok = True
        for op in session.ops:
            total_ops += 1
            if not op.ok:
                failed_ops += 1
                session_ok = False
        for op, value in reads:
            if op.ok and op.value != value:
                failed_ops += 1
                session_ok = False
        if not session_ok:
            failed_sessions += 1
    linearizable, blocks_checked = _verify_linearizable(sessions)
    chaos_axes = {
        "enabled": chaos_policy is not None,
        "linearizable": linearizable,
        "blocks_checked": blocks_checked,
        "reconnects": transport.reconnects,
        "outbox_drops": sum(transport.outbox_drops.values()),
    }
    if chaos_policy is not None:
        chaos_axes["policy"] = chaos_policy.to_dict()
        if plan is not None:
            chaos_axes["plan"] = plan.to_dict()
        chaos_axes.update(transport.stats.to_dict())
    return {
        "benchmark": "serve",
        "mode": mode,
        "clients": clients,
        "ops_per_client": ops_per_client,
        "total_ops": total_ops,
        "m": _M,
        "n": _N,
        "block_size": _BLOCK_SIZE,
        "max_inflight": _MAX_INFLIGHT,
        "wall_seconds": round(wall, 3),
        "failed_sessions": failed_sessions,
        "failed_ops": failed_ops,
        "chaos": chaos_axes,
    }


def run_serve(
    clients: int = 100,
    ops_per_client: int = 4,
    mode: str = "loopback",
    base_port: int = 7420,
    drop_rate: float = 0.0,
    duplicate_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    partition: Optional[Tuple[float, float, Tuple[int, ...]]] = None,
    chaos_seed: int = 0,
) -> dict:
    """Host a cluster on the asyncio transport and load it with clients.

    Any non-zero fault knob (or a ``partition``) installs a seeded
    :class:`~repro.transport.chaos.ChaosPolicy` on the transport and
    runs the sessions with the chaos-tolerant retry policy.
    ``partition`` is ``(start_ms, end_ms, group)``: the group is cut off
    from the rest of the cluster for that window (one transport unit is
    one millisecond at the default time scale).  Returns the result
    dict.  ``failed_sessions`` must be zero — on healthy *and* chaos
    runs: the protocol is expected to mask injected transport faults
    completely.
    """
    if clients < 1:
        raise ConfigurationError(f"clients must be >= 1, got {clients}")
    if ops_per_client < 1:
        raise ConfigurationError(
            f"ops per client must be >= 1, got {ops_per_client}"
        )
    # Built (and so range-checked) whether or not any rate is non-zero.
    link = LinkChaos(
        drop=drop_rate, duplicate=duplicate_rate, corrupt=corrupt_rate,
    )
    chaos = link != LinkChaos() or partition is not None
    chaos_policy = ChaosPolicy(
        seed=chaos_seed, default=link,
    ) if chaos else None
    plan = None
    if partition is not None:
        start, end, group = partition
        plan = CampaignSchedule(events=[
            FaultEvent(time=start, kind="partition", targets=tuple(group)),
            FaultEvent(time=end, kind="heal"),
        ], seed=chaos_seed)
    return asyncio.run(
        _serve(
            clients=clients,
            ops_per_client=ops_per_client,
            mode=mode,
            base_port=base_port,
            chaos_policy=chaos_policy,
            plan=plan,
        )
    )
