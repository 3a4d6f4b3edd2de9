"""Link faults on the transport: seeded chaos, cuts and drop windows,
one implementation on the sim and the asyncio substrate alike."""

import asyncio
import time

import pytest

import repro.transport

from repro.analysis.serve import CHAOS_SESSION_RETRY, SERVE_OP_TIMEOUT
from repro.core.session import RetryPolicy
from repro.core.cluster import ClusterConfig, FabCluster
from repro.core.coordinator import CoordinatorConfig
from repro.core.volume import LogicalVolume
from repro.errors import ConfigurationError
from repro.sim.network import NetworkConfig
from repro.campaign.schedule import CampaignSchedule, FaultEvent, apply_schedule
from repro.transport.aio import AsyncioTransport
from repro.transport.chaos import ChaosPolicy
from repro.transport.sim import SimTransport
from repro.verify.linearizability import check_strict_linearizability
from tests.conftest import watch_sends


def _chaotic(transport, policy):
    transport.set_chaos(policy)
    return transport


def _chaos_cluster(policy, m=3, n=5, stripes=4, seed=11, drop=0.0):
    transport = _chaotic(SimTransport(), policy)
    transport.set_drop_probability(drop)
    cluster = FabCluster(
        ClusterConfig(m=m, n=n, seed=seed), transport=transport
    )
    return cluster, LogicalVolume(cluster, num_stripes=stripes), transport


def _run_workload(volume, rounds=3):
    """Write/read every block a few rounds; returns the read-back values."""
    blocks = volume.num_blocks
    values = {}
    with volume.session(max_inflight=4, seed=5) as session:
        for round_index in range(rounds):
            for block in range(blocks):
                data = (
                    f"r{round_index}b{block}.".encode()
                    * volume.block_size
                )[:volume.block_size]
                session.submit_write(block, data)
                values[block] = data
        reads = [session.submit_read(block) for block in range(blocks)]
    assert all(op.ok for op in session.ops)
    for block, op in enumerate(reads):
        assert op.value == values[block]
    return session


# -- policy data model ----------------------------------------------------


def test_policy_json_round_trip():
    policy = ChaosPolicy(seed=42, duplicate=0.1, corrupt=0.1)
    restored = ChaosPolicy.from_json(policy.to_json())
    assert restored == policy


def test_policy_validates_probabilities():
    with pytest.raises(ConfigurationError, match="duplicate"):
        ChaosPolicy(duplicate=1.5)
    with pytest.raises(ConfigurationError, match="drop probability"):
        SimTransport().set_drop_probability(2.0)


def test_the_wrapper_is_gone():
    assert not hasattr(repro.transport, "ChaosTransport")


def test_partition_window_cuts_only_across_group():
    transport = SimTransport()
    delivered = []
    for pid in (1, 2, 3, 4):
        transport.register(pid, lambda m: delivered.append((m.src, m.dst)))
    transport.partition((1, 2))
    for src, dst in ((1, 3), (3, 1), (1, 2), (3, 4)):
        transport.send(src, dst, "x")
    transport.heal()
    transport.send(1, 3, "x")  # window over
    transport.run()
    assert transport.stats.partition_dropped == 2
    assert sorted(delivered) == [(1, 2), (1, 3), (3, 4)]


def test_bare_asyncio_transport_takes_link_faults():
    """A cut on a bare loopback transport loses exactly the crossing
    sends; healing and closing the window leave no fault installed."""
    transport = AsyncioTransport()
    delivered = []
    for pid in (1, 2, 3):
        transport.register(pid, lambda m: delivered.append((m.src, m.dst)))
    transport.partition({1})
    transport.set_drop_probability(0.1)
    transport.set_drop_probability(0.0)
    for src, dst in ((1, 2), (2, 3), (1, 1)):
        transport.send(src, dst, "x")
    transport.env.run()  # the pump's queue, stepped before start()
    assert delivered == [(2, 3), (1, 1)]
    assert transport.stats.partition_dropped == 1
    transport.heal()
    assert not transport._faulted


@pytest.mark.parametrize("substrate", ["sim", "chaos", "loopback"])
def test_cut_catches_a_message_in_flight(substrate):
    """A partition installed after the send but before the delivery
    loses the message, whichever substrate carries it."""
    if substrate == "loopback":
        transport = AsyncioTransport()
    else:
        transport = SimTransport()
        if substrate == "chaos":
            transport.set_chaos(ChaosPolicy(seed=3))
    delivered = []
    for pid in (1, 2):
        transport.register(pid, delivered.append)
    transport.send(1, 2, "x")
    transport.partition({2})
    transport.env.run()
    assert delivered == []
    assert transport.stats.partition_dropped == 1


#: One hand-built plan, applied unchanged to both substrates.
TWO_SUBSTRATE_PLAN = CampaignSchedule(events=[
    FaultEvent(time=10.0, kind="partition", targets=(2,)),
    FaultEvent(time=20.0, kind="drop_start", value=0.3),
    FaultEvent(time=50.0, kind="heal"),
    FaultEvent(time=60.0, kind="drop_stop"),
    FaultEvent(time=70.0, kind="crash", targets=(1,)),
    FaultEvent(time=90.0, kind="recover", targets=(1,)),
], seed=9)


@pytest.mark.parametrize("chaos", [False, True], ids=["sim", "chaos"])
def test_one_plan_two_substrates(chaos):
    """The same plan through the one applier, on a bare sim and on one
    with a chaos policy: every op completes with the right value, and
    only sends inside [10, 50) hit the partition."""
    transport = SimTransport()
    if chaos:
        transport.set_chaos(ChaosPolicy(seed=9))
    cluster = FabCluster(ClusterConfig(m=3, n=5, seed=11), transport=transport)
    cut_at = []  # when each partition-dropped send happened

    def on_send(src, dst, _payload):
        if transport.is_partitioned(src, dst):
            cut_at.append(cluster.env.now)

    watch_sends(transport, on_send)
    applied = apply_schedule(cluster, TWO_SUBSTRATE_PLAN)
    _run_workload(LogicalVolume(cluster, num_stripes=4), rounds=6)
    assert cluster.env.now > 90.0  # the workload outlived the plan
    assert applied == {
        "partition": 1, "drop_start": 1, "heal": 1, "drop_stop": 1,
        "crash": 1, "recover": 1,
    }
    assert cut_at and all(10.0 <= t < 50.0 for t in cut_at)
    assert all(node.is_up for node in cluster.nodes.values())
    assert transport.stats.dropped > 0
    # Every cut send is counted, and so is every delivery a cut caught
    # in flight.
    assert transport.stats.partition_dropped >= len(cut_at)


def test_one_plan_on_a_bare_loopback_transport():
    """The same plan on a bare wall-clock transport: no wrapper, no
    refusal.  Every op completes with the value its client wrote, the
    histories are strictly linearizable, and the cut lost messages."""
    transport = AsyncioTransport()
    cluster = FabCluster(
        ClusterConfig(
            m=3, n=5, seed=11, transport="asyncio",
            coordinator=CoordinatorConfig(op_timeout=SERVE_OP_TIMEOUT),
        ),
        transport=transport,
    )
    volume = LogicalVolume(cluster, num_stripes=4)
    planned = len(TWO_SUBSTRATE_PLAN.events)

    async def drive():
        await transport.start()
        try:
            applied = apply_schedule(cluster, TWO_SUBSTRATE_PLAN)
            sessions = [
                volume.session(
                    max_inflight=2, seed=client, retry=CHAOS_SESSION_RETRY
                )
                for client in range(4)
            ]
            written = {}  # (client, block) -> the last value written
            for round_index in range(2):
                for client, session in enumerate(sessions):
                    block = client + 4 * round_index
                    data = (f"c{client}r{round_index}.".encode()
                            * volume.block_size)[:volume.block_size]
                    session.submit_write(block, data)
                    written[client, block] = data
            # Clients own disjoint blocks and keep re-reading them until
            # every event of the plan has been applied (the clock passing
            # the last event's time does not mean its timer has run).
            checks = []
            deadline = time.monotonic() + 30.0
            while True:
                await asyncio.gather(
                    *(session.drain_async() for session in sessions)
                )
                if (sum(applied.values()) == planned
                        or time.monotonic() > deadline):
                    return applied, sessions, checks
                for (client, block), data in written.items():
                    op = sessions[client].submit_read(block)
                    checks.append((op, data))
        finally:
            await transport.stop()

    applied, sessions, checks = asyncio.run(drive())
    assert sum(applied.values()) == len(TWO_SUBSTRATE_PLAN.events)
    assert all(op.ok for session in sessions for op in session.ops)
    assert all(op.value == data for op, data in checks)
    for session in sessions:
        per_block = {}
        for record in session.history():
            per_block.setdefault(record.block_index, []).append(record)
        for records in per_block.values():
            assert check_strict_linearizability(records).ok
    assert transport.stats.partition_dropped > 0
    assert all(node.is_up for node in cluster.nodes.values())


# -- behaviour on the sim substrate ---------------------------------------


def test_quiet_policy_is_transparent():
    """An empty policy must not perturb the run at all."""
    _cluster, volume, transport = _chaos_cluster(ChaosPolicy(seed=3))
    _run_workload(volume)
    assert transport.stats.dropped == 0
    assert transport.stats.corrupted == 0
    assert transport.stats.forwarded > 0


def test_fixed_seed_chaos_run_is_bit_identical():
    """Two runs with identical seeds produce identical fault decisions,
    identical retry behaviour, and identical chaos counters."""

    def one_run():
        policy = ChaosPolicy(seed=21, duplicate=0.05, corrupt=0.05)
        _cluster, volume, transport = _chaos_cluster(
            policy, seed=13, drop=0.08
        )
        session = _run_workload(volume)
        return (
            transport.stats.to_dict(),
            session.stats.retries,
            session.stats.failovers,
            [op.attempts for op in session.ops],
        )

    assert one_run() == one_run()


def test_drop_rate_heals_via_retransmission():
    """10% loss on every link costs retransmissions, never results."""
    _cluster, volume, transport = _chaos_cluster(ChaosPolicy(seed=7), drop=0.10)
    _run_workload(volume)
    assert transport.stats.dropped > 0


@pytest.mark.parametrize("substrate", ["sim", "loopback"])
def test_window_losses_count_as_dropped(substrate):
    """A drop window's losses land in the one ``dropped`` counter, on
    the sim and on a bare loopback transport alike."""
    transport = SimTransport() if substrate == "sim" else AsyncioTransport()
    delivered = []
    for pid in (1, 2):
        transport.register(pid, delivered.append)
    transport.set_drop_probability(0.5)
    for _ in range(200):
        transport.send(1, 2, "x")
    transport.env.run()
    assert 0 < transport.stats.dropped < 200
    assert len(delivered) == transport.stats.forwarded
    assert len(delivered) == 200 - transport.stats.dropped


def test_partition_window_masked_by_quorum():
    """Cutting one brick (f=1) for a window still completes every op;
    the window's kills are accounted separately from random drops."""
    cluster, volume, transport = _chaos_cluster(ChaosPolicy(seed=5))
    apply_schedule(cluster, CampaignSchedule(events=[
        FaultEvent(time=0.0, kind="partition", targets=(2,)),
        FaultEvent(time=150.0, kind="heal"),
    ]))
    _run_workload(volume)
    assert transport.stats.partition_dropped > 0
    assert transport.stats.dropped == 0


def test_drop_window_elevates_loss_temporarily():
    cluster, volume, transport = _chaos_cluster(ChaosPolicy(seed=17))
    apply_schedule(cluster, CampaignSchedule(events=[
        FaultEvent(time=0.0, kind="drop_start", value=0.3),
        FaultEvent(time=100.0, kind="drop_stop"),
    ]))
    _run_workload(volume)
    assert transport.stats.dropped > 0


def test_corruption_is_detected_and_becomes_erasure():
    """Bit-flipped frames always fail the CRC check: they are counted
    and *discarded*, never delivered — so the workload still completes
    with correct values (corrupt-as-erasure)."""
    policy = ChaosPolicy(seed=29, corrupt=0.15)
    _cluster, volume, transport = _chaos_cluster(policy)
    _run_workload(volume)
    assert transport.stats.corrupted > 0
    # Every corrupted frame was dropped, not delivered: delivery count
    # excludes them by construction, and results above verified clean.


def test_bit_flip_inside_a_block_field_is_detected():
    """Blocks ride the binary frame raw (no text armour around them),
    so a flip there changes no framing at all — the frame CRC alone
    must catch it: counted as corrupted, never delivered.  That holds
    for a Write's block and for a Modify's coded delta alike."""
    from repro.core.messages import ModifyReq, WriteReq
    from repro.timestamps import Timestamp
    from repro.transport import wire

    block = bytes(range(64))
    requests = [
        WriteReq(0, 1, block=block, ts=Timestamp(5, 1)),
        ModifyReq(0, 2, j=1, delta=block, ts_j=Timestamp(4, 1),
                  ts=Timestamp(5, 1)),
    ]

    class AimedRng:
        """Always corrupt, and always at the chosen bit."""

        def __init__(self, bit, frame):
            self.bit = bit
            self.frame = frame

        def random(self):
            return 0.0

        def randrange(self, stop):
            assert stop == len(self.frame) * 8
            return self.bit

    policy = ChaosPolicy(seed=1, corrupt=0.5)
    transport = _chaotic(SimTransport(), policy)
    delivered = []
    transport.register(1, delivered.append)
    transport.register(2, delivered.append)
    flips = 0
    for request in requests:
        frame = wire.encode_frame(1, 2, request, request.size)
        at = frame.index(block)
        for bit in (at * 8, (at + 31) * 8 + 4, (at + len(block)) * 8 - 1):
            transport._chaos_rng = AimedRng(bit, frame)
            transport.send(1, 2, request, request.size)
            flips += 1
    transport.run()
    assert transport.stats.corrupted == flips
    assert transport.stats.forwarded == 0
    assert delivered == []


def test_duplicate_and_reorder_are_absorbed():
    """Duplicated and reordered deliveries are protocol no-ops (the
    reply cache and timestamp order absorb them).  The policy
    duplicates; the network's latency window reorders."""
    policy = ChaosPolicy(seed=31, duplicate=0.2)
    transport = _chaotic(
        SimTransport(config=NetworkConfig(min_latency=1.0, max_latency=4.0)),
        policy,
    )
    cluster = FabCluster(ClusterConfig(m=3, n=5, seed=11), transport=transport)
    _run_workload(LogicalVolume(cluster, num_stripes=4))
    assert transport.stats.duplicated > 0


def test_session_transport_budget_aborts_cleanly():
    """When every brick is transport-down, each attempt runs, its phases
    expire into ⊥, and the op ends a clean abort after exactly
    ``retry.attempts`` tries instead of hanging."""
    from repro.types import ABORT

    cluster, volume, transport = _chaos_cluster(ChaosPolicy())
    for pid in list(cluster.nodes):
        transport.set_down(pid, True)
        # Nodes stay formally up: only the transport says "down".
    retry = RetryPolicy(attempts=3, backoff=1.0)
    session = volume.session(max_inflight=1, retry=retry)
    op = session.submit_write(0, b"x" * volume.block_size)
    session.drain()
    assert op.status == "aborted"
    assert op.value is ABORT
    assert op.attempts == retry.attempts
    assert session.stats.aborts_exhausted == 1
