"""ChaosTransport: seeded fault injection over sim and asyncio inners."""

import pytest

from repro.core.client import RetryPolicy
from repro.core.cluster import ClusterConfig, FabCluster
from repro.core.volume import LogicalVolume
from repro.errors import ConfigurationError
from repro.campaign.schedule import CampaignSchedule, FaultEvent, apply_schedule
from repro.transport import make_transport
from repro.transport.chaos import ChaosPolicy, ChaosTransport, LinkChaos
from repro.transport.sim import SimTransport


def _chaos_cluster(policy, m=3, n=5, stripes=4, seed=11):
    transport = ChaosTransport(SimTransport(), policy)
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
    policy = ChaosPolicy(
        seed=42,
        default=LinkChaos(drop=0.05, delay=0.1, delay_range=(2.0, 6.0)),
        links={(1, 2): LinkChaos(drop=0.5, corrupt=0.1)},
    )
    restored = ChaosPolicy.from_json(policy.to_json())
    assert restored == policy
    assert restored.link(1, 2).drop == 0.5
    assert restored.link(2, 1) == restored.default


def test_policy_validates_probabilities():
    with pytest.raises(ConfigurationError, match="drop"):
        LinkChaos(drop=1.5)
    with pytest.raises(ConfigurationError, match="delay_range"):
        LinkChaos(delay_range=(5.0, 1.0))
    with pytest.raises(ConfigurationError, match="drop probability"):
        ChaosTransport(SimTransport()).set_drop_probability(2.0)


def test_partition_window_cuts_only_across_group():
    transport = ChaosTransport(SimTransport())
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


def test_bare_asyncio_transport_refuses_link_faults():
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport()
    for inject in (
        lambda: transport.partition({1}),
        transport.heal,
        lambda: transport.set_drop_probability(0.1),
    ):
        with pytest.raises(ConfigurationError, match="ChaosTransport"):
            inject()


#: One hand-built plan, applied unchanged to both substrates.
TWO_SUBSTRATE_PLAN = CampaignSchedule(events=[
    FaultEvent(time=10.0, kind="partition", targets=(2,)),
    FaultEvent(time=20.0, kind="drop_start", value=0.3),
    FaultEvent(time=50.0, kind="heal"),
    FaultEvent(time=60.0, kind="drop_stop"),
    FaultEvent(time=70.0, kind="crash", targets=(1,)),
    FaultEvent(time=90.0, kind="recover", targets=(1,)),
], seed=9)


@pytest.mark.parametrize("wrapped", [False, True], ids=["sim", "chaos"])
def test_one_plan_two_substrates(wrapped):
    """The same plan through the one applier: every op completes with
    the right value, and only sends inside [10, 50) hit the partition."""
    inner = SimTransport()
    transport = ChaosTransport(inner, ChaosPolicy(seed=9)) if wrapped \
        else inner
    cluster = FabCluster(ClusterConfig(m=3, n=5, seed=11), transport=transport)
    cut_at = []  # when each partition-dropped send happened
    if wrapped:
        real_send = transport.send

        def send(src, dst, payload, size=0):
            before = transport.stats.partition_dropped
            real_send(src, dst, payload, size)
            if transport.stats.partition_dropped > before:
                cut_at.append(cluster.env.now)

        transport.send = send
    else:
        network = inner.network
        network.add_send_observer(
            lambda m: cut_at.append(cluster.env.now)
            if network.is_partitioned(m.src, m.dst) else None
        )
    applied = apply_schedule(cluster, TWO_SUBSTRATE_PLAN)
    _run_workload(LogicalVolume(cluster, num_stripes=4), rounds=6)
    assert cluster.env.now > 90.0  # the workload outlived the plan
    assert applied == {
        "partition": 1, "drop_start": 1, "heal": 1, "drop_stop": 1,
        "crash": 1, "recover": 1,
    }
    assert cut_at and all(10.0 <= t < 50.0 for t in cut_at)
    assert all(node.is_up for node in cluster.nodes.values())
    if wrapped:
        assert transport.stats.window_dropped > 0
        assert transport.stats.partition_dropped == len(cut_at)


def test_make_transport_wraps_with_chaos_policy():
    transport = make_transport("sim", chaos_policy=ChaosPolicy(seed=1))
    assert isinstance(transport, ChaosTransport)
    assert isinstance(transport.inner, SimTransport)


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
        policy = ChaosPolicy(
            seed=21,
            default=LinkChaos(
                drop=0.08, delay=0.1, duplicate=0.05, reorder=0.05
            ),
        )
        _cluster, volume, transport = _chaos_cluster(policy, seed=13)
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
    policy = ChaosPolicy(seed=7, default=LinkChaos(drop=0.10))
    _cluster, volume, transport = _chaos_cluster(policy)
    _run_workload(volume)
    assert transport.stats.dropped > 0


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
    assert transport.stats.window_dropped > 0


def test_corruption_is_detected_and_becomes_erasure():
    """Bit-flipped frames always fail the CRC check: they are counted
    and *discarded*, never delivered — so the workload still completes
    with correct values (corrupt-as-erasure)."""
    policy = ChaosPolicy(seed=29, default=LinkChaos(corrupt=0.15))
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

    policy = ChaosPolicy(seed=1, default=LinkChaos(corrupt=0.5))
    transport = ChaosTransport(SimTransport(), policy)
    delivered = []
    transport.register(1, delivered.append)
    transport.register(2, delivered.append)
    flips = 0
    for request in requests:
        frame = wire.encode_frame(1, 2, request, request.size)
        at = frame.index(block)
        for bit in (at * 8, (at + 31) * 8 + 4, (at + len(block)) * 8 - 1):
            transport._rng = AimedRng(bit, frame)
            transport.send(1, 2, request, request.size)
            flips += 1
    transport.run()
    assert transport.stats.corrupted == flips
    assert transport.stats.forwarded == 0
    assert delivered == []


def test_duplicate_and_reorder_are_absorbed():
    """Duplicated and reordered deliveries are protocol no-ops (the
    reply cache and timestamp order absorb them)."""
    policy = ChaosPolicy(
        seed=31, default=LinkChaos(duplicate=0.2, reorder=0.15)
    )
    _cluster, volume, transport = _chaos_cluster(policy)
    _run_workload(volume)
    assert transport.stats.duplicated > 0
    assert transport.stats.reordered > 0


def test_chaos_transport_delegates_surface():
    """The wrapper is a faithful Transport: clock, peer state, network
    accessor, and metrics adoption all reach the inner substrate."""
    inner = SimTransport()
    transport = ChaosTransport(inner, ChaosPolicy())
    assert transport.env is inner.env
    assert transport.now() == inner.now()
    assert transport.peer_state(1) == "up"
    assert transport.network is inner.network
    sink = object()
    transport.metrics = sink
    assert inner.metrics is sink


def test_session_transport_budget_aborts_cleanly():
    """When every brick is transport-down, operations burn the separate
    transport_attempts budget and finish with a clean timeout abort
    instead of hanging."""
    from repro.types import ABORT

    cluster, volume, transport = _chaos_cluster(ChaosPolicy())
    for pid in list(cluster.nodes):
        transport.inner.network._down.add(pid)
        # Nodes stay formally up: only the transport says "down".
    retry = RetryPolicy(attempts=3, backoff=1.0, transport_attempts=3)
    session = volume.session(max_inflight=1, retry=retry)
    op = session.submit_write(0, b"x" * volume.block_size)
    session.drain()
    assert op.status == "timeout"
    assert op.value is ABORT
    assert session.stats.transport_retries == 3
    assert session.stats.timeouts == 1
