"""End-to-end soak tests: the whole stack under sustained hostile load."""

import pytest

from repro import ClusterConfig, FabCluster, LogicalVolume
from repro.core.coordinator import CoordinatorConfig
from repro.core.rebuild import Rebuilder, Scrubber
from repro.campaign.schedule import apply_schedule, generate_schedule
from repro.sim.network import NetworkConfig
from repro.transport.chaos import ChaosPolicy
from repro.transport.sim import SimTransport
from repro.types import ABORT
from repro.workloads import TraceReplayer, ZipfPattern, synthesize_trace


def build_cluster(seed=0, drop=0.0, gc=True):
    cluster = FabCluster(
        ClusterConfig(
            m=3,
            n=6,
            block_size=128,
            network=NetworkConfig(
                min_latency=0.5, max_latency=2.5, jitter_seed=seed,
            ),
            coordinator=CoordinatorConfig(gc_enabled=gc),
            seed=seed,
        )
    )
    cluster.transport.set_drop_probability(drop)
    return cluster


class TestSoak:
    def test_long_trace_with_churn_loss_and_gc(self):
        """300 ops; f-bounded churn; 5% loss; GC on; verify every block."""
        cluster = build_cluster(seed=21, drop=0.05)
        volume = LogicalVolume(cluster, num_stripes=20)
        churn = apply_schedule(cluster, generate_schedule(
            seed=5, n=6, duration=2000.0, max_down=cluster.quorum_system.f,
            partition_weight=0.0, drop_weight=0.0,
            event_gap=(20.0, 150.0), down_time=(30.0, 90.0),
        ))
        trace = synthesize_trace(
            300, volume.num_blocks, read_fraction=0.6,
            mean_interarrival=4.0, pattern=ZipfPattern(1.0, seed=2), seed=9,
        )
        replayer = TraceReplayer(volume)
        stats = replayer.replay(trace)

        assert stats.operations == 300
        assert stats.abort_rate < 0.2
        assert churn["crash"] > 0

        # Recover everyone and verify the final value of every block
        # that had a successful write.
        for pid in cluster.nodes:
            cluster.recover(pid)
        last_payload = {}
        for op in trace:
            if op.op == "write":
                last_payload[op.block] = replayer._payload(op)
        # Replay the volume's abort decisions: a block whose last write
        # aborted may hold either value; just require reads to be
        # stable and non-corrupt.
        session = volume.session()
        for block, payload in sorted(last_payload.items()):
            value = session.read(block)
            assert value is not ABORT
            again = session.read(block)
            assert again == value  # stability
        # GC kept logs bounded.
        assert cluster.max_log_entries(0) <= 5

    def test_rebuild_cycle_during_load(self):
        """Brick dies, misses writes, is rebuilt; redundancy restored."""
        cluster = build_cluster(seed=3)
        volume = LogicalVolume(cluster, num_stripes=10)
        session = volume.session()
        for block in range(volume.num_blocks):
            assert session.write(block, bytes([block % 256]) * 128) == "OK"
        cluster.crash(6)
        for block in range(0, volume.num_blocks, 2):
            assert session.write(block, bytes([(block + 7) % 256]) * 128) == "OK"
        report = Rebuilder(cluster).rebuild_brick(
            6, range(10)
        )
        assert report.aborted == 0
        scrubber = Scrubber(cluster)
        for register_id in range(10):
            assert scrubber.scrub_register(register_id).fully_redundant
        # Now ANY two bricks may fail (f permits 1, but 6 holds data for
        # quorums that exclude two specific others after rebuild) — at
        # minimum the original fault bound still holds:
        cluster.crash(2)
        for block in range(volume.num_blocks):
            assert session.read(block) is not ABORT

    def test_duplicating_network(self):
        """Message duplication (at-most-once layer) does not break ops."""
        transport = SimTransport(config=NetworkConfig(jitter_seed=7))
        transport.set_chaos(ChaosPolicy(seed=7, duplicate=0.5))
        cluster = FabCluster(
            ClusterConfig(m=2, n=4, block_size=64, seed=7),
            transport=transport,
        )
        register = cluster.register(0)
        for tag in range(10):
            stripe = [bytes([tag, i]) * 32 for i in range(2)]
            assert register.write_stripe(stripe) == "OK"
            assert register.read_stripe() == stripe
        assert transport.stats.duplicated > 0

    def test_every_code_kind_end_to_end(self):
        for kind, m, n in [
            ("reed-solomon", 3, 6),
            ("parity", 3, 4),
            ("replication", 1, 3),
        ]:
            cluster = FabCluster(
                ClusterConfig(m=m, n=n, block_size=64, code_kind=kind)
            )
            register = cluster.register(0)
            stripe = [bytes([i + 1]) * 64 for i in range(m)]
            assert register.write_stripe(stripe) == "OK", kind
            if cluster.quorum_system.f >= 1:
                # Single-parity with n = m + 1 has f = 0: it repairs
                # *data* from any m blocks but cannot run quorums with
                # a brick down, so skip the crash there.
                cluster.crash(n)
            assert register.read_stripe() == stripe, kind
            if m > 1:
                assert register.write_block(1, b"\xaa" * 64) == "OK", kind
                assert register.read_block(1) == b"\xaa" * 64, kind

    def test_mixed_volumes_share_cluster(self):
        cluster = build_cluster(seed=11)
        volume_a = LogicalVolume(cluster, num_stripes=5, base_register_id=0)
        volume_b = LogicalVolume(
            cluster, num_stripes=5, base_register_id=1000, stripe_shuffle=False
        )
        session_a, session_b = volume_a.session(), volume_b.session()
        for block in range(volume_a.num_blocks):
            session_a.write(block, b"A" * 128)
            session_b.write(block, b"B" * 128)
        cluster.crash(4)
        assert all(
            session_a.read(block) == b"A" * 128
            for block in range(volume_a.num_blocks)
        )
        assert all(
            session_b.read(block) == b"B" * 128
            for block in range(volume_b.num_blocks)
        )
