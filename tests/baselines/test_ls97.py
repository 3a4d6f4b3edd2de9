"""LS97 replicated register baseline."""

import pytest

from repro.baselines.ls97 import Ls97Cluster, Ls97Config
from repro.sim.network import NetworkConfig
from repro.types import ABORT


class TestBasicOperation:
    def test_write_read(self):
        cluster = Ls97Cluster(Ls97Config(n=5))
        assert cluster.write(0, b"value-1") == "OK"
        assert cluster.read(0) == b"value-1"

    def test_read_unwritten_is_none(self):
        cluster = Ls97Cluster(Ls97Config(n=3))
        assert cluster.read(0) is None

    def test_overwrite_ordering(self):
        cluster = Ls97Cluster(Ls97Config(n=5))
        for tag in range(5):
            cluster.write(0, f"v{tag}".encode())
        assert cluster.read(0) == b"v4"

    def test_multi_register(self):
        cluster = Ls97Cluster(Ls97Config(n=3))
        cluster.write(0, b"a")
        cluster.write(1, b"b")
        assert cluster.read(0) == b"a"
        assert cluster.read(1) == b"b"

    def test_any_coordinator(self):
        cluster = Ls97Cluster(Ls97Config(n=5))
        cluster.write(0, b"x", route=2)
        for pid in range(1, 6):
            assert cluster.read(0, route=pid) == b"x"


class TestFaultTolerance:
    def test_survives_minority_crashes(self):
        cluster = Ls97Cluster(Ls97Config(n=5))
        cluster.write(0, b"persist")
        cluster.crash(4)
        cluster.crash(5)
        assert cluster.read(0) == b"persist"
        assert cluster.write(0, b"newer") == "OK"
        assert cluster.read(0) == b"newer"

    def test_write_back_updates_stale_replica(self):
        cluster = Ls97Cluster(Ls97Config(n=3))
        cluster.write(0, b"v1")
        cluster.crash(3)
        cluster.write(0, b"v2")
        cluster.recover(3)
        # Reads write back the latest value; eventually 3 catches up.
        cluster.read(0)
        cluster.env.run(until=cluster.env.now + 20)
        assert cluster.nodes[3].stable.load("reg:0")[1] == b"v2"

    def test_majority_loss_aborts_instead_of_spinning(self):
        # Each phase is a QuorumRpc call: with 2 of 5 up it expires after
        # the default op_timeout (120 units) and the operation aborts.
        cluster = Ls97Cluster(Ls97Config(n=5))
        cluster.write(0, b"kept")
        for pid in (3, 4, 5):
            cluster.crash(pid)
        start = cluster.env.now
        assert cluster.read(0) is ABORT
        assert cluster.write(0, b"lost") is ABORT
        assert cluster.env.now - start == pytest.approx(240.0)
        for pid in (3, 4, 5):
            cluster.recover(pid)
        assert cluster.read(0) == b"kept"

    def test_phase_retransmits_until_a_majority_answers(self):
        # A phase that has no majority yet keeps retransmitting until
        # op_timeout; a replica recovering in time completes the write.
        cluster = Ls97Cluster(Ls97Config(n=5))
        for pid in (3, 4, 5):
            cluster.crash(pid)
        coordinator = cluster.coordinators[1]
        process = coordinator.node.spawn(coordinator.write(0, b"late"))
        cluster.env.run(until=cluster.env.now + 30)
        assert not process.triggered
        cluster.recover(3)
        assert cluster.transport.run_until_complete(process) == "OK"
        assert cluster.metrics.total_retransmissions > 0
        assert cluster.read(0) == b"late"

    def test_aborts_are_recorded_in_metrics(self):
        cluster = Ls97Cluster(Ls97Config(n=3))
        cluster.write(0, b"v1")
        cluster.crash(2)
        cluster.crash(3)
        cluster.read(0)
        cluster.write(0, b"v2")
        assert [(op.kind, op.aborted) for op in cluster.metrics.operations] == [
            ("ls97-write", False), ("ls97-read", True), ("ls97-write", True),
        ]


class TestCostProfile:
    def test_table1_right_columns(self):
        """read: 4δ, 4n msgs, n disk reads, 2nB; write: 4δ, 4n, n writes, nB."""
        n, B = 5, 64
        cluster = Ls97Cluster(Ls97Config(n=n, block_size=B))
        cluster.write(0, b"w" * B)
        cluster.read(0)
        summary = cluster.metrics.summary()
        w = summary["ls97-write/fast"]
        r = summary["ls97-read/fast"]
        assert w["latency_delta"] == 4
        assert w["messages"] == 4 * n
        assert w["disk_writes"] == n
        assert w["bytes"] == n * B
        assert r["latency_delta"] == 4
        assert r["messages"] == 4 * n
        assert r["disk_reads"] == n
        assert r["bytes"] == 2 * n * B

    def test_reads_cost_double_ours(self):
        """LS97 reads are 4δ vs our fast 2δ — the paper's improvement."""
        from tests.conftest import make_cluster, stripe_of

        ours = make_cluster(m=1, n=3, block_size=16)
        register = ours.register(0)
        register.write_stripe([b"p" * 16])
        register.read_stripe()
        our_read = ours.metrics.summary()["read-stripe/fast"]

        theirs = Ls97Cluster(Ls97Config(n=3, block_size=16))
        theirs.write(0, b"p" * 16)
        theirs.read(0)
        their_read = theirs.metrics.summary()["ls97-read/fast"]

        assert our_read["latency_delta"] == 2
        assert their_read["latency_delta"] == 4
