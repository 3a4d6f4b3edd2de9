"""Coordinator failover (client multipathing) through a volume session."""

from repro import LogicalVolume
from repro.core.messages import OrderReadReq, WriteReq
from repro.core.session import RetryPolicy
from repro.types import ABORT
from tests.conftest import block_of, crash_after, make_cluster


class TestFailover:
    def test_read_fails_over_when_coordinator_dies_midway(self):
        cluster = make_cluster(m=3, n=5)
        session = LogicalVolume(cluster, num_stripes=2).session(route=1)
        session.write(0, block_of(32, tag=1))
        # Crash coordinator 1 after its next Order&Read fan-out begins.
        crash_after(cluster, 1, OrderReadReq, 2)
        # A write via brick 1 dies mid-operation; the session must
        # retry through another brick and still succeed.
        assert session.write(0, block_of(32, tag=2)) == "OK"
        assert not cluster.nodes[1].is_up
        assert session.stats.failovers > 0
        assert session.read(0) == block_of(32, tag=2)

    def test_preferred_coordinator_down_uses_first_live(self):
        # The pinned brick is already down when the op is submitted:
        # the first attempt goes to a live brick, no failover needed.
        cluster = make_cluster(m=3, n=5)
        session = LogicalVolume(cluster, num_stripes=2).session(route=1)
        cluster.crash(1)
        data = block_of(32, tag=3)
        op = session.submit_write(0, data)
        session.drain()
        assert op.result == "OK"
        assert op.coordinator == cluster.live_processes()[0]
        assert op.failovers == 0
        assert session.read(0) == data

    def test_explicit_pid_down_falls_back(self):
        cluster = make_cluster(m=3, n=5)
        session = LogicalVolume(cluster, num_stripes=2).session(route=4)
        cluster.crash(4)
        op = session.submit_write(1, block_of(32, tag=4))
        session.drain()
        assert op.result == "OK"
        assert op.coordinator != 4

    def test_failover_preserves_strictness(self):
        """The first coordinator's partial write and the retried write
        must not leave mixed state visible."""
        cluster = make_cluster(m=3, n=5)
        volume = LogicalVolume(cluster, num_stripes=1)
        session = volume.session(route=1)
        session.write(0, block_of(32, tag=5))
        crash_after(cluster, 1, WriteReq, 2)
        replacement = block_of(32, tag=6)
        assert session.write(0, replacement) == "OK"
        # Every subsequent read agrees, whichever brick coordinates it.
        first = session.read(0)
        assert first == replacement
        for pid in (2, 3, 4, 5):
            assert volume.session(route=pid).read(0) == first

    def test_gives_up_after_bounded_attempts(self):
        cluster = make_cluster(m=3, n=5, op_timeout=30.0)
        session = LogicalVolume(cluster, num_stripes=1).session(
            retry=RetryPolicy(attempts=2, backoff=1.0)
        )
        for pid in (3, 4, 5):
            cluster.crash(pid)  # below quorum: every attempt aborts
        op = session.submit_read(0)
        session.drain()
        assert op.result is ABORT  # op_timeout turns each try into ⊥
        assert op.attempts == 2
