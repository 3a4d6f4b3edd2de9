"""Scrubbing and rebuilding (distributed repair)."""

import pytest

from repro.core.rebuild import Rebuilder, Scrubber
from repro.sim.node import StableStore
from tests.conftest import make_cluster, stripe_of


def cluster_with_stale_brick(victim=4, registers=5):
    """Write data, crash a brick, write newer data, recover the brick."""
    cluster = make_cluster(m=3, n=5)
    for register_id in range(registers):
        cluster.register(register_id).write_stripe(
            stripe_of(3, 32, tag=register_id)
        )
    cluster.crash(victim)
    newer = {}
    for register_id in range(registers):
        stripe = stripe_of(3, 32, tag=100 + register_id)
        cluster.register(register_id).write_stripe(stripe)
        newer[register_id] = stripe
    cluster.recover(victim)
    return cluster, newer


def replace_with_blank_brick(cluster, pid):
    """Swap a brick's stable storage for a factory-fresh one.

    Models hot-spare promotion: the process identity (and network
    address) survives, but the disk arrives empty.
    """
    node = cluster.nodes[pid]
    cluster.crash(pid)
    node.stable = StableStore()
    cluster.recover(pid)


class TestScrubber:
    def test_detects_stale_brick(self):
        cluster, _newer = cluster_with_stale_brick()
        report = Scrubber(cluster).scrub_register(0)
        assert report.stale == [4]
        assert sorted(report.current) == [1, 2, 3, 5]
        assert not report.fully_redundant
        assert report.redundancy == 4

    def test_detects_down_brick(self):
        cluster, _ = cluster_with_stale_brick()
        cluster.crash(2)
        report = Scrubber(cluster).scrub_register(0)
        assert report.down == [2]

    def test_fully_redundant_cluster(self):
        cluster = make_cluster(m=3, n=5)
        cluster.register(0).write_stripe(stripe_of(3, 32, tag=1))
        report = Scrubber(cluster).scrub_register(0)
        assert report.fully_redundant
        assert report.redundancy == 5

    def test_stale_registers_listing(self):
        cluster, _ = cluster_with_stale_brick(registers=4)
        stale = Scrubber(cluster).stale_registers(range(4))
        assert stale == [0, 1, 2, 3]

    def test_scrub_costs_no_messages(self):
        cluster, _ = cluster_with_stale_brick()
        before = cluster.metrics.total_messages
        Scrubber(cluster).scrub(range(5))
        assert cluster.metrics.total_messages == before

    def test_blank_replacement_brick_classified_empty(self):
        """Regression: a promoted spare with no state must not pass the
        audit as redundant (it holds nothing)."""
        cluster = make_cluster(m=3, n=5)
        cluster.register(0).write_stripe(stripe_of(3, 32, tag=1))
        replace_with_blank_brick(cluster, 4)
        report = Scrubber(cluster).scrub_register(0)
        assert report.empty == [4]
        assert 4 not in report.current and 4 not in report.stale
        assert not report.fully_redundant

    def test_scrub_never_materializes_phantom_state(self):
        """Auditing an empty brick must not fabricate RegisterState on
        it — the scrubber is read-only."""
        cluster = make_cluster(m=3, n=5)
        cluster.register(0).write_stripe(stripe_of(3, 32, tag=1))
        replace_with_blank_brick(cluster, 4)
        Scrubber(cluster).scrub_register(0)
        assert not cluster.replicas[4].has_register(0)
        assert cluster.replicas[4].register_ids() == []

    def test_unwritten_register_everywhere_is_not_flagged(self):
        """A register that exists nowhere has nothing to re-protect."""
        cluster = make_cluster(m=3, n=5)
        report = Scrubber(cluster).scrub_register(7)
        assert report.newest_ts is None
        assert report.fully_redundant


class TestRebuilder:
    def test_rebuild_restores_full_redundancy(self):
        cluster, newer = cluster_with_stale_brick(registers=3)
        rebuilder = Rebuilder(cluster)
        report = rebuilder.rebuild(range(3))
        assert report.success
        assert report.repaired == 3
        scrubber = Scrubber(cluster)
        for register_id in range(3):
            assert scrubber.scrub_register(register_id).fully_redundant

    def test_rebuild_preserves_data(self):
        cluster, newer = cluster_with_stale_brick(registers=3)
        Rebuilder(cluster).rebuild(range(3))
        for register_id, stripe in newer.items():
            assert cluster.register(register_id).read_stripe() == stripe

    def test_rebuilt_brick_carries_load(self):
        """After rebuild, the repaired brick alone can compensate for
        losing a previously-current brick."""
        cluster, newer = cluster_with_stale_brick(victim=4, registers=2)
        Rebuilder(cluster).rebuild(range(2))
        cluster.crash(5)  # was current; now 4 must fill in
        for register_id, stripe in newer.items():
            assert cluster.register(register_id).read_stripe() == stripe

    def test_current_registers_skipped(self):
        cluster = make_cluster(m=3, n=5)
        cluster.register(0).write_stripe(stripe_of(3, 32, tag=1))
        report = Rebuilder(cluster).rebuild([0])
        assert report.already_current == 1
        assert report.repaired == 0

    def test_blank_replacement_brick_is_reprotected(self):
        """Regression: rebuild on a replaced (blank) brick must repair,
        not return "current" and skip the write-back."""
        cluster = make_cluster(m=3, n=5)
        stripes = {}
        for register_id in range(3):
            stripes[register_id] = stripe_of(3, 32, tag=register_id)
            cluster.register(register_id).write_stripe(stripes[register_id])
        replace_with_blank_brick(cluster, 4)
        rebuilder = Rebuilder(cluster)
        assert rebuilder.rebuild_register(0) == "repaired"
        report = rebuilder.rebuild(range(1, 3))
        assert report.repaired == 2 and report.already_current == 0
        scrubber = Scrubber(cluster)
        for register_id in range(3):
            audit = scrubber.scrub_register(register_id)
            assert audit.fully_redundant
            assert 4 in audit.current
        # The replacement brick can genuinely carry read load now.
        cluster.crash(1)
        for register_id, stripe in stripes.items():
            assert cluster.register(register_id, route=3).read_stripe() == stripe

    def test_rebuild_brick_convenience(self):
        cluster = make_cluster(m=3, n=5)
        for register_id in range(3):
            cluster.register(register_id).write_stripe(
                stripe_of(3, 32, tag=register_id)
            )
        cluster.crash(3)
        for register_id in range(3):
            cluster.register(register_id).write_stripe(
                stripe_of(3, 32, tag=50 + register_id)
            )
        report = Rebuilder(cluster).rebuild_brick(3, range(3))
        assert report.success
        assert cluster.nodes[3].is_up
        assert Scrubber(cluster).scrub_register(1).fully_redundant

    def test_crash_during_rebuild_still_terminates(self):
        """Regression: a brick crashing mid-rebuild must not hang the
        write-back.

        The old code snapshotted ``len(live_processes())`` before
        spawning and demanded that many replies; a crash between the
        read and store phases made the count unreachable and the phase
        retransmitted forever.  Coverage is now re-resolved per reply.
        """
        cluster, newer = cluster_with_stale_brick(registers=1)
        rebuilder = Rebuilder(cluster)
        # Fires between the read phase (replies ~t+2) and the store
        # deliveries (~t+3): brick 5 never sees the write-back.
        cluster.transport.set_timer(2.5, lambda: cluster.crash(5))
        outcome = rebuilder.rebuild_register(0)
        assert outcome == "repaired"
        # The rebuild reached every survivor despite the crash: the
        # previously stale brick 4 is current again.
        report = Scrubber(cluster).scrub_register(0)
        assert report.down == [5]
        assert not report.stale and 4 in report.current
        assert cluster.register(0, route=3).read_stripe() == newer[0]

    def test_crash_during_rebuild_batch(self):
        """A crash mid-batch terminates and later registers still repair."""
        cluster, _ = cluster_with_stale_brick(registers=3)
        rebuilder = Rebuilder(cluster)
        cluster.transport.set_timer(2.5, lambda: cluster.crash(5))
        report = rebuilder.rebuild(range(3))
        assert report.attempted == 3
        assert report.aborted == 0
        scrubber = Scrubber(cluster)
        for register_id in range(3):
            report = scrubber.scrub_register(register_id)
            assert report.down == [5]
            assert not report.stale

    def test_rebuild_is_linearization_safe(self):
        """Rebuild concurrent with client writes never loses data."""
        cluster, _ = cluster_with_stale_brick(registers=1)
        rebuilder = Rebuilder(cluster)
        # Launch a client write concurrently with the rebuild.
        final = stripe_of(3, 32, tag=999)
        write_process = cluster.register(0, route=2).write_stripe_async(final)
        rebuilder.rebuild([0])
        cluster.env.run()
        value = cluster.register(0, route=3).read_stripe()
        if write_process.value == "OK":
            assert value == final
        else:
            assert value is not None


class TestWarmMirrorCorruption:
    """Regression: rot under a warm volatile mirror is an erasure.

    The audit once trusted the mirror, so a brick whose stored log had
    failed its checksum passed as current and no repair ran."""

    def test_corrupt_copy_behind_warm_mirror_is_repaired(self):
        cluster = make_cluster(m=3, n=5)
        stripe = stripe_of(3, 32, tag=7)
        assert cluster.register(0).write_stripe(stripe) == "OK"
        key = cluster.replicas[2].log_key(0)
        # The mirror stays warm: nothing drops it.
        assert cluster.nodes[2].stable.corrupt(key, seed=3)
        assert Scrubber(cluster).scrub_register(0).corrupt == [2]
        assert Rebuilder(cluster).rebuild_register(0) == "repaired"
        assert cluster.nodes[2].stable.verify(key)
        assert Scrubber(cluster).scrub_register(0).fully_redundant
        assert cluster.register(0, route=3).read_stripe() == stripe
