"""Garbage collection (Section 5.1): the online notice keeps logs bounded."""

import pytest

from tests.conftest import crash_after, make_cluster, stripe_of


class TestOnlineGc:
    def test_logs_grow_without_gc(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        for tag in range(10):
            register.write_stripe(stripe_of(3, 32, tag))
        assert cluster.max_log_entries(0) >= 10

    def test_gc_enabled_keeps_logs_bounded(self):
        cluster = make_cluster(m=3, n=5, gc_enabled=True)
        register = cluster.register(0)
        for tag in range(20):
            register.write_stripe(stripe_of(3, 32, tag))
        cluster.run(until=cluster.env.now + 50)  # let async GC notices land
        # Each log holds at most the last complete write + one in flight.
        assert cluster.max_log_entries(0) <= 3

    def test_gc_preserves_readability(self):
        cluster = make_cluster(m=3, n=5, gc_enabled=True)
        register = cluster.register(0)
        last = None
        for tag in range(15):
            last = stripe_of(3, 32, tag)
            register.write_stripe(last)
        cluster.run(until=cluster.env.now + 50)
        assert register.read_stripe() == last

    def test_gc_with_block_writes(self):
        cluster = make_cluster(m=3, n=5, gc_enabled=True)
        register = cluster.register(0)
        expected = stripe_of(3, 32, tag=0)
        register.write_stripe(expected)
        for tag in range(1, 12):
            block = (f"g{tag}".encode() * 32)[:32]
            j = (tag % 3) + 1
            assert register.write_block(j, block) == "OK"
            expected[j - 1] = block
            cluster.run(until=cluster.env.now + 10)
            # A complete Modify sends the notice too: a ts-only brick
            # keeps its value entry plus the newest ⊥, nothing older.
            assert cluster.max_log_entries(0) <= 2
        assert register.read_stripe() == expected

    def test_gc_safe_under_crash(self):
        """GC then crash/recover: the surviving entry must suffice."""
        cluster = make_cluster(m=3, n=5, gc_enabled=True)
        register = cluster.register(0)
        last = None
        for tag in range(8):
            last = stripe_of(3, 32, tag)
            register.write_stripe(last)
        cluster.run(until=cluster.env.now + 50)
        cluster.crash(2)
        assert register.read_stripe() == last
        cluster.recover(2)
        cluster.crash(4)
        assert register.read_stripe() == last


class TestOfflineGc:
    """Offline inspection: the log-size probe and the register set.

    Compaction itself has one path, the Section 5.1 notice above."""

    def test_stats(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        for tag in range(4):
            register.write_stripe(stripe_of(3, 32, tag))
        assert cluster.max_log_entries(0) == 5  # LowTS + 4 writes
        assert cluster.max_log_entries(9) == 1  # never written: LowTS
        # A quarantined copy is not counted; the clean ones still are.
        cluster.nodes[2].stable.corrupt(cluster.replicas[2].log_key(0))
        cluster.replicas[2].drop_mirror(0)
        assert cluster.max_log_entries(0) == 5
        assert 0 in cluster.replicas[2].quarantined

    def test_registers_seen(self):
        cluster = make_cluster(m=3, n=5)
        cluster.register(3).write_stripe(stripe_of(3, 32, 1))
        cluster.register(7).write_stripe(stripe_of(3, 32, 2))
        seen = cluster.register_ids()
        assert 3 in seen and 7 in seen

    def test_registers_seen_survives_recovery(self):
        """The public accessor must see stable-store-only registers."""
        cluster = make_cluster(m=3, n=5)
        cluster.register(3).write_stripe(stripe_of(3, 32, 1))
        cluster.crash(1)
        cluster.recover(1)  # volatile mirrors dropped; state is on disk
        assert 3 in cluster.replicas[1].register_ids()
        assert 3 in cluster.register_ids()


class TestGcRecoveryInterplay:
    def test_recovery_after_aggressive_gc(self):
        """GC trims history; recovery must still find the kept version."""
        from repro.core.messages import WriteReq

        cluster = make_cluster(m=3, n=5, gc_enabled=True)
        register = cluster.register(0, route=2)
        committed = stripe_of(3, 32, tag=1)
        register.write_stripe(committed)
        cluster.run(until=cluster.env.now + 30)  # GC lands: logs hold 1 entry
        assert cluster.max_log_entries(0) == 1

        # Now a partial write with too few blocks must roll back to the
        # GC-trimmed-but-kept committed version, not to nil.
        crash_after(cluster, 1, WriteReq, 2)
        coordinator = cluster.coordinators[1]
        cluster.nodes[1].spawn(
            coordinator.write_stripe(0, stripe_of(3, 32, tag=2))
        )
        cluster.env.run()
        assert register.read_stripe() == committed

    def test_gc_then_roll_forward(self):
        from repro.core.messages import WriteReq

        cluster = make_cluster(m=3, n=5, gc_enabled=True)
        register = cluster.register(0, route=2)
        register.write_stripe(stripe_of(3, 32, tag=1))
        cluster.run(until=cluster.env.now + 30)

        new = stripe_of(3, 32, tag=2)
        crash_after(cluster, 1, WriteReq, 4)
        coordinator = cluster.coordinators[1]
        cluster.nodes[1].spawn(coordinator.write_stripe(0, new))
        cluster.env.run()
        assert register.read_stripe() == new

    def test_gc_never_trims_only_copy(self):
        """Even trimming at the newest timestamp keeps a value entry."""
        cluster = make_cluster(m=3, n=5, gc_enabled=True)
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        cluster.run(until=cluster.env.now + 30)
        for replica in cluster.replicas.values():
            log = replica.state(0).log
            assert log.max_block()[1] is not None
        assert register.read_stripe() == stripe


class TestBlockWriteGcOnLrc:
    """GC after fast block writes on a non-MDS code.

    After the notice, a version's spanning fragments may sit outside
    any one read quorum; the recovery read must widen, not descend
    below the trimmed floor and fabricate a nil.
    """

    @pytest.mark.parametrize("disable_fast_read", [False, True])
    @pytest.mark.parametrize("down", [1, 3, 5, 8])
    def test_read_stripe_decodes_with_a_brick_down(self, down,
                                                   disable_fast_read):
        cluster = make_cluster(
            m=4, n=8, code_kind="lrc", gc_enabled=True,
            disable_fast_read=disable_fast_read,
        )
        register = cluster.register(0)
        expected = stripe_of(4, 32, tag=1)
        assert register.write_stripe(expected) == "OK"
        for tag in range(2, 8):
            j = 1 + tag % 4
            block = bytes([tag]) * 32
            assert register.write_block(j, block) == "OK"
            expected[j - 1] = block
        cluster.run(until=cluster.env.now + 10)  # let the notices land
        assert cluster.max_log_entries(0) <= 2
        cluster.crash(down)
        for route in range(1, 9):
            if route != down:
                reader = cluster.register(0, route=route)
                assert reader.read_stripe() == expected
