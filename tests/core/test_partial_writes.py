"""Partial writes: roll-back and roll-forward (paper Sections 4.1.1-4.1.2).

These tests crash coordinators at precise points mid-protocol with
send-count triggered crash events (``FaultEvent(after=...)``) and
verify the recovery semantics: a partial write takes effect before the
crash or not at all, decided by the next read.
"""

import pytest

from repro.core.messages import OrderReq, WriteReq
from repro.types import ABORT
from tests.conftest import crash_after, make_cluster, stripe_of


def crash_writer_after(cluster, writer_pid, count, payload_type):
    """Arm a crash of `writer_pid` after its count-th payload_type message."""
    crash_after(cluster, writer_pid, payload_type, count)


def start_write(cluster, writer_pid, register_id, stripe):
    coordinator = cluster.coordinators[writer_pid]
    return cluster.nodes[writer_pid].spawn(
        coordinator.write_stripe(register_id, stripe)
    )


class TestRollBack:
    def test_write_crashing_in_order_phase_rolls_back(self):
        """Coordinator dies after sending only Order messages: no value
        was ever stored, the old value must survive."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=2)
        old = stripe_of(3, 32, tag=1)
        register.write_stripe(old)

        crash_writer_after(cluster, 1, count=3, payload_type=OrderReq)
        process = start_write(cluster, 1, 0, stripe_of(3, 32, tag=2))
        cluster.env.run()
        assert not process.ok  # interrupted
        assert not cluster.nodes[1].is_up

        assert register.read_stripe() == old
        # And the decision is stable: repeated reads agree.
        assert register.read_stripe() == old

    def test_write_crashing_with_too_few_write_messages_rolls_back(self):
        """Fewer than m new blocks stored: the new value is
        unreconstructable and must be rolled back (the paper's m=5, n=7
        motivating scenario, scaled to m=3, n=5)."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=2)
        old = stripe_of(3, 32, tag=1)
        register.write_stripe(old)

        # Crash after 5 Orders + 2 Writes: only 2 < m new blocks land.
        crash_writer_after(cluster, 1, count=2, payload_type=WriteReq)
        process = start_write(cluster, 1, 0, stripe_of(3, 32, tag=2))
        cluster.env.run()
        assert not cluster.nodes[1].is_up
        assert not process.ok

        assert register.read_stripe() == old

    def test_rolled_back_value_never_reappears(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=2)
        old = stripe_of(3, 32, tag=1)
        register.write_stripe(old)
        doomed = stripe_of(3, 32, tag=2)
        crash_writer_after(cluster, 1, count=1, payload_type=WriteReq)
        start_write(cluster, 1, 0, doomed)
        cluster.env.run()
        assert register.read_stripe() == old

        # Recover the crashed brick; its log holds the doomed blocks,
        # but the recovery's write-back at a higher timestamp wins.
        cluster.recover(1)
        for _ in range(3):
            assert register.read_stripe() == old

    def test_partial_write_on_virgin_register_rolls_back_to_nil(self):
        cluster = make_cluster(m=3, n=5)
        crash_writer_after(cluster, 1, count=2, payload_type=WriteReq)
        start_write(cluster, 1, 5, stripe_of(3, 32, tag=1))
        cluster.env.run()
        register = cluster.register(5, route=3)
        assert register.read_stripe() is None


class TestRollForward:
    def test_write_reaching_m_blocks_rolls_forward(self):
        """At least m new blocks stored (but no complete quorum): the
        next read finds enough blocks and completes the write."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=2)
        old = stripe_of(3, 32, tag=1)
        register.write_stripe(old)

        new = stripe_of(3, 32, tag=2)
        # 5 Orders succeed; crash after 4 Write messages.  One of the
        # first sends is the coordinator's message to its own replica,
        # which dies with the crash — so 4 sends leave exactly m = 3
        # new blocks on surviving bricks.
        crash_writer_after(cluster, 1, count=4, payload_type=WriteReq)
        process = start_write(cluster, 1, 0, new)
        cluster.env.run()
        assert not cluster.nodes[1].is_up
        assert not process.ok

        value = register.read_stripe()
        assert value == new  # rolled forward
        # Decision is stable.
        assert register.read_stripe() == new

    def test_roll_forward_read_uses_slow_path(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=2)
        register.write_stripe(stripe_of(3, 32, tag=1))
        crash_writer_after(cluster, 1, count=4, payload_type=WriteReq)
        start_write(cluster, 1, 0, stripe_of(3, 32, tag=2))
        cluster.env.run()
        register.read_stripe()
        assert cluster.metrics.summary()["read-stripe/slow"]["count"] >= 1

    def test_roll_forward_visible_to_all_coordinators(self):
        cluster = make_cluster(m=3, n=5)
        seed_register = cluster.register(0, route=2)
        seed_register.write_stripe(stripe_of(3, 32, tag=1))
        new = stripe_of(3, 32, tag=2)
        crash_writer_after(cluster, 1, count=4, payload_type=WriteReq)
        start_write(cluster, 1, 0, new)
        cluster.env.run()
        for pid in (2, 3, 4, 5):
            assert cluster.register(0, route=pid).read_stripe() == new


class TestPaperSection411Example:
    """The exact motivating example of Section 4.1.1: m=5, n=7 (quorum
    size 6).  A write crashes after storing the new value on only 4
    processes — 4 new blocks and 3 old blocks, so *neither* version is
    reconstructable from current blocks alone.  The versioned log is
    what saves the old value."""

    def test_neither_version_complete_old_recovered(self):
        cluster = make_cluster(m=5, n=7, block_size=16)
        register = cluster.register(0, route=2)
        old = stripe_of(5, 16, tag=1)
        assert register.write_stripe(old) == "OK"

        # Coordinator 1 crashes after 5 Write sends; its self-send dies
        # with it, leaving the new value on exactly 4 survivors.
        crash_writer_after(cluster, 1, count=5, payload_type=WriteReq)
        process = start_write(cluster, 1, 0, stripe_of(5, 16, tag=2))
        cluster.env.run()
        assert not cluster.nodes[1].is_up
        assert not process.ok

        old_version = cluster.replicas[7].state(0).log.max_block()[0]
        new_copies = sum(
            1
            for pid in range(1, 8)
            if cluster.replicas[pid].state(0).log.max_block()[0] > old_version
        )
        assert new_copies == 4  # fewer than m=5: new value unrecoverable

        # The read must fall back to the old version from the logs.
        assert register.read_stripe() == old

    def test_with_five_new_blocks_rolls_forward(self):
        cluster = make_cluster(m=5, n=7, block_size=16)
        register = cluster.register(0, route=2)
        register.write_stripe(stripe_of(5, 16, tag=1))
        new = stripe_of(5, 16, tag=2)
        crash_writer_after(cluster, 1, count=6, payload_type=WriteReq)
        process = start_write(cluster, 1, 0, new)
        cluster.env.run()
        assert not process.ok
        assert register.read_stripe() == new  # m new blocks: roll forward


class TestDecisionStability:
    """Once the next read decides a partial write's fate, that decision
    is permanent — even across crashes and recoveries."""

    @pytest.mark.parametrize("writes_before_crash", [1, 2, 3, 4])
    def test_fate_decided_once(self, writes_before_crash):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=2)
        old = stripe_of(3, 32, tag=1)
        register.write_stripe(old)
        new = stripe_of(3, 32, tag=2)
        crash_writer_after(
            cluster, 1, count=writes_before_crash, payload_type=WriteReq
        )
        start_write(cluster, 1, 0, new)
        cluster.env.run()

        first = register.read_stripe()
        assert first in (old, new)
        cluster.recover(1)
        cluster.crash(3)
        second = cluster.register(0, route=4).read_stripe()
        assert second == first
        cluster.recover(3)
        third = cluster.register(0, route=5).read_stripe()
        assert third == first
