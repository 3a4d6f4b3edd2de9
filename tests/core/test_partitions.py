"""Network partitions: the protocol's CP behaviour.

A partition cannot make the register return stale or conflicting data:
operations complete only where an m-quorum is reachable; the minority
side retransmits until its phases expire after ``op_timeout`` and then
aborts.  After healing, everything
reconciles through timestamps.
"""

import pytest

from repro.types import ABORT
from tests.conftest import fault, make_cluster, stripe_of


class TestPartitionSemantics:
    def test_majority_side_keeps_serving(self):
        cluster = make_cluster(m=3, n=5)  # quorum = 4
        register = cluster.register(0, route=1)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        fault(cluster, "partition", 5)
        assert register.read_stripe() == stripe
        newer = stripe_of(3, 32, tag=2)
        assert register.write_stripe(newer) == "OK"
        assert register.read_stripe() == newer

    def test_minority_side_blocks(self):
        cluster = make_cluster(m=3, n=5, op_timeout=40.0)
        register_majority = cluster.register(0, route=1)
        register_majority.write_stripe(stripe_of(3, 32, tag=1))
        fault(cluster, "partition", 4, 5)
        minority = cluster.register(0, route=4)
        assert minority.read_stripe() is ABORT  # cannot reach a quorum

    def test_no_split_brain_writes(self):
        """With a 2/3 split of five bricks, at most one side can write."""
        cluster = make_cluster(m=3, n=5, op_timeout=40.0)
        cluster.register(0, route=1).write_stripe(
            stripe_of(3, 32, tag=1)
        )
        fault(cluster, "partition", 1, 2)
        side_a = cluster.register(0, route=1).write_stripe(
            stripe_of(3, 32, tag=2)
        )
        side_b = cluster.register(0, route=3).write_stripe(
            stripe_of(3, 32, tag=3)
        )
        # Neither side has 4 bricks: both abort; no divergence possible.
        assert side_a is ABORT
        assert side_b is ABORT
        fault(cluster, "heal")
        value = cluster.register(0, route=2).read_stripe()
        # Aborted writes may or may not have taken effect, but all
        # readers agree after healing.
        again = cluster.register(0, route=5).read_stripe()
        assert value == again

    def test_heal_reconciles_stale_minority(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=1)
        register.write_stripe(stripe_of(3, 32, tag=1))
        fault(cluster, "partition", 5)
        newer = stripe_of(3, 32, tag=2)
        register.write_stripe(newer)
        fault(cluster, "heal")
        # Brick 5 missed the write; a coordinator ON brick 5 still
        # reads the new value (its quorum overlaps the write quorum).
        assert cluster.register(0, route=5).read_stripe() == newer

    def test_flapping_partition(self):
        """Repeated partition/heal cycles never corrupt data."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=1)
        last = None
        for cycle in range(4):
            fault(cluster, "partition", (cycle % 5) + 1)
            coordinator_pid = ((cycle + 1) % 5) + 1
            if coordinator_pid == (cycle % 5) + 1:
                coordinator_pid = ((cycle + 2) % 5) + 1
            stripe = stripe_of(3, 32, tag=cycle)
            register_cycle = cluster.register(0, route=coordinator_pid)
            if register_cycle.write_stripe(stripe) == "OK":
                last = stripe
            fault(cluster, "heal")
        assert cluster.register(0, route=1).read_stripe() == last

    def test_partition_during_write_partial_handled(self):
        """A partition landing mid-write creates a partial write that
        the next read resolves deterministically."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=2)
        old = stripe_of(3, 32, tag=1)
        register.write_stripe(old)

        writer = cluster.coordinators[1]
        new = stripe_of(3, 32, tag=2)
        process = cluster.nodes[1].spawn(writer.write_stripe(0, new))
        cluster.env.run(until=cluster.env.now + 2.5)  # Order done
        fault(cluster, "partition", 1, 2)
        cluster.env.run(until=cluster.env.now + 30)
        assert not process.triggered  # write stuck below quorum
        cluster.nodes[1].crash()  # coordinator dies while partitioned
        fault(cluster, "heal")
        cluster.env.run()

        value = cluster.register(0, route=3).read_stripe()
        assert value in (old, new)
        assert cluster.register(0, route=4).read_stripe() == value
