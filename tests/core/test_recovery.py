"""Crash-recovery behaviour of replicas and whole clusters."""

import pytest

from repro.types import ABORT
from tests.conftest import make_cluster, stripe_of


class TestReplicaRecovery:
    def test_replica_state_reloaded_from_stable(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        before = cluster.replicas[2].state(0).log.entries()
        cluster.crash(2)
        cluster.recover(2)
        after = cluster.replicas[2].state(0).log.entries()
        assert after == before

    def test_stale_recovered_replica_catches_up_via_writes(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        register.write_stripe(stripe_of(3, 32, tag=1))
        cluster.crash(2)
        newer = stripe_of(3, 32, tag=2)
        register.write_stripe(newer)  # quorum without 2
        cluster.recover(2)
        newest = stripe_of(3, 32, tag=3)
        register.write_stripe(newest)  # 2 participates again
        entry = cluster.replicas[2].state(0).log.max_block()
        assert entry[1] == newest[1]

    def test_read_with_mixed_staleness(self):
        """Quorums spanning fresh and stale replicas still read correctly."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        values = []
        for tag in range(4):
            victim = (tag % 5) + 1
            if victim != 1:
                cluster.crash(victim)
            stripe = stripe_of(3, 32, tag)
            if register.write_stripe(stripe) == "OK":
                values.append(stripe)
            if victim != 1:
                cluster.recover(victim)
        assert register.read_stripe() == values[-1]


class TestQuorumLoss:
    def test_operation_aborts_without_quorum(self):
        """With more than f failures, operations cannot complete — each
        phase expires after the default ``op_timeout`` (120 units) and
        the operation ends ⊥ rather than return wrong data or wait."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        cluster.crash(4)
        cluster.crash(5)  # 3 live < quorum size 4
        process = register.read_stripe_async()
        cluster.env.run(until=cluster.env.now + 500)
        assert process.triggered  # ended: fast read, then recovery expired
        assert process.value is ABORT  # no value, never a stale one

    def test_operation_completes_when_quorum_returns(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        cluster.crash(4)
        cluster.crash(5)
        process = register.read_stripe_async()
        cluster.env.run(until=cluster.env.now + 100)
        assert not process.triggered
        cluster.recover(4)  # quorum restored
        cluster.env.run(until=cluster.env.now + 200)
        assert process.triggered
        assert process.value == stripe

    def test_op_timeout_aborts_instead_of_hanging(self):
        cluster = make_cluster(m=3, n=5, op_timeout=50.0)
        register = cluster.register(0)
        register.write_stripe(stripe_of(3, 32, tag=1))
        cluster.crash(4)
        cluster.crash(5)
        result = register.read_stripe()
        assert result is ABORT


class TestColdRestart:
    def test_full_cluster_power_cycle_preserves_everything(self):
        cluster = make_cluster(m=3, n=5)
        volumes = {}
        for register_id in range(5):
            stripe = stripe_of(3, 32, tag=register_id)
            cluster.register(register_id).write_stripe(stripe)
            volumes[register_id] = stripe
        for pid in range(1, 6):
            cluster.crash(pid)
        for pid in range(1, 6):
            cluster.recover(pid)
        for register_id, stripe in volumes.items():
            assert cluster.register(register_id).read_stripe() == stripe

    def test_progress_with_exactly_a_quorum(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        for pid in range(1, 6):
            cluster.crash(pid)
        # Bring back exactly a quorum (4 of 5), coordinator included.
        for pid in (1, 2, 3, 4):
            cluster.recover(pid)
        assert register.read_stripe() == stripe
        assert register.write_stripe(stripe_of(3, 32, tag=2)) == "OK"

    def test_repeated_power_cycles(self):
        cluster = make_cluster(m=2, n=4, block_size=16)
        register = cluster.register(0)
        last = None
        for cycle in range(5):
            stripe = stripe_of(2, 16, tag=cycle)
            assert register.write_stripe(stripe) == "OK"
            last = stripe
            for pid in range(1, 5):
                cluster.crash(pid)
            for pid in range(1, 5):
                cluster.recover(pid)
            assert register.read_stripe() == last
