"""Block-level coordinator operations (Algorithm 3)."""

import pytest

from repro.core.messages import ModifyReq
from repro.errors import ProtocolInvariantError
from repro.types import ABORT
from tests.conftest import (
    block_of,
    fault,
    make_cluster,
    stripe_of,
    watch_sends,
)


class TestReadBlock:
    def test_read_block_after_stripe_write(self, cluster):
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        for j in (1, 2, 3):
            assert register.read_block(j) == stripe[j - 1]

    def test_read_block_never_written_is_nil(self, cluster):
        assert cluster.register(3).read_block(2) is None

    def test_read_block_fast_costs(self):
        """Block read/F: 2δ, 2n messages, 1 disk read, B bandwidth."""
        cluster = make_cluster(m=3, n=5, block_size=32)
        register = cluster.register(0)
        register.write_stripe(stripe_of(3, 32, tag=1))
        register.read_block(2)
        row = cluster.metrics.summary()["read-block/fast"]
        assert row["latency_delta"] == 2
        assert row["messages"] == 10
        assert row["disk_reads"] == 1
        assert row["bytes"] == 32

    def test_read_block_with_target_crashed_recovers(self):
        """p_j down: the fast path can't get its block; recovery decodes."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        cluster.crash(2)
        assert register.read_block(2) == stripe[1]
        row = cluster.metrics.summary()["read-block/slow"]
        assert row["count"] == 1

    @pytest.mark.parametrize("read", [
        lambda register: register.read_block(2),
        lambda register: register.read_blocks([2])[2],
        lambda register: register.read_stripe()[1],
    ], ids=["read_block", "read_blocks", "read_stripe"])
    def test_expired_fast_read_recovers(self, read):
        """An expired fast round falls back to recover(), like any other
        failed one: the coordinator is cut off past ``op_timeout`` and
        healed while its recovery retransmits."""
        cluster = make_cluster(m=3, n=5, op_timeout=20)
        stripe = stripe_of(3, 32, tag=1)
        cluster.register(0).write_stripe(stripe)
        fault(cluster, "partition", 1)
        cluster.transport.set_timer(25, lambda: fault(cluster, "heal"))
        assert read(cluster.register(0, route=1)) == stripe[1]


class TestWriteBlock:
    def test_write_block_updates_single_block(self, cluster):
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        new_block = block_of(32, tag=2)
        assert register.write_block(2, new_block) == "OK"
        expected = [stripe[0], new_block, stripe[2]]
        assert register.read_stripe() == expected

    def test_write_block_updates_parity(self, cluster):
        """After write-block, the stripe decodes from ANY m blocks."""
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        new_block = block_of(32, tag=9)
        register.write_block(1, new_block)
        # Crash both other data bricks: decode must use parity.
        cluster.crash(2)
        value = register.read_stripe()
        assert value == [new_block, stripe[1], stripe[2]]

    def test_each_block_writable(self, cluster):
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        expected = list(stripe)
        for j in (1, 2, 3):
            new_block = block_of(32, tag=10 + j)
            assert register.write_block(j, new_block) == "OK"
            expected[j - 1] = new_block
        assert register.read_stripe() == expected

    def test_write_block_fast_costs(self):
        """Block write/F: 4δ, 4n msgs, k+1 reads, k+1 writes, (k+2)B.

        The bytes are Section 5.2 (b)'s: b_j back from p_j, the new
        block to p_j, one coded delta to each of the k parities.
        """
        cluster = make_cluster(m=3, n=5, block_size=32)
        register = cluster.register(0)
        register.write_stripe(stripe_of(3, 32, tag=1))
        register.write_block(2, block_of(32, tag=2))
        row = cluster.metrics.summary()["write-block/fast"]
        k = 2
        assert row["latency_delta"] == 4
        assert row["messages"] == 20
        assert row["disk_reads"] == k + 1
        assert row["disk_writes"] == k + 1
        assert row["bytes"] == (k + 2) * 32

    def test_write_block_on_virgin_register(self, cluster):
        """No base value: the fast path aborts cleanly, the slow path
        materializes a zero stripe and writes through."""
        register = cluster.register(4)
        new_block = block_of(32, tag=5)
        assert register.write_block(2, new_block) == "OK"
        stripe = register.read_stripe()
        assert stripe[1] == new_block
        assert stripe[0] == bytes(32)
        assert stripe[2] == bytes(32)

    def test_write_block_survives_parity_crash(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        cluster.crash(5)  # one parity brick down
        new_block = block_of(32, tag=2)
        assert register.write_block(1, new_block) == "OK"
        cluster.recover(5)
        cluster.crash(4)
        assert register.read_stripe() == [new_block, stripe[1], stripe[2]]

    def test_write_block_with_pj_crashed_uses_slow_path(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        cluster.crash(2)  # p_j itself is down
        new_block = block_of(32, tag=2)
        assert register.write_block(2, new_block) == "OK"
        cluster.recover(2)
        assert register.read_block(2) == new_block
        assert cluster.metrics.summary()["write-block/slow"]["count"] == 1

    def test_mixed_block_and_stripe_traffic(self, cluster):
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=0)
        register.write_stripe(stripe)
        expected = list(stripe)
        for round_tag in range(1, 6):
            j = (round_tag % 3) + 1
            block = block_of(32, tag=round_tag)
            register.write_block(j, block)
            expected[j - 1] = block
            assert register.read_block(j) == block
        assert register.read_stripe() == expected

    def test_caller_buffer_does_not_alias_replica_state(self):
        """Reusing the written buffer must not rewrite p_j's log."""
        cluster = make_cluster(m=3, n=5, block_size=8)
        register = cluster.register(0)
        register.write_stripe([b"a" * 8, b"b" * 8, b"c" * 8])
        buf = bytearray(b"X" * 8)
        assert register.write_block(1, buf) == "OK"
        assert cluster.metrics.summary()["write-block/fast"]["count"] == 1
        buf[:] = b"Z" * 8
        assert register.read_block(1) == b"X" * 8
        assert register.read_stripe() == [b"X" * 8, b"b" * 8, b"c" * 8]


class TestBlockIndexValidation:
    """Block indices are 1..m; 0 used to alias block m on recovery."""

    @pytest.fixture
    def loaded(self, cluster):
        register = cluster.register(0)
        register.write_stripe(stripe_of(3, 32, tag=1))
        return register

    @pytest.mark.parametrize("j", [0, 4])
    def test_read_block_rejects_out_of_range(self, loaded, j):
        with pytest.raises(ProtocolInvariantError):
            loaded.read_block(j)

    @pytest.mark.parametrize("j", [0, 4])
    def test_write_block_rejects_out_of_range(self, loaded, j):
        stripe = loaded.read_stripe()
        with pytest.raises(ProtocolInvariantError):
            loaded.write_block(j, block_of(32, tag=2))
        assert loaded.read_stripe() == stripe

    @pytest.mark.parametrize("js", [[0], [1, 4]])
    def test_read_blocks_rejects_out_of_range(self, loaded, js):
        with pytest.raises(ProtocolInvariantError):
            loaded.read_blocks(js)


#: One geometry per built-in erasure.registry kind.  The LRC(4, 7) has
#: two local groups, so writing block 2 also reaches the local parity
#: of the other group (generator coefficient 0).
KIND_GEOMETRY = {
    "reed-solomon": (3, 5),
    "lrc": (4, 7),
    "parity": (3, 4),
    "replication": (1, 3),
}


class TestModifyShape:
    """Modify is one view per destination, for every code."""

    @pytest.fixture(params=sorted(KIND_GEOMETRY))
    def written(self, request):
        kind = request.param
        m, n = KIND_GEOMETRY[kind]
        cluster = make_cluster(m=m, n=n, block_size=32, code_kind=kind)
        register = cluster.register(0)
        stripe = stripe_of(m, 32, tag=1)
        register.write_stripe(stripe)
        modifies = {}

        def observe(_src, dst, payload):
            if isinstance(payload, ModifyReq):
                modifies[dst] = payload

        watch_sends(cluster.transport, observe)
        j = min(2, m)
        new_block = block_of(32, tag=2)
        assert register.write_block(j, new_block) == "OK"
        stripe[j - 1] = new_block
        return cluster, register, stripe, modifies, j

    def test_each_destination_gets_only_what_it_uses(self, written):
        cluster, _register, _stripe, modifies, j = written
        m, n = cluster.code.m, cluster.code.n
        assert sorted(modifies) == list(range(1, n + 1))
        deltas = set()
        for dst, request in modifies.items():
            if dst == j:
                assert request.new_block is not None
                assert request.delta is None
            elif dst > m:
                assert request.new_block is None
                assert request.delta is not None
                deltas.add(request.delta)
            else:
                assert request.new_block is None
                assert request.delta is None
        assert len(deltas) == 1  # every parity gets the same delta

    def test_fast_costs_and_parity(self, written):
        """4δ, 4n messages, k+1 disk I/Os each way, (n-m+2)B bytes."""
        cluster, register, stripe, _modifies, _j = written
        m, n = cluster.code.m, cluster.code.n
        row = cluster.metrics.summary()["write-block/fast"]
        assert row["latency_delta"] == 4
        assert row["messages"] == 4 * n
        assert row["disk_reads"] == n - m + 1
        assert row["disk_writes"] == n - m + 1
        assert row["bytes"] == (n - m + 2) * 32
        # Every stored parity equals a fresh encode of the new stripe.
        encoded = cluster.code.encode(stripe)
        for pid in range(m + 1, n + 1):
            _ts, block = cluster.replicas[pid].state(0).log.max_block()
            assert block == encoded[pid - 1]
        assert register.read_stripe() == stripe
