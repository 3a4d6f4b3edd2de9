"""Block-level coordinator operations (Algorithm 3)."""

import pytest

from repro.campaign.schedule import FaultEvent, apply_event
from repro.core.messages import (
    ModifyReply,
    ModifyReq,
    OrderReadReq,
    ReadReq,
    WriteReq,
)
from repro.errors import ProtocolInvariantError
from repro.types import ABORT
from tests.conftest import (
    block_of,
    crash_after,
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

    def test_read_block_with_target_crashed_reads_around_it(self):
        """p_j down and nothing else wrong: a second fast round targets
        m repliers and decodes — 4δ, no Order&Read, no write-back."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        cluster.crash(2)
        sent = record_sends(cluster)
        assert register.read_block(2) == stripe[1]
        summary = cluster.metrics.summary()
        row = summary["read-block/retarget"]
        assert "read-block/slow" not in summary
        assert row["count"] == 1
        assert row["latency_delta"] == 4
        # Two rounds of n requests; the crashed p_j answers neither.
        assert row["messages"] == 2 * (5 + 4)
        assert not sent & {OrderReadReq, WriteReq}

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


def record_sends(cluster) -> set:
    """The set of message types sent from now on (filled as they go)."""
    sent: set = set()
    watch_sends(cluster.transport, lambda _s, _d, payload: sent.add(
        type(payload)
    ))
    return sent


def corrupt_on(cluster, pid, register_id):
    assert apply_event(cluster, FaultEvent(0.0, "corrupt", (pid, register_id)))
    cluster.replicas[pid].drop_mirror(register_id)


class TestReadAround:
    """A fast read whose only defect is a silent target reads again from
    m repliers; every other failed round still recovers."""

    def test_read_stripe_with_a_crashed_target(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        cluster.crash(3)
        sent = record_sends(cluster)
        for _ in range(6):
            assert register.read_stripe() == stripe
        summary = cluster.metrics.summary()
        # Random targets: some reads avoid brick 3, the rest go around it.
        assert summary["read-stripe/retarget"]["count"] >= 1
        assert summary["read-stripe/retarget"]["latency_delta"] == 4
        assert "read-stripe/slow" not in summary
        assert not sent & {OrderReadReq, WriteReq}

    def test_lrc_never_targets_a_rank_deficient_set(self):
        """LRC(4,8): brick 5 is the local parity of {1, 2}, so the first
        preferred pick around brick 3, {1, 2, 4, 5}, cannot decode."""
        cluster = make_cluster(m=4, n=8, code_kind="lrc")
        register = cluster.register(0)
        stripe = stripe_of(4, 32, tag=1)
        register.write_stripe(stripe)
        assert not cluster.code.is_decodable({1, 2, 4, 5})
        cluster.crash(3)
        targets = []

        def observe(_src, _dst, payload):
            if isinstance(payload, ReadReq):
                targets.append(payload.targets)

        watch_sends(cluster.transport, observe)
        assert register.read_block(3) == stripe[2]
        around = {t for t in targets if t != frozenset({3})}
        assert around == {frozenset({1, 2, 4, 6})}
        assert cluster.metrics.summary()["read-block/retarget"]["count"] == 1

    def test_partial_write_still_recovers(self):
        """Mixed val_ts (a Write reached bricks 2-4 only) with the
        target silent: the read rolls the write forward."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=2)
        register.write_stripe(stripe_of(3, 32, tag=1))
        new = stripe_of(3, 32, tag=2)
        crash_after(cluster, 1, WriteReq, 4)
        cluster.nodes[1].spawn(cluster.coordinators[1].write_stripe(0, new))
        cluster.env.run()
        sent = record_sends(cluster)
        assert register.read_block(1) == new[0]
        row = cluster.metrics.summary()["read-block/slow"]
        assert row["count"] == 1
        assert row["latency_delta"] == 6  # one fast round, then recover
        assert OrderReadReq in sent

    def test_stale_replier_still_recovers(self):
        """Every reply has status = true but brick 5 missed a complete
        write (cut off during it): mixed val_ts recovers at once."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=2)
        register.write_stripe(stripe_of(3, 32, tag=1))
        fault(cluster, "partition", 5)
        new = stripe_of(3, 32, tag=2)
        assert register.write_stripe(new) == "OK"
        fault(cluster, "heal")
        cluster.crash(1)
        assert register.read_block(1) == new[0]
        row = cluster.metrics.summary()["read-block/slow"]
        assert row["count"] == 1
        assert row["latency_delta"] == 6

    def test_refusal_still_recovers(self):
        """status = false (an Order landed, its Write did not): recover
        rolls back to the complete version."""
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0, route=2)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        crash_after(cluster, 1, WriteReq, 1)
        cluster.nodes[1].spawn(
            cluster.coordinators[1].write_stripe(0, stripe_of(3, 32, tag=2))
        )
        cluster.env.run()
        assert register.read_block(1) == stripe[0]
        row = cluster.metrics.summary()["read-block/slow"]
        assert row["count"] == 1
        assert row["latency_delta"] == 6

    def test_corrupt_reply_still_recovers_and_repairs(self):
        """RS(3,7), f = 2: target 1 crashed and brick 4's fragment
        corrupt.  The read recovers, and its write-back repairs brick 4."""
        cluster = make_cluster(m=3, n=7)
        register = cluster.register(0, route=2)
        stripe = stripe_of(3, 32, tag=1)
        register.write_stripe(stripe)
        cluster.crash(1)
        corrupt_on(cluster, 4, 0)
        assert register.read_block(1) == stripe[0]
        row = cluster.metrics.summary()["read-block/slow"]
        assert row["count"] == 1
        assert row["latency_delta"] == 6
        assert cluster.metrics.degraded_reads == 1
        replica = cluster.replicas[4]
        assert 0 not in replica.quarantined
        assert cluster.nodes[4].stable.verify(replica.log_key(0))

    def test_expired_second_round_recovers(self):
        """Target 2 crashed; the coordinator is cut off as the second
        round starts, so it expires, and the read recovers once healed."""
        cluster = make_cluster(m=3, n=5, op_timeout=20)
        stripe = stripe_of(3, 32, tag=1)
        cluster.register(0).write_stripe(stripe)
        cluster.crash(2)
        reads = []

        def observe(src, _dst, payload):
            if isinstance(payload, ReadReq) and src == 1:
                reads.append(payload)
                if len(reads) == 6:  # the first request of round two
                    fault(cluster, "partition", 1)
                    cluster.transport.set_timer(
                        25, lambda: fault(cluster, "heal")
                    )

        watch_sends(cluster.transport, observe)
        assert cluster.register(0, route=1).read_block(2) == stripe[1]
        assert reads[5].targets == frozenset({1, 3, 4})
        assert cluster.metrics.summary()["read-block/slow"]["count"] == 1


class TestKnownFindings:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 1(a): after an unacknowledged Modify, "
        "write_block retries at a fresh ts and overlays its block on a "
        "later completed write; not yet fixed",
    )
    def test_1a_partial_modify_takes_effect_twice(self):
        """ROADMAP 1(a), seed-free.  Coordinator 3's Modify(ts1) lands
        on {1, 2, 3, 5} while brick 4 is cut off; coordinator 3 is cut
        off before any reply arrives.  A reader rolls A forward and
        ``write_stripe(B)`` completes.  After the heal brick 4 refuses
        the retransmitted Modify(ts1); the writer takes a fresh ts and
        overlays A on B, so block 1 reads A after B completed."""
        cluster = make_cluster(m=3, n=5)
        cluster.register(0).write_stripe(stripe_of(3, 32, tag=1))
        fault(cluster, "partition", 4)
        replies = []

        def observe(src, _dst, payload):
            if isinstance(payload, ModifyReply):
                replies.append(src)
                if len(replies) == 4:
                    fault(cluster, "heal")
                    fault(cluster, "partition", 3)

        watch_sends(cluster.transport, observe)
        a = block_of(32, tag=2)
        first = cluster.register(0, route=3).write_block_async(1, a)
        cluster.env.run(until=cluster.env.now + 3)
        assert sorted(replies) == [1, 2, 3, 5]
        assert cluster.register(0, route=2).read_block(1) == a
        b = stripe_of(3, 32, tag=3)
        assert cluster.register(0, route=1).write_stripe(b) == "OK"
        fault(cluster, "heal")
        assert cluster.env.run_until_complete(first) == "OK"
        assert cluster.register(0, route=2).read_block(1) == b[0]


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
