"""Multi-block operations (the paper's footnote 2 extension)."""

import pytest

from repro.core.messages import OrderReadReq, WriteReq
from repro.errors import ProtocolInvariantError
from repro.types import ABORT
from tests.conftest import block_of, make_cluster, stripe_of, watch_sends


@pytest.fixture
def loaded_cluster():
    cluster = make_cluster(m=3, n=5)
    stripe = stripe_of(3, 32, tag=1)
    cluster.register(0).write_stripe(stripe)
    return cluster, stripe


class TestReadBlocks:
    def test_reads_requested_blocks(self, loaded_cluster):
        cluster, stripe = loaded_cluster
        register = cluster.register(0)
        assert register.read_blocks([1, 3]) == {1: stripe[0], 3: stripe[2]}

    def test_single_block(self, loaded_cluster):
        cluster, stripe = loaded_cluster
        assert cluster.register(0).read_blocks([2]) == {2: stripe[1]}

    def test_all_blocks(self, loaded_cluster):
        cluster, stripe = loaded_cluster
        result = cluster.register(0).read_blocks([1, 2, 3])
        assert result == {1: stripe[0], 2: stripe[1], 3: stripe[2]}

    def test_nil_register(self):
        cluster = make_cluster(m=3, n=5)
        assert cluster.register(9).read_blocks([1, 2]) == {1: None, 2: None}

    def test_fast_path_costs(self, loaded_cluster):
        cluster, _ = loaded_cluster
        cluster.register(0).read_blocks([1, 2])
        row = cluster.metrics.summary()["read-blocks/fast"]
        assert row["latency_delta"] == 2
        assert row["messages"] == 10
        assert row["disk_reads"] == 2  # one per requested block

    def test_reads_around_a_down_target(self, loaded_cluster):
        """Brick 2 down and nothing else wrong: a second fast round at
        {1, 3, 4} decodes both blocks — 4δ, no Order&Read, no Write."""
        cluster, stripe = loaded_cluster
        cluster.crash(2)
        sent = set()
        watch_sends(cluster.transport, lambda _s, _d, payload: sent.add(
            type(payload)
        ))
        result = cluster.register(0).read_blocks([1, 2])
        assert result == {1: stripe[0], 2: stripe[1]}
        summary = cluster.metrics.summary()
        row = summary["read-blocks/retarget"]
        assert "read-blocks/slow" not in summary
        assert row["count"] == 1
        assert row["latency_delta"] == 4
        # Two rounds of n requests; the crashed brick answers neither.
        assert row["messages"] == 2 * (5 + 4)
        assert not sent & {OrderReadReq, WriteReq}


class TestWriteBlocks:
    def test_atomic_multi_update(self, loaded_cluster):
        cluster, stripe = loaded_cluster
        register = cluster.register(0)
        updates = {1: block_of(32, tag=11), 3: block_of(32, tag=13)}
        assert register.write_blocks(updates) == "OK"
        assert register.read_stripe() == [updates[1], stripe[1], updates[3]]

    def test_parity_consistent_after_multi_update(self, loaded_cluster):
        cluster, stripe = loaded_cluster
        register = cluster.register(0)
        updates = {1: block_of(32, tag=21), 2: block_of(32, tag=22)}
        register.write_blocks(updates)
        cluster.crash(1)
        cluster.crash(2)  # exceed f: bring one back
        cluster.recover(1)
        value = cluster.register(0, route=3).read_stripe()
        assert value == [updates[1], updates[2], stripe[2]]

    def test_empty_updates_is_noop(self, loaded_cluster):
        cluster, _ = loaded_cluster
        coordinator = cluster.coordinators[1]
        process = cluster.nodes[1].spawn(coordinator.write_blocks(0, {}))
        assert cluster.env.run_until_complete(process) == "OK"

    def test_rejects_out_of_range_index(self, loaded_cluster):
        cluster, _ = loaded_cluster
        coordinator = cluster.coordinators[1]
        process = cluster.nodes[1].spawn(
            coordinator.write_blocks(0, {4: b"x" * 32})
        )
        with pytest.raises(ProtocolInvariantError):
            cluster.env.run_until_complete(process)

    def test_virgin_register_zero_fills(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(7)
        updates = {2: block_of(32, tag=5)}
        assert register.write_blocks(updates) == "OK"
        assert register.read_stripe() == [bytes(32), updates[2], bytes(32)]

    def test_costs_independent_of_update_count(self, loaded_cluster):
        cluster, _ = loaded_cluster
        register = cluster.register(0)
        register.write_blocks({1: block_of(32, tag=31)})
        register.write_blocks({
            1: block_of(32, tag=41),
            2: block_of(32, tag=42),
            3: block_of(32, tag=43),
        })
        rows = cluster.metrics.by_kind_and_path()["write-blocks/fast"]
        assert rows[0].messages == rows[1].messages == 20  # 4n
        assert rows[0].round_trips == rows[1].round_trips == 2  # 4δ

    def test_sequential_multi_writes(self, loaded_cluster):
        cluster, stripe = loaded_cluster
        register = cluster.register(0)
        expected = list(stripe)
        for round_tag in range(5):
            js = [(round_tag % 3) + 1, ((round_tag + 1) % 3) + 1]
            updates = {
                j: block_of(32, tag=100 + round_tag * 10 + j) for j in js
            }
            assert register.write_blocks(updates) == "OK"
            for j, block in updates.items():
                expected[j - 1] = block
            assert register.read_stripe() == expected

    def test_interleaves_with_single_block_ops(self, loaded_cluster):
        cluster, stripe = loaded_cluster
        register = cluster.register(0)
        expected = list(stripe)
        multi = {1: block_of(32, tag=51), 2: block_of(32, tag=52)}
        register.write_blocks(multi)
        expected[0], expected[1] = multi[1], multi[2]
        single = block_of(32, tag=53)
        register.write_block(3, single)
        expected[2] = single
        assert register.read_stripe() == expected
        assert register.read_blocks([1, 2, 3]) == {
            1: expected[0], 2: expected[1], 3: expected[2]
        }

    def test_partial_newest_version_descends_once(self):
        """A newer version logged on only 2 < m replicas: the overlay
        write's walk descends from its first Order&Read(ALL) round
        instead of repeating it — 3 rounds, 6δ and 6n messages."""
        cluster = make_cluster(m=3, n=5, op_timeout=20)
        stripe = stripe_of(3, 32, tag=1)
        cluster.register(0).write_stripe(stripe)
        send = cluster.transport.send

        def lose_writes_to_data_bricks(src, dst, payload, size=0):
            if not (isinstance(payload, WriteReq) and dst <= 3):
                send(src, dst, payload, size)

        cluster.transport.send = lose_writes_to_data_bricks
        newer = cluster.register(0, route=4).write_stripe(stripe_of(3, 32, tag=2))
        assert newer is ABORT  # logged on replicas 4 and 5 only
        del cluster.transport.send
        x, y = block_of(32, tag=71), block_of(32, tag=72)
        assert cluster.register(0).write_blocks({1: x, 2: y}) == "OK"
        row = cluster.metrics.summary()["write-blocks/slow"]
        assert row["latency_delta"] == 6
        assert row["messages"] == 30
        assert cluster.register(0).read_stripe() == [x, y, stripe[2]]

    def test_write_blocks_with_brick_down(self, loaded_cluster):
        cluster, stripe = loaded_cluster
        cluster.crash(5)
        register = cluster.register(0)
        updates = {2: block_of(32, tag=61)}
        assert register.write_blocks(updates) == "OK"
        cluster.recover(5)
        cluster.crash(4)
        value = cluster.register(0, route=2).read_stripe()
        assert value[1] == updates[2]
