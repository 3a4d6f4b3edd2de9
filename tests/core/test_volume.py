"""Logical volumes: address translation, and block I/O through a session."""

import pytest

from repro import LogicalVolume
from repro.errors import ConfigurationError
from tests.conftest import block_of, make_cluster, stripe_of


@pytest.fixture
def volume():
    cluster = make_cluster(m=3, n=5, block_size=32)
    return LogicalVolume(cluster, num_stripes=4)


@pytest.fixture
def session(volume):
    return volume.session()


class TestGeometry:
    def test_sizes(self, volume):
        assert volume.num_blocks == 12
        assert volume.capacity_bytes == 12 * 32

    def test_rejects_zero_stripes(self):
        cluster = make_cluster()
        with pytest.raises(ConfigurationError):
            LogicalVolume(cluster, num_stripes=0)

    def test_locate_shuffled(self, volume):
        """Consecutive logical blocks land on consecutive stripes."""
        stripes = [volume.locate(block)[0] for block in range(4)]
        assert stripes == [0, 1, 2, 3]

    def test_locate_linear(self):
        cluster = make_cluster(m=3, n=5, block_size=32)
        volume = LogicalVolume(cluster, num_stripes=4, stripe_shuffle=False)
        assert [volume.locate(b) for b in range(4)] == [
            (0, 1), (0, 2), (0, 3), (1, 1)
        ]

    def test_locate_out_of_range(self, volume):
        with pytest.raises(ConfigurationError):
            volume.locate(12)
        with pytest.raises(ConfigurationError):
            volume.locate(-1)

    def test_locate_covers_all_units(self, volume):
        seen = {volume.locate(block) for block in range(volume.num_blocks)}
        assert len(seen) == volume.num_blocks

    def test_base_register_offset(self):
        cluster = make_cluster(m=3, n=5, block_size=32)
        vol_a = LogicalVolume(cluster, num_stripes=2, base_register_id=0)
        vol_b = LogicalVolume(cluster, num_stripes=2, base_register_id=100)
        a, b = vol_a.session(), vol_b.session()
        a.write(0, b"A" * 32)
        b.write(0, b"B" * 32)
        assert a.read(0) == b"A" * 32
        assert b.read(0) == b"B" * 32


class TestBlockIO:
    def test_read_unwritten_is_zeros(self, session):
        assert session.read(5) == bytes(32)

    def test_write_read_roundtrip(self, session):
        data = block_of(32, tag=1)
        assert session.write(3, data) == "OK"
        assert session.read(3) == data

    def test_write_wrong_size_rejected(self, session):
        with pytest.raises(ConfigurationError):
            session.write(0, b"short")

    def test_all_blocks_independent(self, volume, session):
        for block in range(volume.num_blocks):
            session.write(block, block_of(32, tag=block))
        for block in range(volume.num_blocks):
            assert session.read(block) == block_of(32, tag=block)

    def test_write_survives_crash(self, volume, session):
        data = block_of(32, tag=1)
        session.write(0, data)
        volume.cluster.crash(5)
        assert session.read(0) == data

    def test_read_via_other_coordinator(self, volume):
        data = block_of(32, tag=2)
        assert volume.session(route=1).write(7, data) == "OK"
        assert volume.session(route=4).read(7) == data


def read_range(session, start, count):
    """Values of ``count`` blocks from ``start``, in block order."""
    ops = session.submit_read_range(start, count)
    session.drain()
    values = {}
    for op in ops:
        results = op.result if op.kind == "read-blocks" else [op.result]
        values.update(zip(op.blocks, results))
    return [values[block] for block in range(start, start + count)]


class TestRangeIO:
    def test_range_roundtrip(self, session):
        blocks = [block_of(32, tag=10 + i) for i in range(5)]
        session.submit_write_range(2, blocks)
        session.drain()
        assert read_range(session, 2, 5) == blocks

    def test_range_mixes_written_and_zeros(self, session):
        session.write(1, block_of(32, tag=1))
        assert read_range(session, 0, 3) == [
            bytes(32), block_of(32, tag=1), bytes(32)
        ]


class TestStripeAlignedIO:
    """A range covering a whole stripe becomes one ``write-stripe``."""

    @pytest.fixture
    def linear(self):
        cluster = make_cluster(m=3, n=5, block_size=32)
        return LogicalVolume(cluster, num_stripes=4, stripe_shuffle=False)

    def test_stripe_write_visible_blockwise(self, linear):
        stripe = stripe_of(3, 32, tag=5)
        session = linear.session()
        # Logical blocks 3..5 are stripe 1, units 1..3, in the linear
        # layout.
        (op,) = session.submit_write_range(3, stripe)
        session.drain()
        assert (op.kind, op.result) == ("write-stripe", "OK")
        for unit, logical in enumerate([3, 4, 5]):
            assert session.read(logical) == stripe[unit]

    def test_stripe_write_validations(self, linear):
        session = linear.session()
        with pytest.raises(ConfigurationError):
            session.submit_write_range(10, stripe_of(3, 32, tag=1))
        with pytest.raises(ConfigurationError):
            session.submit_write_range(0, [b"short"] * 3)

    def test_stripe_write_cheaper_than_block_writes(self, linear):
        cluster = linear.cluster
        session = linear.session()
        session.submit_write_range(0, stripe_of(3, 32, tag=1))
        session.drain()
        stripe_msgs = cluster.metrics.summary()["write-stripe/fast"]["messages"]
        for i in range(3):
            session.write(i, block_of(32, tag=i))
        block_msgs = sum(
            row["messages"] * row["count"]
            for label, row in cluster.metrics.summary().items()
            if label.startswith("write-block")
        )
        assert stripe_msgs < block_msgs
