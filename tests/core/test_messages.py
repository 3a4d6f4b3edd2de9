"""Message formats and size accounting."""

from repro.core.messages import (
    ALL,
    GcReq,
    ModifyReq,
    OrderReadReply,
    OrderReadReq,
    OrderReq,
    ReadReply,
    ReadReq,
    WriteReq,
)
from repro.timestamps import Timestamp


def ts(t):
    return Timestamp(t, 1)


class TestSizes:
    def test_control_messages_are_free(self):
        assert ReadReq(register_id=0, request_id=1, targets=frozenset()).size == 0
        assert OrderReq(register_id=0, request_id=1, ts=ts(1)).size == 0
        assert GcReq(register_id=0, request_id=1, ts=ts(1)).size == 0
        assert OrderReadReq(
            register_id=0, request_id=1, j=ALL, max_ts=ts(9), ts=ts(1)
        ).size == 0

    def test_block_carrying_messages(self):
        assert WriteReq(register_id=0, request_id=1, block=b"x" * 64, ts=ts(1)).size == 64
        assert WriteReq(register_id=0, request_id=1, block=None, ts=ts(1)).size == 0
        assert ReadReply(
            register_id=0, request_id=1, status=True, val_ts=ts(1), block=b"y" * 32
        ).size == 32
        assert OrderReadReply(
            register_id=0, request_id=1, status=True, lts=ts(1), block=b"z" * 16
        ).size == 16

    def test_modify_counts_new_block(self):
        """p_j's view: the new block only."""
        request = ModifyReq(
            register_id=0, request_id=1, j=1,
            new_block=b"b" * 8, delta=None, ts_j=ts(1), ts=ts(2),
        )
        assert request.size == 8

    def test_modify_delta_counts_once(self):
        request = ModifyReq(
            register_id=0, request_id=1, j=1,
            new_block=None, delta=b"d" * 8, ts_j=ts(1), ts=ts(2),
        )
        assert request.size == 8


class TestIdentity:
    def test_frozen_and_hashable(self):
        a = OrderReq(register_id=0, request_id=1, ts=ts(1))
        b = OrderReq(register_id=0, request_id=1, ts=ts(1))
        assert a == b
        assert hash(a) == hash(b)

    def test_all_sentinel(self):
        assert ALL == -1
