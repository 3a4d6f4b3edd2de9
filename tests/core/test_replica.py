"""Replica handlers (Algorithm 2 + Modify), driven directly."""

import pytest

from repro.core.log import BOTTOM, INITIAL_RECORD, journal_records
from repro.core.messages import (
    ALL,
    GcReq,
    ModifyReply,
    ModifyReq,
    OrderReadReply,
    OrderReadReq,
    OrderReply,
    OrderReq,
    ReadReply,
    ReadReq,
    WriteReply,
    WriteReq,
)
from repro.core.replica import Replica
from repro.erasure import make_code
from repro.sim import node as node_module
from repro.sim.kernel import Environment
from repro.transport.base import Node
from repro.timestamps import HIGH_TS, LOW_TS, Timestamp
from repro.transport.sim import SimTransport


def ts(time, pid=9):
    return Timestamp(time, pid)


class Harness:
    """One replica plus a fake coordinator endpoint capturing replies."""

    def __init__(self, process_index=1, m=2, n=3):
        self.env = Environment()
        transport = SimTransport(env=self.env)
        self.node = Node(transport=transport, process_id=process_index)
        self.code = make_code(m, n)
        self.replica = Replica(self.node, self.code, process_index)
        self.replies = []
        self.coordinator = Node(transport=transport, process_id=100)
        for reply_type in (
            ReadReply, OrderReply, OrderReadReply, WriteReply, ModifyReply
        ):
            self.coordinator.register_handler(
                reply_type, lambda src, reply: self.replies.append(reply)
            )

    def send(self, request):
        self.coordinator.send(self.node.process_id, request)
        self.env.run()
        return self.replies[-1] if self.replies else None

    def rid(self):
        # unique request ids per send
        self._rid = getattr(self, "_rid", 0) + 1
        return self._rid


class TestReadHandler:
    def test_fresh_register(self):
        h = Harness()
        reply = h.send(ReadReq(register_id=0, request_id=1, targets=frozenset({1})))
        assert reply.status
        assert reply.val_ts == LOW_TS
        assert reply.block is None  # nil

    def test_non_target_returns_no_block(self):
        h = Harness()
        h.send(WriteReq(register_id=0, request_id=1, block=b"v", ts=ts(1)))
        reply = h.send(ReadReq(register_id=0, request_id=2, targets=frozenset({2})))
        assert reply.status
        assert reply.block is None
        assert reply.val_ts == ts(1)

    def test_target_returns_block(self):
        h = Harness()
        h.send(WriteReq(register_id=0, request_id=1, block=b"v", ts=ts(1)))
        reply = h.send(ReadReq(register_id=0, request_id=2, targets=frozenset({1})))
        assert reply.block == b"v"

    def test_pending_write_makes_status_false(self):
        """ord-ts > max-ts(log) signals a write in progress."""
        h = Harness()
        h.send(OrderReq(register_id=0, request_id=1, ts=ts(5)))
        reply = h.send(ReadReq(register_id=0, request_id=2, targets=frozenset({1})))
        assert not reply.status

    def test_read_does_not_modify_state(self):
        h = Harness()
        h.send(ReadReq(register_id=0, request_id=1, targets=frozenset({1})))
        state = h.replica.state(0)
        assert len(state.log) == 1
        assert state.ord_ts == LOW_TS


class TestOrderHandler:
    def test_order_accepts_fresh_ts(self):
        h = Harness()
        reply = h.send(OrderReq(register_id=0, request_id=1, ts=ts(5)))
        assert reply.status
        assert h.replica.state(0).ord_ts == ts(5)

    def test_order_rejects_older_than_ord(self):
        h = Harness()
        h.send(OrderReq(register_id=0, request_id=1, ts=ts(5)))
        reply = h.send(OrderReq(register_id=0, request_id=2, ts=ts(3)))
        assert not reply.status
        assert h.replica.state(0).ord_ts == ts(5)

    def test_order_rejects_not_above_log(self):
        h = Harness()
        h.send(WriteReq(register_id=0, request_id=1, block=b"v", ts=ts(5)))
        reply = h.send(OrderReq(register_id=0, request_id=2, ts=ts(5)))
        assert not reply.status

    def test_order_equal_to_ord_ts_accepted(self):
        """ts >= ord-ts: re-ordering the same timestamp succeeds."""
        h = Harness()
        h.send(OrderReq(register_id=0, request_id=1, ts=ts(5)))
        reply = h.send(OrderReq(register_id=0, request_id=2, ts=ts(5)))
        assert reply.status

    def test_ord_ts_persisted(self):
        h = Harness()
        h.send(OrderReq(register_id=0, request_id=1, ts=ts(5)))
        h.node.crash()
        h.node.recover()
        assert h.replica.state(0).ord_ts == ts(5)


class TestOrderReadHandler:
    def test_orders_and_returns_block(self):
        h = Harness()
        h.send(WriteReq(register_id=0, request_id=1, block=b"v", ts=ts(2)))
        reply = h.send(
            OrderReadReq(register_id=0, request_id=2, j=ALL, max_ts=HIGH_TS, ts=ts(9))
        )
        assert reply.status
        assert reply.lts == ts(2)
        assert reply.block == b"v"
        assert h.replica.state(0).ord_ts == ts(9)

    def test_respects_max_bound(self):
        h = Harness()
        h.send(WriteReq(register_id=0, request_id=1, block=b"old", ts=ts(2)))
        h.send(WriteReq(register_id=0, request_id=2, block=b"new", ts=ts(4)))
        reply = h.send(
            OrderReadReq(register_id=0, request_id=3, j=ALL, max_ts=ts(4), ts=ts(9))
        )
        assert reply.lts == ts(2)
        assert reply.block == b"old"

    @pytest.mark.parametrize("bound", [3, 4])
    def test_bound_at_or_below_the_log_floor_is_an_erasure(self, bound):
        """A log trimmed to start at ts(4) knows nothing below it: asked
        for the newest version before ts(bound) <= 4 it answers as an
        erasure, never as nil at LowTS."""
        h = Harness()
        for t in (2, 4):
            h.send(WriteReq(register_id=0, request_id=t, block=bytes([t]), ts=ts(t)))
        h.send(GcReq(register_id=0, request_id=50, ts=ts(4)))
        assert h.replica.state(0).log.min_ts() == ts(4)
        below = h.send(
            OrderReadReq(register_id=0, request_id=5, j=ALL, max_ts=ts(bound), ts=ts(9))
        )
        assert below.status and below.corrupt
        assert below.block is None
        above = h.send(
            OrderReadReq(register_id=0, request_id=6, j=ALL, max_ts=ts(5), ts=ts(10))
        )
        assert not above.corrupt
        assert (above.lts, above.block) == (ts(4), b"\x04")

    def test_j_targeting(self):
        h = Harness(process_index=2)
        h.send(WriteReq(register_id=0, request_id=1, block=b"v", ts=ts(1)))
        mine = h.send(
            OrderReadReq(register_id=0, request_id=2, j=2, max_ts=HIGH_TS, ts=ts(5))
        )
        assert mine.block == b"v"
        other = h.send(
            OrderReadReq(register_id=0, request_id=3, j=1, max_ts=HIGH_TS, ts=ts(6))
        )
        assert other.status
        assert other.block is None

    def test_stale_ts_rejected_without_block(self):
        h = Harness()
        h.send(OrderReq(register_id=0, request_id=1, ts=ts(9)))
        reply = h.send(
            OrderReadReq(register_id=0, request_id=2, j=ALL, max_ts=HIGH_TS, ts=ts(3))
        )
        assert not reply.status
        assert reply.block is None
        assert reply.lts == LOW_TS


class TestWriteHandler:
    def test_write_appends(self):
        h = Harness()
        reply = h.send(WriteReq(register_id=0, request_id=1, block=b"v", ts=ts(1)))
        assert reply.status
        assert h.replica.state(0).log.max_block() == (ts(1), b"v")

    def test_write_stale_rejected(self):
        h = Harness()
        h.send(WriteReq(register_id=0, request_id=1, block=b"new", ts=ts(5)))
        reply = h.send(WriteReq(register_id=0, request_id=2, block=b"old", ts=ts(3)))
        assert not reply.status
        assert h.replica.state(0).log.max_block() == (ts(5), b"new")

    def test_write_below_ord_rejected(self):
        h = Harness()
        h.send(OrderReq(register_id=0, request_id=1, ts=ts(10)))
        reply = h.send(WriteReq(register_id=0, request_id=2, block=b"v", ts=ts(5)))
        assert not reply.status

    def test_write_nil_allowed(self):
        """Recovery may store nil (the rolled-back state)."""
        h = Harness()
        reply = h.send(WriteReq(register_id=0, request_id=1, block=None, ts=ts(2)))
        assert reply.status
        assert h.replica.state(0).log.max_block() == (ts(2), None)

    def test_log_persisted_across_crash(self):
        h = Harness()
        h.send(WriteReq(register_id=0, request_id=1, block=b"v", ts=ts(1)))
        h.node.crash()
        h.node.recover()
        assert h.replica.state(0).log.max_block() == (ts(1), b"v")


class TestModifyHandler:
    def _prime(self, h, block, write_ts):
        h.send(WriteReq(register_id=0, request_id=h.rid() + 50, block=block, ts=write_ts))

    def test_target_process_stores_new_block(self):
        h = Harness(process_index=1, m=2, n=3)
        self._prime(h, b"old", ts(1))
        reply = h.send(
            ModifyReq(
                register_id=0, request_id=99, j=1,
                new_block=b"new", ts_j=ts(1), ts=ts(2),
            )
        )
        assert reply.status
        assert h.replica.state(0).log.max_block() == (ts(2), b"new")

    def test_parity_process_recomputes(self):
        h = Harness(process_index=3, m=2, n=3)
        stripe = [b"a", b"b"]
        parity = h.code.encode(stripe)[2]
        self._prime(h, parity, ts(1))
        reply = h.send(
            ModifyReq(
                register_id=0, request_id=99, j=1,
                delta=h.code.encode_delta(1, b"a", b"z"),
                ts_j=ts(1), ts=ts(2),
            )
        )
        assert reply.status
        expected = h.code.encode([b"z", b"b"])[2]
        assert h.replica.state(0).log.max_block() == (ts(2), expected)

    def test_other_data_process_logs_bottom(self):
        """A ts-only Modify: the process logs ⊥ at ts."""
        h = Harness(process_index=2, m=2, n=3)
        self._prime(h, b"b", ts(1))
        reply = h.send(
            ModifyReq(register_id=0, request_id=99, j=1, ts_j=ts(1), ts=ts(2))
        )
        assert reply.status
        entry = h.replica.state(0).log.entry_at(ts(2))
        assert entry.block is BOTTOM
        # max-block still returns the old value
        assert h.replica.state(0).log.max_block() == (ts(1), b"b")

    def test_version_mismatch_rejected(self):
        """ts_j must equal max-ts(log): stale Modify is refused."""
        h = Harness(process_index=1, m=2, n=3)
        self._prime(h, b"v2", ts(2))
        reply = h.send(
            ModifyReq(
                register_id=0, request_id=99, j=1,
                new_block=b"z", ts_j=ts(1), ts=ts(3),
            )
        )
        assert not reply.status

    def test_parity_without_base_value_rejected(self):
        """Modify on a never-written register cannot compute parity."""
        h = Harness(process_index=3, m=2, n=3)
        reply = h.send(
            ModifyReq(
                register_id=0, request_id=99, j=1,
                delta=b"z", ts_j=LOW_TS, ts=ts(1),
            )
        )
        assert not reply.status


class TestGcHandler:
    def test_gc_trims(self):
        h = Harness()
        for t in (1, 2, 3):
            h.send(WriteReq(register_id=0, request_id=t, block=bytes([t]), ts=ts(t)))
        h.send(GcReq(register_id=0, request_id=50, ts=ts(3)))
        state = h.replica.state(0)
        assert len(state.log) == 1
        assert state.log.max_block() == (ts(3), b"\x03")

    def test_gc_persists(self):
        h = Harness()
        for t in (1, 2):
            h.send(WriteReq(register_id=0, request_id=t, block=bytes([t]), ts=ts(t)))
        h.send(GcReq(register_id=0, request_id=50, ts=ts(2)))
        h.node.crash()
        h.node.recover()
        assert len(h.replica.state(0).log) == 1


class TestModifyGc:
    """The §5.1 notice after a complete ``Modify(ts)``, on every view.

    Each brick keeps a value entry, and recovery rebuilds exactly the
    trimmed log.
    """

    BASE = b"\x01\x02\x03\x04"
    NEW = b"\x05\x06\x07\x08"

    def run_view(self, process_index, view):
        h = Harness(process_index=process_index)
        h.send(WriteReq(
            register_id=0, request_id=1, block=self.BASE, ts=ts(1)
        ))
        if view is not None:
            reply = h.send(ModifyReq(
                register_id=0, request_id=2, j=1, ts_j=ts(1), ts=ts(2), **view
            ))
            assert reply.status
        h.send(GcReq(register_id=0, request_id=3, ts=ts(2)))
        live = h.replica.state(0).log
        assert live.max_block()[1] not in (None, BOTTOM)
        h.node.crash()
        h.node.recover()
        assert h.replica.state(0).log.to_state() == live.to_state()
        return live.to_state()

    def test_target_brick_keeps_new_block(self):
        log = self.run_view(1, {"new_block": self.NEW})
        assert log == [(ts(2), self.NEW)]

    def test_parity_brick_keeps_updated_parity(self):
        code = make_code(2, 3)
        delta = code.encode_delta(1, self.BASE, self.NEW)
        log = self.run_view(3, {"delta": delta})
        assert log == [(ts(2), code.apply_delta(1, 3, delta, self.BASE))]

    def test_ts_only_brick_keeps_its_value_below(self):
        log = self.run_view(2, {})
        assert log == [(ts(1), self.BASE), (ts(2), BOTTOM)]

    def test_brick_that_missed_the_modify_keeps_its_value(self):
        log = self.run_view(2, None)
        assert log == [(ts(1), self.BASE)]


class TestJournalCompaction:
    BLOCK = 4096

    def write(self, h, t):
        h.send(WriteReq(
            register_id=0, request_id=t, block=bytes([t]) * self.BLOCK,
            ts=ts(t),
        ))

    def gc(self, h, t):
        h.send(GcReq(register_id=0, request_id=100 + t, ts=ts(t)))

    def test_every_trim_keeps_the_surviving_append_records(self):
        """A trim resets the journal to the survivors' own append
        records, and recovery replays it to exactly the live log."""
        h = Harness()
        key = h.replica.log_key(0)
        self.write(h, 1)
        assert h.node.stable.load_journal(key)[0] is INITIAL_RECORD
        for t in range(2, 13):
            self.write(h, t)
            if t % 3:
                continue  # appends pile up between notices
            appended = h.node.stable.load_journal(key)
            self.gc(h, t - 1)
            live = h.replica.state(0).log
            journal = h.node.stable.load_journal(key)
            assert journal == journal_records(live)
            assert [record[1] for record in journal] == [ts(t - 1), ts(t)]
            # The survivors are the very objects appended before.
            assert all(
                any(record is old for old in appended) for record in journal
            )
            h.node.crash()
            h.node.recover()
            assert h.replica.state(0).log.to_state() == live.to_state()
        assert h.replica.state(0).log.to_state() == [
            (ts(11), bytes([11]) * self.BLOCK),
            (ts(12), bytes([12]) * self.BLOCK),
        ]

    def test_trim_seals_no_block(self, monkeypatch):
        """A GC trim re-checksums none of the surviving blocks."""
        h = Harness()
        for t in range(1, 4):
            self.write(h, t)
        crc_lengths = []
        crc32 = node_module._crc32

        def counting_crc32(data, value=0):
            crc_lengths.append(len(data))
            return crc32(data, value)

        monkeypatch.setattr(node_module, "_crc32", counting_crc32)
        stores = h.node.stable.store_count
        self.gc(h, 2)
        assert [entry.ts for entry in h.replica.state(0).log.entries()] == [
            ts(2), ts(3)
        ]
        assert not [n for n in crc_lengths if n >= self.BLOCK]
        assert h.node.stable.store_count == stores

    def test_bit_rot_before_a_trim_is_resealed_and_healed(self):
        """A surviving record that rotted on disk since it was sealed
        is sealed afresh from the volatile log, so the trim heals it."""
        h = Harness()
        key = h.replica.log_key(0)
        for t in range(1, 4):
            self.write(h, t)
        live = h.replica.state(0).log.to_state()
        assert h.node.stable.corrupt(key, seed=5)  # rots ts(3)'s record
        assert not h.node.stable.verify(key)
        stores = h.node.stable.store_count
        self.gc(h, 2)
        assert h.node.stable.store_count == stores + 1  # ts(3) resealed
        assert h.node.stable.verify(key)
        h.node.crash()
        h.node.recover()
        assert h.replica.state(0).log.to_state() == live[2:]


class TestDuplicateSuppression:
    def test_duplicate_request_gets_cached_reply(self):
        h = Harness()
        request = WriteReq(register_id=0, request_id=7, block=b"v", ts=ts(1))
        first = h.send(request)
        assert first.status
        second = h.send(request)  # retransmission
        assert second.status  # NOT re-executed (would be false)
        assert len(h.replica.state(0).log) == 2  # LowTS + one entry

    def test_cache_cleared_on_crash(self):
        h = Harness()
        request = WriteReq(register_id=0, request_id=7, block=b"v", ts=ts(1))
        h.send(request)
        h.node.crash()
        h.node.recover()
        retry = h.send(request)
        assert not retry.status  # re-executed against the persisted log

    def test_per_register_isolation(self):
        h = Harness()
        h.send(WriteReq(register_id=0, request_id=1, block=b"a", ts=ts(1)))
        h.send(WriteReq(register_id=1, request_id=2, block=b"b", ts=ts(1)))
        assert h.replica.state(0).log.max_block()[1] == b"a"
        assert h.replica.state(1).log.max_block()[1] == b"b"
