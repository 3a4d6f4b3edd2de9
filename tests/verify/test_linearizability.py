"""The strict-linearizability checker against hand-built histories."""

from repro.types import OpKind, OpStatus
from repro.verify.history import OpRecord
from repro.verify.linearizability import check_strict_linearizability

_ids = iter(range(1, 10_000))


def op(kind, value, t_inv, t_resp, status=OpStatus.OK):
    return OpRecord(
        op_id=next(_ids),
        kind=kind,
        block_index=1,
        value=value,
        t_inv=t_inv,
        t_resp=t_resp,
        status=status,
    )


def write(value, t_inv, t_resp, status=OpStatus.OK):
    return op(OpKind.WRITE_BLOCK, value, t_inv, t_resp, status)


def read(value, t_inv, t_resp, status=OpStatus.OK):
    return op(OpKind.READ_BLOCK, value, t_inv, t_resp, status)


class TestGoodHistories:
    def test_empty(self):
        assert check_strict_linearizability([]).ok

    def test_sequential(self):
        history = [
            write(b"a", 0, 1),
            read(b"a", 2, 3),
            write(b"b", 4, 5),
            read(b"b", 6, 7),
        ]
        assert check_strict_linearizability(history).ok

    def test_read_nil_before_any_write(self):
        history = [read(None, 0, 1), write(b"a", 2, 3), read(b"a", 4, 5)]
        assert check_strict_linearizability(history).ok

    def test_concurrent_writes_any_order(self):
        history = [
            write(b"a", 0, 10),
            write(b"b", 0, 10),
            read(b"b", 11, 12),
        ]
        assert check_strict_linearizability(history).ok

    def test_concurrent_read_sees_either(self):
        for seen in (b"a", b"b"):
            history = [
                write(b"a", 0, 1),
                write(b"b", 2, 10),
                read(seen, 3, 9),  # concurrent with write(b)
            ]
            assert check_strict_linearizability(history).ok, seen

    def test_crashed_write_never_observed(self):
        history = [
            write(b"a", 0, 1),
            write(b"b", 2, 3, status=OpStatus.CRASHED),
            read(b"a", 4, 5),
            read(b"a", 6, 7),
        ]
        assert check_strict_linearizability(history).ok

    def test_crashed_write_observed_rolled_forward(self):
        history = [
            write(b"a", 0, 1),
            write(b"b", 2, 3, status=OpStatus.CRASHED),
            read(b"b", 4, 5),
            read(b"b", 6, 7),
        ]
        assert check_strict_linearizability(history).ok

    def test_aborted_write_may_or_may_not_take_effect(self):
        for seen in (b"a", b"b"):
            history = [
                write(b"a", 0, 1),
                write(b"b", 2, 3, status=OpStatus.ABORTED),
                read(seen, 4, 5),
            ]
            assert check_strict_linearizability(history).ok, seen

    def test_zero_block_read_is_nil(self):
        history = [read(b"\x00" * 8, 0, 1)]
        assert check_strict_linearizability(history).ok

    def test_order_returned_when_ok(self):
        history = [write(b"a", 0, 1), read(b"a", 2, 3)]
        result = check_strict_linearizability(history)
        assert result.order is not None
        assert result.n_values == 1

    def test_pending_op_constrains_nothing(self):
        history = [
            write(b"a", 0, 1),
            write(b"b", 2, None, status=OpStatus.PENDING),
            read(b"a", 5, 6),
        ]
        assert check_strict_linearizability(history).ok


class TestBadHistories:
    def test_stale_read_after_newer_read(self):
        history = [
            write(b"a", 0, 1),
            write(b"b", 2, 3),
            read(b"b", 4, 5),
            read(b"a", 6, 7),  # goes backwards
        ]
        result = check_strict_linearizability(history)
        assert not result.ok

    def test_figure5_anomaly_detected(self):
        """The LS97 behaviour: crashed write resurfaces after a read
        that established the old value."""
        history = [
            write(b"v", 0, 1),
            write(b"w", 2, 3, status=OpStatus.CRASHED),  # partial
            read(b"v", 4, 5),   # rolled the partial write back
            read(b"w", 6, 7),   # ...but then it resurfaces: violation
        ]
        result = check_strict_linearizability(history)
        assert not result.ok
        assert any("cycle" in v for v in result.violations)

    def test_read_before_write_of_value(self):
        history = [read(b"x", 0, 1), write(b"x", 2, 3)]
        result = check_strict_linearizability(history)
        assert not result.ok

    def test_phantom_value(self):
        history = [write(b"a", 0, 1), read(b"ghost", 2, 3)]
        result = check_strict_linearizability(history)
        assert not result.ok
        assert any("no write wrote" in v for v in result.violations)

    def test_nil_read_after_value_read(self):
        history = [
            write(b"a", 0, 1),
            read(b"a", 2, 3),
            read(None, 4, 5),  # registers never lose values
        ]
        result = check_strict_linearizability(history)
        assert not result.ok

    def test_write_order_violated(self):
        history = [
            write(b"a", 0, 1),
            write(b"b", 2, 3),
            read(b"b", 4, 5),
            write(b"c", 6, 7),
            read(b"b", 8, 9),  # must be c
        ]
        assert not check_strict_linearizability(history).ok

    def test_duplicate_write_values_rejected(self):
        history = [write(b"a", 0, 1), write(b"a", 2, 3)]
        result = check_strict_linearizability(history)
        assert not result.ok
        assert any("unique-value" in v for v in result.violations)


class TestStrictnessSpecifics:
    def test_traditional_but_not_strict_history(self):
        """Crashed write takes effect AFTER an intervening read of an
        older value: fine under traditional linearizability, forbidden
        under strict linearizability."""
        history = [
            write(b"v1", 0, 1),
            write(b"v2", 10, 12, status=OpStatus.CRASHED),
            read(b"v1", 20, 21),
            read(b"v2", 30, 31),
        ]
        assert not check_strict_linearizability(history).ok

    def test_crash_before_read_invocation_counts(self):
        """A crashed op's end event orders it before later invocations."""
        history = [
            write(b"v1", 0, 1),
            write(b"v2", 2, 5, status=OpStatus.CRASHED),
            read(b"v2", 6, 7),  # partial took effect before crash: OK
        ]
        assert check_strict_linearizability(history).ok

    def test_overlapping_crash_allows_either(self):
        """Read overlapping the crashed write may see old or new."""
        for seen in (b"v1", b"v2"):
            history = [
                write(b"v1", 0, 1),
                write(b"v2", 2, 8, status=OpStatus.CRASHED),
                read(seen, 4, 10),
            ]
            assert check_strict_linearizability(history).ok, seen
