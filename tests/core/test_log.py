"""The replica log and its three query functions (Section 4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.log import BOTTOM, LogEntry, ReplicaLog
from repro.timestamps import HIGH_TS, LOW_TS, Timestamp


def ts(time, pid=1):
    return Timestamp(time, pid)


class TestInitialLog:
    def test_initial_contents(self):
        log = ReplicaLog()
        assert len(log) == 1
        assert log.max_ts() == LOW_TS
        assert log.max_block() == (LOW_TS, None)

    def test_initial_max_below(self):
        log = ReplicaLog()
        assert log.max_below(ts(5)) == (LOW_TS, None)
        assert log.max_below(LOW_TS) == (LOW_TS, None)


class TestQueries:
    def test_max_ts_tracks_highest(self):
        log = ReplicaLog()
        log.append(ts(3), b"a")
        log.append(ts(1), b"b")  # out of order arrival
        assert log.max_ts() == ts(3)

    def test_max_ts_includes_bottom_entries(self):
        """ord without value still advances max-ts (partial-write marker)."""
        log = ReplicaLog()
        log.append(ts(2), b"a")
        log.append(ts(7), BOTTOM)
        assert log.max_ts() == ts(7)

    def test_max_block_skips_bottom(self):
        log = ReplicaLog()
        log.append(ts(2), b"a")
        log.append(ts(7), BOTTOM)
        assert log.max_block() == (ts(2), b"a")

    def test_max_block_returns_nil_entry(self):
        log = ReplicaLog()
        log.append(ts(4), None)  # a recovery stored nil
        assert log.max_block() == (ts(4), None)

    def test_max_below_strictly_smaller(self):
        log = ReplicaLog()
        log.append(ts(2), b"a")
        log.append(ts(5), b"b")
        assert log.max_below(ts(5)) == (ts(2), b"a")
        assert log.max_below(ts(6)) == (ts(5), b"b")
        assert log.max_below(ts(2)) == (LOW_TS, None)

    def test_max_below_skips_bottom(self):
        log = ReplicaLog()
        log.append(ts(2), b"a")
        log.append(ts(4), BOTTOM)
        assert log.max_below(ts(9)) == (ts(2), b"a")

    def test_contains_and_entry_at(self):
        log = ReplicaLog()
        log.append(ts(3), b"x")
        assert log.contains_ts(ts(3))
        assert not log.contains_ts(ts(4))
        assert log.entry_at(ts(3)).block == b"x"
        assert log.entry_at(ts(4)) is None


class TestAppend:
    def test_append_keeps_sorted(self):
        log = ReplicaLog()
        for t in [5, 1, 3, 2, 4]:
            log.append(ts(t), bytes([t]))
        timestamps = [entry.ts for entry in log.entries()]
        assert timestamps == sorted(timestamps)

    def test_duplicate_ts_value_wins_over_bottom(self):
        log = ReplicaLog()
        log.append(ts(3), BOTTOM)
        log.append(ts(3), b"v")
        assert log.entry_at(ts(3)).block == b"v"
        assert len(log) == 2  # LowTS + one entry

    def test_duplicate_ts_value_not_replaced(self):
        log = ReplicaLog()
        log.append(ts(3), b"v")
        log.append(ts(3), b"w")  # same timestamp: ignored (set semantics)
        assert log.entry_at(ts(3)).block == b"v"

    def test_duplicate_bottom_ignored(self):
        log = ReplicaLog()
        log.append(ts(3), b"v")
        log.append(ts(3), BOTTOM)
        assert log.entry_at(ts(3)).block == b"v"


class TestTrim:
    def test_trim_below_keeps_entry_at_ts(self):
        log = ReplicaLog()
        for t in [1, 2, 3]:
            log.append(ts(t), bytes([t]))
        removed = log.trim_below(ts(3))
        assert removed == 3  # LowTS, ts1, ts2
        assert log.max_block() == (ts(3), b"\x03")

    def test_trim_preserves_value_when_tail_is_bottom(self):
        """GC must never leave the log without a value entry."""
        log = ReplicaLog()
        log.append(ts(1), b"a")
        log.append(ts(5), BOTTOM)
        removed = log.trim_below(ts(5))
        assert removed == 1  # only LowTS; ts1 kept as the newest value
        assert log.max_block() == (ts(1), b"a")

    def test_trim_drops_bottoms_between_value_and_ts(self):
        """A ts-only brick keeps its value and the complete version's ⊥;
        the ⊥ entries of older versions go, so its log stays O(1)."""
        log = ReplicaLog()
        log.append(ts(1), b"a")
        for t in (2, 3, 4):
            log.append(ts(t), BOTTOM)
        assert log.trim_below(ts(4)) == 3  # LowTS, ts2, ts3
        assert log.to_state() == [(ts(1), b"a"), (ts(4), BOTTOM)]
        assert log.max_ts_below(HIGH_TS) == ts(4)

    def test_trim_keeps_max_ts_on_a_brick_that_missed_the_write(self):
        log = ReplicaLog()
        log.append(ts(1), b"a")
        log.append(ts(2), BOTTOM)
        log.append(ts(3), BOTTOM)
        assert log.trim_below(ts(9)) == 2  # LowTS, ts2
        assert log.to_state() == [(ts(1), b"a"), (ts(3), BOTTOM)]
        assert log.max_ts() == ts(3)

    def test_trim_nothing_below(self):
        log = ReplicaLog()
        log.append(ts(1), b"a")
        assert log.trim_below(LOW_TS) == 0

    def test_trim_everything_below_keeps_latest_value(self):
        log = ReplicaLog()
        log.append(ts(1), b"a")
        assert log.trim_below(ts(99)) == 1
        assert log.max_block() == (ts(1), b"a")

    def test_max_below_after_trim(self):
        """After GC, max-below falls back to (LowTS, nil)."""
        log = ReplicaLog()
        log.append(ts(1), b"a")
        log.append(ts(2), b"b")
        log.trim_below(ts(2))
        assert log.max_below(ts(2)) == (LOW_TS, None)


class TestPersistenceRoundtrip:
    def test_state_roundtrip(self):
        log = ReplicaLog()
        log.append(ts(1), b"a")
        log.append(ts(2), BOTTOM)
        log.append(ts(3), None)
        restored = ReplicaLog.from_state(log.to_state())
        assert restored.entries() == log.entries()
        assert restored.max_ts() == log.max_ts()

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.tuples(st.integers(1, 100), st.sampled_from(["v", "bottom", "nil"])), max_size=20))
    def test_roundtrip_random(self, ops):
        log = ReplicaLog()
        for time, kind in ops:
            block = {"v": bytes([time % 256]), "bottom": BOTTOM, "nil": None}[kind]
            log.append(ts(time), block)
        restored = ReplicaLog.from_state(log.to_state())
        assert restored.entries() == log.entries()


class TestInvariantsProperty:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(1, 50), st.booleans()),
            min_size=1, max_size=30,
        ),
        st.integers(1, 50),
    )
    def test_query_functions_agree_with_bruteforce(self, ops, probe):
        log = ReplicaLog()
        for time, has_value in ops:
            log.append(ts(time), bytes([time]) if has_value else BOTTOM)

        entries = log.entries()
        # max_ts
        assert log.max_ts() == max(e.ts for e in entries)
        # max_block
        value_entries = [e for e in entries if e.has_value]
        expected = max(value_entries, key=lambda e: e.ts)
        assert log.max_block() == (expected.ts, expected.block)
        # max_below
        below = [e for e in value_entries if e.ts < ts(probe)]
        if below:
            expected_below = max(below, key=lambda e: e.ts)
            assert log.max_below(ts(probe)) == (
                expected_below.ts, expected_below.block
            )
        else:
            assert log.max_below(ts(probe)) == (LOW_TS, None)
