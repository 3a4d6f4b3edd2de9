"""Timestamps: ordering, sentinels, and the Section 2.3 properties."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.timestamps import HIGH_TS, LOW_TS, Timestamp, TimestampSource


class TestTimestampOrdering:
    def test_lexicographic(self):
        assert Timestamp(1, 2) < Timestamp(2, 1)
        assert Timestamp(1, 1) < Timestamp(1, 2)
        assert Timestamp(3, 4) == Timestamp(3, 4)

    def test_sentinels_bracket_everything(self):
        ts = Timestamp(0, 1)
        assert LOW_TS < ts < HIGH_TS
        assert LOW_TS < Timestamp(-10**9, 1)
        assert Timestamp(10**18, 10**6) < HIGH_TS

    def test_sentinel_flags(self):
        assert LOW_TS.is_low and not LOW_TS.is_high
        assert HIGH_TS.is_high and not HIGH_TS.is_low
        assert not Timestamp(1, 1).is_low

    def test_sentinels_compare_to_themselves(self):
        assert not LOW_TS < LOW_TS
        assert LOW_TS <= LOW_TS
        assert LOW_TS < HIGH_TS

    def test_hashable(self):
        assert len({Timestamp(1, 1), Timestamp(1, 1), Timestamp(1, 2)}) == 2

    def test_repr(self):
        assert repr(LOW_TS) == "LowTS"
        assert repr(HIGH_TS) == "HighTS"
        assert repr(Timestamp(3, 2)) == "TS(3,2)"

    def test_comparison_with_non_timestamp(self):
        assert Timestamp(1, 1) != "nope"

    @given(
        st.integers(-100, 100), st.integers(1, 50),
        st.integers(-100, 100), st.integers(1, 50),
    )
    def test_total_order(self, t1, p1, t2, p2):
        a, b = Timestamp(t1, p1), Timestamp(t2, p2)
        assert (a < b) + (b < a) + (a == b) == 1


class TestTimestampValue:
    """A Timestamp is the tuple ``(kind, time, process_id)``: ordering,
    equality and hashing are the tuple's, and the value round-trips
    through pickle and copy (process pools ship it)."""

    @pytest.mark.parametrize("stamp", [
        LOW_TS, HIGH_TS, Timestamp(0, 1), Timestamp(10**18, 7),
        Timestamp(12.5, 3), Timestamp(-4, 2),
    ])
    def test_pickle_and_copy_roundtrip(self, stamp):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(stamp, protocol))
            assert back == stamp and type(back) is Timestamp
            assert (back.kind, back.time, back.process_id) == (
                stamp.kind, stamp.time, stamp.process_id
            )
        for back in (copy.copy(stamp), copy.deepcopy(stamp)):
            assert back == stamp and type(back) is Timestamp
            assert repr(back) == repr(stamp)

    def test_fields_and_keyword_construction(self):
        stamp = Timestamp(time=5, process_id=3)
        assert (stamp.time, stamp.process_id, stamp.kind) == (5, 3, 0)
        assert tuple(stamp) == (0, 5, 3)
        assert Timestamp(0, 0, kind=-1) == LOW_TS
        with pytest.raises(AttributeError):
            stamp.time = 6

    def test_hash_is_the_tuple_hash(self):
        # Dicts and sets keyed by timestamps keep their layout.
        assert hash(Timestamp(3, 4)) == hash((0, 3, 4))
        assert hash(LOW_TS) == hash((-1, 0, 0))
        assert hash(HIGH_TS) == hash((1, 0, 0))

    def test_order_is_kind_then_time_then_process(self):
        stamps = [
            HIGH_TS, Timestamp(2, 1), Timestamp(1, 2), LOW_TS,
            Timestamp(1, 1), Timestamp(-5, 9),
        ]
        assert sorted(stamps) == [
            LOW_TS, Timestamp(-5, 9), Timestamp(1, 1), Timestamp(1, 2),
            Timestamp(2, 1), HIGH_TS,
        ]
        assert max(Timestamp(1, 2), Timestamp(1, 1)) == Timestamp(1, 2)
        assert Timestamp(1, 1) <= Timestamp(1, 1) >= Timestamp(1, 1)

    def test_repr_of_generated_and_sentinels(self):
        assert [repr(s) for s in (LOW_TS, Timestamp(7, 2), HIGH_TS)] == [
            "LowTS", "TS(7,2)", "HighTS",
        ]
        assert str(Timestamp(7, 2)) == "TS(7,2)"


class TestTimestampSource:
    def test_rejects_nonpositive_pid(self):
        with pytest.raises(ConfigurationError):
            TimestampSource(0)

    def test_uniqueness_across_processes(self):
        a = TimestampSource(1)
        b = TimestampSource(2)
        produced = {a.new_ts() for _ in range(50)} | {b.new_ts() for _ in range(50)}
        assert len(produced) == 100

    def test_monotonicity(self):
        source = TimestampSource(3)
        previous = source.new_ts()
        for _ in range(100):
            current = source.new_ts()
            assert current > previous
            previous = current

    def test_monotonic_despite_stalled_clock(self):
        source = TimestampSource(1, clock=lambda: 5.0)
        first = source.new_ts()
        second = source.new_ts()
        assert second > first

    def test_monotonic_despite_backwards_clock(self):
        readings = iter([100.0, 1.0, 0.5])
        source = TimestampSource(1, clock=lambda: next(readings))
        a = source.new_ts()
        b = source.new_ts()
        c = source.new_ts()
        assert a < b < c

    def test_progress_property(self):
        """A retrying process eventually exceeds any fixed timestamp."""
        fixed = TimestampSource(2, clock=lambda: 1000.0, resolution=1.0).new_ts()
        slow = TimestampSource(1)  # purely logical, starts at 0
        for _ in range(10**4):
            ts = slow.new_ts()
            if ts > fixed:
                break
        else:
            pytest.fail("PROGRESS violated")

    def test_clock_advances_timestamps(self):
        now = [0.0]
        source = TimestampSource(1, clock=lambda: now[0], resolution=10.0)
        first = source.new_ts()
        now[0] = 100.0
        second = source.new_ts()
        assert second.time - first.time >= 900

    def test_skew_shifts_readings(self):
        base = TimestampSource(1, clock=lambda: 10.0, skew=0.0, resolution=1.0)
        ahead = TimestampSource(2, clock=lambda: 10.0, skew=5.0, resolution=1.0)
        assert ahead.new_ts().time > base.new_ts().time

    def test_observe_advances_clock(self):
        source = TimestampSource(1)
        foreign = Timestamp(10**6, 9)
        source.observe(foreign)
        assert source.new_ts() > foreign

    def test_observe_ignores_sentinels(self):
        source = TimestampSource(1)
        source.observe(HIGH_TS)
        ts = source.new_ts()
        assert ts < HIGH_TS
        assert ts.time == 1

    def test_observe_ignores_older(self):
        source = TimestampSource(1)
        latest = None
        for _ in range(5):
            latest = source.new_ts()
        source.observe(Timestamp(1, 2))
        assert source.new_ts() > latest
