"""The value codec is the stable store's record format."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import decode, encode
from repro.errors import ConfigurationError
from repro.sim.node import StableStore
from repro.timestamps import HIGH_TS, LOW_TS, Timestamp
from repro.types import BOTTOM

_TIMESTAMPS = st.one_of(
    st.sampled_from([LOW_TS, HIGH_TS]),
    st.builds(Timestamp, st.integers(0, 2**62), st.integers(1, 10_000)),
    # Off the 64-bit fast path: fractional and oversized clock readings.
    st.builds(Timestamp, st.floats(0, 1e12), st.integers(1, 10_000)),
    st.builds(Timestamp, st.integers(2**64, 2**80), st.integers(1, 9)),
)
_ATOMS = st.one_of(
    st.none(),
    st.just(BOTTOM),
    st.booleans(),
    st.integers(-(2**33), 2**33),
    st.integers(-(2**90), 2**90),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.sampled_from(["\ud800", "a\udfffb"]),
    st.binary(max_size=96),
    st.sampled_from([b"", bytes(range(256)) * 256]),  # up to 64 KiB
    _TIMESTAMPS,
)
RECORDS = st.recursive(
    _ATOMS, lambda items: st.lists(items, max_size=4).map(tuple),
    max_leaves=12,
)


def same_types(left, right):
    """``==`` lets True pass for 1 and a tuple for a Timestamp; the
    codec must not."""
    assert type(left) is type(right), (left, right)
    if type(left) is tuple or type(left) is Timestamp:
        for x, y in zip(left, right):
            same_types(x, y)


@settings(max_examples=200, deadline=None)
@given(record=RECORDS)
def test_records_roundtrip_and_seal_their_encoding(record):
    pieces = encode(record)
    data = b"".join(pieces)
    back = decode(data)
    assert back == record
    same_types(back, record)
    store = StableStore()
    store.store("k", record)
    store.append("j", record)
    assert store.size_of("k") == store.size_of("j") == len(data)
    assert store._crcs["k"] == zlib.crc32(data)
    assert store._data["j"].crcs == [zlib.crc32(data)]


def test_a_block_is_its_own_piece():
    """The seal checksums a block in place: encoding never copies it."""
    block = bytes(65536)
    assert any(piece is block for piece in encode(("a", LOW_TS, block)))


@pytest.mark.parametrize("data, complaint", [
    (b"", "malformed"),
    (b"?", "unknown value tag"),
    # A tag outside the table.
    (b"S\x00\x00\x00\x00", "unknown value tag"),
    (b"NN", "trailing bytes"),
])
def test_malformed_values_raise_configuration_error(data, complaint):
    with pytest.raises(ConfigurationError, match=complaint):
        decode(data)


def test_lone_surrogate_roundtrips_through_the_store():
    store = StableStore()
    store.store("k", "\ud800")
    assert store.load("k") == "\ud800"
    assert store.size_of("k") == len(b"".join(encode("\ud800"))) == 8
    assert decode(b"".join(encode("\ud800"))) == "\ud800"
