"""Wire-format round trips for the asyncio transport."""

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages
from repro.errors import ConfigurationError
from repro.timestamps import HIGH_TS, LOW_TS, Timestamp
from repro.transport import wire
from repro.transport.wire import (
    decode_frame,
    encode_frame,
    register_wire_type,
)

TS = Timestamp(12.5, 3)


def roundtrip(payload, src=1, dst=2, size=64):
    frame = encode_frame(src, dst, payload, size=size)
    out_src, out_dst, out_payload, out_size = decode_frame(frame[4:])
    assert (out_src, out_dst, out_size) == (src, dst, size)
    return out_payload


def test_scalars_bytes_and_none_roundtrip():
    assert roundtrip(None) is None
    assert roundtrip(42) == 42
    assert roundtrip("status") == "status"
    assert roundtrip(b"\x00\xffpayload") == b"\x00\xffpayload"
    assert roundtrip([1, b"a", None]) == [1, b"a", None]


def test_timestamp_roundtrip_including_sentinels():
    for ts in (TS, LOW_TS, HIGH_TS, Timestamp(0, 0)):
        back = roundtrip(ts)
        assert isinstance(back, Timestamp)
        assert back == ts
        assert back.kind == ts.kind


def test_every_protocol_message_roundtrips():
    """Each message in repro.core.messages survives encode/decode."""
    samples = [
        messages.ReadReq(0, 7, targets=frozenset({1, 3, 5})),
        messages.ReadReply(0, 7, "OK", val_ts=TS, block=b"data", corrupt=False),
        messages.OrderReq(1, 8, ts=TS),
        messages.OrderReply(1, 8, "OK", max_seen=HIGH_TS, corrupt=False),
        messages.OrderReadReq(2, 9, j=0, max_ts=LOW_TS, ts=TS),
        messages.OrderReadReply(2, 9, "OK", lts=TS, block=b"b" * 64,
                                corrupt=False),
        messages.WriteReq(3, 10, block=b"x" * 16, ts=TS),
        messages.WriteReply(3, 10, "OK", max_seen=TS),
        messages.ModifyReq(4, 11, j=2, new_block=b"new", delta=None,
                           ts_j=LOW_TS, ts=TS),
        messages.ModifyReq(4, 11, j=2, new_block=None, delta=b"delta",
                           ts_j=LOW_TS, ts=TS),
        messages.ModifyReply(4, 11, "OK"),
        messages.GcReq(5, 12, ts=TS),
    ]
    for message in samples:
        back = roundtrip(message)
        assert back == message, message
        assert type(back) is type(message)


def test_nested_timestamp_stays_typed():
    """Timestamps inside messages must decode as Timestamp, not dict."""
    back = roundtrip(messages.WriteReq(0, 1, block=b"v", ts=TS))
    assert isinstance(back.ts, Timestamp)
    assert back.ts._key() == TS._key()


def test_frozenset_targets_roundtrip_as_frozenset():
    back = roundtrip(messages.ReadReq(0, 1, targets=frozenset({2, 4})))
    assert isinstance(back.targets, frozenset)
    assert back.targets == frozenset({2, 4})


def test_unregistered_dataclass_rejected():
    @dataclasses.dataclass
    class NotOnTheWire:
        x: int = 0

    with pytest.raises(ConfigurationError, match="not wire-registered"):
        encode_frame(1, 2, NotOnTheWire())


def test_register_wire_type_decorator():
    @register_wire_type
    @dataclasses.dataclass(frozen=True)
    class ProbeMsg:
        label: str = ""
        ts: Timestamp = LOW_TS

    back = roundtrip(ProbeMsg(label="hello", ts=TS))
    assert back == ProbeMsg(label="hello", ts=TS)

    with pytest.raises(ConfigurationError, match="dataclasses"):
        register_wire_type(object)


def test_one_field_and_fieldless_messages_roundtrip():
    @register_wire_type
    @dataclasses.dataclass(frozen=True)
    class Lone:
        block: bytes = b""

    @register_wire_type
    @dataclasses.dataclass(frozen=True)
    class Bare:
        pass

    assert roundtrip(Lone(b"only")) == Lone(b"only")
    assert roundtrip([Bare(), Lone()]) == [Bare(), Lone()]


def test_unknown_message_name_rejected_on_decode():
    # A hand-built body: the (src, dst, size) envelope, then an ``M``
    # value naming a class nobody registered.
    name = b"NoSuchMsg"
    body = struct.pack(">iiI", 1, 2, 0) + b"M" + bytes([len(name)]) + name
    with pytest.raises(ConfigurationError, match="unknown wire message"):
        decode_frame(body)


def test_unencodable_value_rejected():
    with pytest.raises(ConfigurationError, match="cannot wire-encode"):
        encode_frame(1, 2, object())


# -- generated round trips ---------------------------------------------------

_BLOCKS = st.one_of(
    st.binary(max_size=96),
    st.sampled_from([b"", bytes(4096), bytes(range(256)) * 256]),  # 64 KiB
)
_TIMESTAMPS = st.one_of(
    st.sampled_from([LOW_TS, HIGH_TS]),
    st.builds(Timestamp, st.integers(0, 2**62), st.integers(1, 10_000)),
    # Off the 64-bit fast path: fractional and oversized clock readings.
    st.builds(Timestamp, st.floats(0, 1e12), st.integers(1, 10_000)),
    st.builds(Timestamp, st.integers(2**64, 2**80), st.integers(1, 9)),
)
_FIELDS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**33), 2**33),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    _BLOCKS,
    _TIMESTAMPS,
    st.frozensets(st.integers(1, 2**40), max_size=6),
    st.lists(st.integers(-5, 5), max_size=4),
)


def _same_types(left, right):
    """``==`` lets True pass for 1; the wire must not."""
    assert type(left) is type(right), (left, right)
    if dataclasses.is_dataclass(left) and not isinstance(left, Timestamp):
        for field in dataclasses.fields(left):
            _same_types(getattr(left, field.name), getattr(right, field.name))


@pytest.mark.parametrize("name", sorted(wire._REGISTRY))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_registered_class_roundtrips_generated_fields(name, data):
    cls = wire._REGISTRY[name]
    message = cls(**{
        field.name: data.draw(_FIELDS, label=field.name)
        for field in dataclasses.fields(cls)
    })
    src, dst = data.draw(st.integers(-(2**31), 2**31 - 1)), 7
    size = data.draw(st.integers(0, 2**32 - 1))
    back = roundtrip(message, src=src, dst=dst, size=size)
    assert back == message
    _same_types(back, message)


def test_bytes_fields_decode_as_real_bytes_from_any_buffer():
    """No memoryview or bytearray may reach a handler or the store."""
    message = messages.WriteReq(0, 1, block=b"v" * 32, ts=TS)
    body = encode_frame(1, 2, message)[4:]
    for buffer in (bytearray(body), memoryview(body)):
        assert type(decode_frame(buffer)[2].block) is bytes
    assert type(roundtrip(bytearray(b"raw"))) is bytes


# -- malformed bodies -----------------------------------------------------

_ENVELOPE = struct.pack(">iiI", 1, 2, 0)


@pytest.mark.parametrize("body, complaint", [
    (_ENVELOPE + b"?", "unknown wire tag"),
    (_ENVELOPE + b"b" + struct.pack(">I", 9) + b"short", "truncated"),
    (_ENVELOPE + b"i" + b"\x00" * 3, "malformed"),
    (_ENVELOPE + b"NN", "trailing bytes"),
    (_ENVELOPE, "malformed"),
    (b"\x00" * 5, "malformed"),
    (_ENVELOPE + b"s" + struct.pack(">I", 1) + b"\xff", "malformed"),
    (_ENVELOPE + b"S" + struct.pack(">I", 1) + b"L" + bytes(4), "malformed"),
    (_ENVELOPE + b"L" + struct.pack(">I", 2**32 - 1), "malformed"),
    (_ENVELOPE + b"M\x07ReadReq" + b"i" + bytes(8), "malformed"),
])
def test_malformed_bodies_raise_configuration_error(body, complaint):
    with pytest.raises(ConfigurationError, match=complaint):
        decode_frame(body)


# -- reassembly ---------------------------------------------------------------


def _mixed_frames(count=50, seed=11):
    rng = random.Random(seed)
    makers = [
        lambda i: messages.ReadReq(i, i + 1, targets=frozenset({1, 3, 5})),
        lambda i: messages.ReadReply(i, i, True, val_ts=TS,
                                     block=rng.randbytes(rng.randrange(24))),
        lambda i: messages.OrderReq(i, i, ts=Timestamp(i * 1000, 2)),
        lambda i: messages.WriteReq(i, i, block=rng.randbytes(16), ts=TS),
        lambda i: messages.ModifyReq(i, i, j=1, delta=b"d" * 8,
                                     ts_j=LOW_TS, ts=TS),
        lambda i: messages.ModifyReply(i, i, False),
        lambda i: messages.GcReq(i, i, ts=HIGH_TS),
    ]
    sent = [
        (1 + i % 5, 1 + (i * 3) % 5, rng.choice(makers)(i), i)
        for i in range(count)
    ]
    stream = b"".join(
        encode_frame(src, dst, message, size)
        for src, dst, message, size in sent
    )
    return sent, stream


def test_parser_reassembles_frames_split_at_every_byte_offset():
    sent, stream = _mixed_frames()
    for cut in range(len(stream) + 1):
        parser = wire.FrameParser()
        got = list(parser.feed(stream[:cut]))
        got += parser.feed(stream[cut:])
        assert got == sent, cut


def test_parser_reassembles_frames_fed_one_byte_at_a_time():
    sent, stream = _mixed_frames()
    parser = wire.FrameParser()
    got = []
    for index in range(len(stream)):
        got += parser.feed(stream[index:index + 1])
    assert got == sent
    # Nothing is left over, and more frames may follow.
    assert list(parser.feed(stream)) == sent


def test_parser_yields_the_frames_before_a_bad_one():
    sent, stream = _mixed_frames(count=3)
    parser = wire.FrameParser()
    got = []
    with pytest.raises(ConfigurationError, match="unknown wire tag"):
        for frame in parser.feed(stream + struct.pack(">I", 13)
                                 + _ENVELOPE + b"?"):
            got.append(frame)
    assert got == sent


def test_parser_refuses_an_implausible_length():
    parser = wire.FrameParser()
    with pytest.raises(ConfigurationError, match="exceeds bound"):
        list(parser.feed(struct.pack(">I", wire._MAX_FRAME + 1)))
