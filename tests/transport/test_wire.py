"""Wire-format round trips for the asyncio transport."""

import dataclasses
import random
import struct
import typing
import zlib

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

TS = Timestamp(12, 3)


def roundtrip(payload, src=1, dst=2, size=64):
    frame = encode_frame(src, dst, payload, size=size)
    out_src, out_dst, out_payload, out_size = decode_frame(frame[4:])
    assert (out_src, out_dst, out_size) == (src, dst, size)
    return out_payload


def test_timestamp_roundtrip_including_sentinels():
    for ts in (TS, LOW_TS, HIGH_TS, Timestamp(0, 0)):
        back = roundtrip(messages.GcReq(0, 1, ts=ts)).ts
        assert isinstance(back, Timestamp)
        assert back == ts
        assert back.kind == ts.kind


def test_every_protocol_message_roundtrips():
    """Each message in repro.core.messages survives encode/decode."""
    samples = [
        messages.ReadReq(0, 7, targets=frozenset({1, 3, 5})),
        messages.ReadReply(0, 7, True, val_ts=TS, block=b"data", corrupt=False),
        messages.OrderReq(1, 8, ts=TS),
        messages.OrderReply(1, 8, True, max_seen=HIGH_TS, corrupt=False),
        messages.OrderReadReq(2, 9, j=0, max_ts=LOW_TS, ts=TS),
        messages.OrderReadReply(2, 9, True, lts=TS, block=b"b" * 64,
                                corrupt=False),
        messages.WriteReq(3, 10, block=b"x" * 16, ts=TS),
        messages.WriteReply(3, 10, True, max_seen=TS),
        messages.ModifyReq(4, 11, j=2, new_block=b"new", delta=None,
                           ts_j=LOW_TS, ts=TS),
        messages.ModifyReq(4, 11, j=2, new_block=None, delta=b"delta",
                           ts_j=LOW_TS, ts=TS),
        messages.ModifyReply(4, 11, True),
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
    assert (back.ts.kind, back.ts.time, back.ts.process_id) == (
        TS.kind, TS.time, TS.process_id
    )


def test_frozenset_targets_roundtrip_as_frozenset():
    back = roundtrip(messages.ReadReq(0, 1, targets=frozenset({2, 4})))
    assert isinstance(back.targets, frozenset)
    assert back.targets == frozenset({2, 4})


def test_register_wire_type_decorator():
    @register_wire_type
    @dataclasses.dataclass(frozen=True)
    class ProbeMsg:
        label: int = 0
        ts: Timestamp = LOW_TS

    back = roundtrip(ProbeMsg(label=5, ts=TS))
    assert back == ProbeMsg(label=5, ts=TS)

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
    assert roundtrip(Lone()) == Lone()
    assert roundtrip(Bare()) == Bare()


def test_slotted_message_roundtrips():
    """A class keeping its fields in ``__slots__`` is built field by
    field."""

    # Explicit ``__slots__`` rather than ``dataclass(slots=True)``,
    # which needs Python 3.10; a slot rules out a class-level default.
    @register_wire_type
    @dataclasses.dataclass(frozen=True)
    class Slotted:
        __slots__ = ("count", "ts")
        count: int
        ts: Timestamp

    for message in (Slotted(3, TS), Slotted(-1, Timestamp(4, 2))):
        back = roundtrip(message)
        assert back == message
        _same_types(back, message)


def test_unknown_message_name_rejected_on_decode():
    # A hand-built body: the (src, dst, size) envelope, then ``M`` and
    # a class key (here b"\tNoS") that no registered name has.
    name = b"NoSuchMsg"
    body = struct.pack(">iiI", 1, 2, 0) + b"M" + bytes([len(name)]) + name
    with pytest.raises(ConfigurationError, match="unknown wire message"):
        decode_frame(body)


def test_unencodable_value_rejected():
    with pytest.raises(ConfigurationError, match="cannot wire-encode"):
        encode_frame(1, 2, object())


def test_out_of_slot_values_and_unregistered_payloads_are_refused():
    """Only registered messages whose values fit their slots travel:
    anything else is refused on encode, and a field type with no slot
    is refused at registration."""

    @dataclasses.dataclass
    class NotOnTheWire:
        x: int = 0

    refused = [
        messages.WriteReq("0", 1, block=b"", ts=TS),  # str in an int field
        messages.WriteReq(2**64, 1, block=b"", ts=TS),
        messages.ReadReq(0, 1, targets=frozenset({64})),
        messages.GcReq(0, 1, ts=Timestamp(12.5, 3)),  # a fractional clock
        NotOnTheWire(),
    ]
    for payload in refused:
        with pytest.raises(ConfigurationError,
                           match=f"cannot wire-encode {type(payload).__name__}"):
            encode_frame(1, 2, payload)

    with pytest.raises(ConfigurationError, match=r"Labelled\.label: no wire slot"):
        register_wire_type(dataclasses.make_dataclass("Labelled", [("label", str)]))
    with pytest.raises(ConfigurationError, match="do not resolve"):
        register_wire_type(dataclasses.make_dataclass("Dangling", [("x", "Nowhere")]))
    assert "Labelled" not in wire._REGISTRY and "Dangling" not in wire._REGISTRY


# -- generated round trips ---------------------------------------------------

_BLOCKS = st.one_of(
    st.binary(max_size=96),
    st.sampled_from([b"", bytes(4096), bytes(range(256)) * 256]),  # 64 KiB
)
_TIMESTAMPS = st.one_of(
    st.sampled_from([LOW_TS, HIGH_TS]),
    st.builds(Timestamp, st.integers(0, 2**62), st.integers(1, 10_000)),
    # Outside the slot: fractional and oversized clock readings.
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
    st.frozensets(st.integers(0, 63), max_size=6),
    st.frozensets(st.integers(1, 2**40), max_size=6),
    st.lists(st.integers(-5, 5), max_size=4),
)


def _same_types(left, right):
    """``==`` lets True pass for 1; the wire must not."""
    assert type(left) is type(right), (left, right)
    if dataclasses.is_dataclass(left):
        for field in dataclasses.fields(left):
            _same_types(getattr(left, field.name), getattr(right, field.name))


def _int_fits(value, bits):
    return type(value) is int and -(2 ** (bits - 1)) <= value < 2 ** (bits - 1)


def _fits(hint, value):
    """Whether the slot of a field declared ``hint`` holds ``value``."""
    if hint in (Timestamp, typing.Optional[Timestamp]):
        return value is None or (
            type(value) is Timestamp and _int_fits(value.time, 64)
            and _int_fits(value.process_id, 32)
        )
    if hint == typing.Optional[bytes]:
        return value is None or type(value) is bytes
    if hint is frozenset:
        return type(value) is frozenset and all(
            type(pid) is int and 0 <= pid < 64 for pid in value
        )
    return type(value) is hint and (hint is bool or _int_fits(value, 64))


@pytest.mark.parametrize("name", sorted(wire._REGISTRY))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_registered_class_roundtrips_generated_fields(name, data):
    """A message with arbitrary field values round-trips exactly when
    every value fits its slot, and is refused otherwise."""
    cls = wire._REGISTRY[name]
    hints = typing.get_type_hints(cls)
    message = cls(**{
        field.name: data.draw(_FIELDS, label=field.name)
        for field in dataclasses.fields(cls)
    })
    src, dst = data.draw(st.integers(-(2**31), 2**31 - 1)), 7
    size = data.draw(st.integers(0, 2**32 - 1))
    if all(_fits(hints[field.name], getattr(message, field.name))
           for field in dataclasses.fields(cls)):
        back = roundtrip(message, src=src, dst=dst, size=size)
        assert back == message
        _same_types(back, message)
    else:
        with pytest.raises(ConfigurationError, match=f"cannot wire-encode {name}"):
            encode_frame(src, dst, message, size)


_SLOT_STAMPS = st.one_of(
    st.none(),
    st.sampled_from([LOW_TS, HIGH_TS]),
    st.builds(Timestamp, st.integers(-(2**63), 2**63 - 1),
              st.integers(-(2**31), 2**31 - 1)),
)
#: Per declared field type, values its fixed slot holds exactly.
_TYPED = {
    int: st.integers(-(2**63), 2**63 - 1),
    bool: st.booleans(),
    Timestamp: _SLOT_STAMPS,
    typing.Optional[Timestamp]: _SLOT_STAMPS,
    typing.Optional[bytes]: st.one_of(st.none(), _BLOCKS),
    frozenset: st.frozensets(st.integers(0, 63), max_size=8),
}


@pytest.mark.parametrize("name", sorted(wire._REGISTRY))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_typed_fields_take_the_compiled_form(name, data):
    """Every message whose values have their fields' declared types
    round-trips exactly, in its class's layout."""
    cls = wire._REGISTRY[name]
    hints = typing.get_type_hints(cls)
    message = cls(**{
        field.name: data.draw(_TYPED[hints[field.name]], label=field.name)
        for field in dataclasses.fields(cls)
    })
    frame = encode_frame(1, 2, message)
    # Length prefix and route, then ``M`` and the class key.
    assert frame[16:21] == b"M" + struct.pack(">I", zlib.crc32(
        name.encode()))
    back = roundtrip(message)
    assert back == message
    _same_types(back, message)


def test_compiled_frames_are_smaller_than_tagged_ones():
    """93 and 4,163 bytes in the tagged form."""
    order_read = messages.OrderReadReq(
        2, 9, j=messages.ALL, max_ts=Timestamp(10**12, 3),
        ts=Timestamp(10**12 + 1, 2),
    )
    assert len(encode_frame(1, 2, order_read)) <= 80
    write = messages.WriteReq(3, 10, block=bytes(4096), ts=Timestamp(7, 3))
    assert len(encode_frame(1, 2, write, 4096)) < 4163


def test_class_key_collision_is_refused():
    """The class key is the CRC32 of the class name; these two names
    share one, so the second cannot register."""
    first, second = "Probe29685295", "Probe32060020"
    assert zlib.crc32(first.encode()) == zlib.crc32(second.encode())
    register_wire_type(dataclasses.make_dataclass(first, []))
    with pytest.raises(ConfigurationError, match="is taken by Probe29685295"):
        register_wire_type(dataclasses.make_dataclass(second, []))


def test_bytes_fields_decode_as_real_bytes_from_any_buffer():
    """No memoryview or bytearray may reach a handler or the store."""
    message = messages.WriteReq(0, 1, block=b"v" * 32, ts=TS)
    body = encode_frame(1, 2, message)[4:]
    for buffer in (bytearray(body), memoryview(body)):
        assert type(decode_frame(buffer)[2].block) is bytes


# -- malformed bodies -----------------------------------------------------

_ENVELOPE = struct.pack(">iiI", 1, 2, 0)
#: A full-length header whose tag is not ``M``.
_BAD_TAG = _ENVELOPE + b"?" + bytes(4)
#: A compiled-layout body whose last bytes are its block's.
_WRITE_BODY = encode_frame(
    1, 2, messages.WriteReq(0, 1, block=b"abc", ts=Timestamp(5, 3))
)[4:]
_GC_KEY = struct.pack(">I", zlib.crc32(b"GcReq"))


@pytest.mark.parametrize("body, complaint", [
    (_BAD_TAG, "unknown wire tag"),
    (_ENVELOPE, "malformed"),
    (b"\x00" * 5, "malformed"),
    (_ENVELOPE + b"M\x07ReadReq" + b"i" + bytes(8), "malformed"),
    (_ENVELOPE + b"M" + _GC_KEY + bytes(5), "truncated GcReq header"),
    (_ENVELOPE + b"M" + struct.pack(">I", 0xDEADBEEF) + bytes(40),
     "unknown wire message key"),
    (_WRITE_BODY[:-1], "WriteReq.block length past the frame end"),
    (_WRITE_BODY + b"\x00", "trailing bytes"),
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
        for frame in parser.feed(stream + struct.pack(">I", len(_BAD_TAG))
                                 + _BAD_TAG):
            got.append(frame)
    assert got == sent


def test_parser_refuses_an_implausible_length():
    parser = wire.FrameParser()
    with pytest.raises(ConfigurationError, match="exceeds bound"):
        list(parser.feed(struct.pack(">I", wire._MAX_FRAME + 1)))
