"""Wire format for the asyncio transport: one tagged binary codec.

A frame is a fixed ``struct`` envelope followed by one tagged value::

    >I  length   bytes that follow the length field (envelope rest + payload)
    >i  src      sending process id
    >i  dst      destination process id
    >I  size     accounted payload bytes (Table 1 bandwidth)
    ... payload  one tagged value

A tagged value is a one-byte tag and its body (all integers big-endian):

=======  ==================  ==========================================
tag      value               body
=======  ==================  ==========================================
``N``    ``None``            —
``T F``  ``True / False``    —
``i``    int (64-bit)        ``>q``
``I``    int (any size)      ``>I`` byte count + signed big-endian bytes
``d``    float               ``>d``
``s``    str                 ``>I`` byte count + UTF-8
``b``    bytes               ``>I`` byte count + the raw bytes
``t``    Timestamp           ``>qqb`` time, process id, kind
``u``    Timestamp           tagged time, process id and kind (a field
                             that is not a 64-bit integer)
``S``    frozenset           ``>I`` count + the sorted members, tagged
``L``    list / tuple        ``>I`` count + the items, tagged
``M``    registered message  ``>B`` name length + class name, then one
                             tagged value per dataclass field, in
                             declaration order (no field names)
=======  ==================  ==========================================

Blocks travel as themselves: a ``bytes`` field is written raw and
sliced back out, never re-encoded.  A message is identified by its
class name, so the format does not depend on registration order; its
field tuple is computed once, at registration.  Every decode failure —
unknown tag, unknown message name, truncated field, trailing bytes, a
length above the sanity bound — raises
:class:`~repro.errors.ConfigurationError`.  There is no text form on the
wire; ``repr(decode_frame(body))`` is the readable one.

The registry is seeded with every dataclass in
:mod:`repro.core.messages`; baselines or extensions with their own
message types add them via :func:`register_wire_type`.
"""

from __future__ import annotations

import dataclasses
import struct
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple, Type

from ..core import messages as _messages
from ..errors import ConfigurationError
from ..timestamps import Timestamp
from ..types import ProcessId

__all__ = [
    "encode_frame",
    "decode_frame",
    "FrameParser",
    "register_wire_type",
]

_LENGTH = struct.Struct(">I")
_ENVELOPE = struct.Struct(">IiiI")
#: The envelope fields that follow the length prefix.
_ROUTE = struct.Struct(">iiI")
_MAX_FRAME = 64 * 1024 * 1024  # sanity bound; a stripe is ~KBs

# One struct per tagged body, tag byte included, so a scalar is a
# single pack on the way out.
_pack_int = struct.Struct(">cq").pack
_pack_float = struct.Struct(">cd").pack
_pack_count = struct.Struct(">cI").pack
_pack_stamp = struct.Struct(">cqqb").pack
_unpack_int = struct.Struct(">q").unpack_from
_unpack_float = struct.Struct(">d").unpack_from
_unpack_count = struct.Struct(">I").unpack_from
_unpack_stamp = struct.Struct(">qqb").unpack_from

_T_NONE, _T_TRUE, _T_FALSE = b"NTF"
_T_INT, _T_BIGINT, _T_FLOAT = b"iId"
_T_STR, _T_BYTES = b"sb"
_T_STAMP, _T_LOOSE_STAMP = b"tu"
_T_SET, _T_LIST, _T_MESSAGE = b"SLM"

_Frame = Tuple[ProcessId, ProcessId, Any, int]

#: Message class name -> class (the public view of the registry).
_REGISTRY: Dict[str, Type] = {}
#: Class -> (its ``M`` tag + name, a getter of its field values).
_ENCODERS: Dict[type, Tuple[bytes, Callable[[Any], Iterable]]] = {}
#: Wire name -> (class, field count).
_DECODERS: Dict[bytes, Tuple[Type, int]] = {}


def register_wire_type(cls: Type) -> Type:
    """Make a message dataclass encodable/decodable on the wire.

    Usable as a decorator.  Field values must themselves be wire
    encodable (scalars, bytes, Timestamps, frozensets, lists, or other
    registered dataclasses).
    """
    if not dataclasses.is_dataclass(cls):
        raise ConfigurationError(
            f"wire types must be dataclasses, got {cls!r}"
        )
    name = cls.__name__.encode("utf-8")
    if len(name) > 255:
        raise ConfigurationError(f"wire type name too long: {cls.__name__}")
    names = [field.name for field in dataclasses.fields(cls)]
    _REGISTRY[cls.__name__] = cls
    _ENCODERS[cls] = (b"M" + bytes([len(name)]) + name, _values_getter(names))
    _DECODERS[name] = (cls, len(names))
    return cls


def _values_getter(names: List[str]) -> Callable[[Any], Iterable]:
    """``message -> its field values``, in one C call where possible."""
    if len(names) >= 2:
        return attrgetter(*names)
    # attrgetter with one name returns the bare value, with none it
    # refuses to be built.
    return lambda message: [getattr(message, name) for name in names]


for _name in dir(_messages):
    _obj = getattr(_messages, _name)
    if isinstance(_obj, type) and dataclasses.is_dataclass(_obj):
        register_wire_type(_obj)


def _encode_values(values: Iterable, emit: Callable[[bytes], None]) -> None:
    """Emit the pieces of each value's tagged form, in order.

    Dispatch is on the exact type (so ``bool`` never reads as ``int``
    and a Timestamp, itself a tuple, never as a list);
    anything else goes through :func:`_plain` first.
    """
    for value in values:
        kind = type(value)
        if kind is int:
            try:
                emit(_pack_int(b"i", value))
            except struct.error:
                body = value.to_bytes(
                    value.bit_length() // 8 + 1, "big", signed=True
                )
                emit(_pack_count(b"I", len(body)))
                emit(body)
        elif value is None:
            emit(b"N")
        elif kind is bool:
            emit(b"T" if value else b"F")
        elif kind is bytes:
            emit(_pack_count(b"b", len(value)))
            emit(value)
        elif kind is Timestamp:
            try:
                emit(_pack_stamp(
                    b"t", value.time, value.process_id, value.kind
                ))
            except struct.error:
                emit(b"u")
                _encode_values(
                    (value.time, value.process_id, value.kind), emit
                )
        elif kind in _ENCODERS:
            head, values_of = _ENCODERS[kind]
            emit(head)
            _encode_values(values_of(value), emit)
        elif kind is str:
            body = value.encode("utf-8")
            emit(_pack_count(b"s", len(body)))
            emit(body)
        elif kind is float:
            emit(_pack_float(b"d", value))
        elif kind is frozenset:
            emit(_pack_count(b"S", len(value)))
            _encode_values(sorted(value), emit)
        elif kind is list:
            emit(_pack_count(b"L", len(value)))
            _encode_values(value, emit)
        else:
            _encode_values((_plain(value),), emit)


def _plain(value: Any) -> Any:
    """A value of a type :func:`_encode_values` has no branch for, as
    the exact builtin it extends — or the refusal the caller acts on."""
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, Timestamp):
        return Timestamp(value.time, value.process_id, value.kind)
    if isinstance(value, (list, tuple)):
        return list(value)
    for base in (int, float, str, frozenset):
        if isinstance(value, base):
            return base(value)
    name = type(value).__name__
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise ConfigurationError(
            f"{name} is not wire-registered; call register_wire_type"
        )
    raise ConfigurationError(f"cannot wire-encode {name}")


def encode_frame(
    src: ProcessId, dst: ProcessId, payload: Any, size: int = 0
) -> bytes:
    """One message as a length-prefixed frame ready for a socket."""
    parts: List[bytes] = [b""]
    _encode_values((payload,), parts.append)
    length = _ROUTE.size + sum(map(len, parts))
    try:
        parts[0] = _ENVELOPE.pack(length, src, dst, size)
    except struct.error as error:
        raise ConfigurationError(
            f"cannot wire-encode envelope ({src}, {dst}, {size}): {error}"
        ) from None
    return b"".join(parts)


def _decode_values(data: bytes, pos: int, count: int) -> Tuple[List, int]:
    """``count`` consecutive tagged values from ``data[pos:]``, and the
    offset where they end."""
    values: List[Any] = []
    append = values.append
    for _ in range(count):
        tag = data[pos]
        pos += 1
        if tag == _T_INT:
            append(_unpack_int(data, pos)[0])
            pos += 8
        elif tag == _T_NONE:
            append(None)
        elif tag == _T_TRUE:
            append(True)
        elif tag == _T_FALSE:
            append(False)
        elif tag == _T_STAMP:
            append(Timestamp(*_unpack_stamp(data, pos)))
            pos += 17
        elif tag == _T_BYTES or tag == _T_STR or tag == _T_BIGINT:
            start = pos + 4
            pos = start + _unpack_count(data, pos)[0]
            if pos > len(data):
                raise ConfigurationError("truncated wire field")
            body = data[start:pos]
            if tag == _T_STR:
                body = body.decode("utf-8")
            elif tag == _T_BIGINT:
                body = int.from_bytes(body, "big", signed=True)
            append(body)
        elif tag == _T_MESSAGE:
            start = pos + 1
            pos = start + data[pos]
            entry = _DECODERS.get(data[start:pos])
            if entry is None:
                name = data[start:pos].decode("utf-8", "replace")
                raise ConfigurationError(f"unknown wire message type {name!r}")
            fields, pos = _decode_values(data, pos, entry[1])
            append(entry[0](*fields))
        elif tag == _T_SET or tag == _T_LIST:
            items, pos = _decode_values(
                data, pos + 4, _unpack_count(data, pos)[0]
            )
            append(frozenset(items) if tag == _T_SET else items)
        elif tag == _T_FLOAT:
            append(_unpack_float(data, pos)[0])
            pos += 8
        elif tag == _T_LOOSE_STAMP:
            fields, pos = _decode_values(data, pos, 3)
            append(Timestamp(*fields))
        else:
            raise ConfigurationError(f"unknown wire tag {bytes([tag])!r}")
    return values, pos


def decode_frame(data: bytes) -> _Frame:
    """Inverse of :func:`encode_frame` for a complete frame body.

    ``data`` excludes the 4-byte length prefix.  Returns
    ``(src, dst, payload, size)``; ``bytes`` fields come back as real
    ``bytes`` objects whatever buffer type ``data`` is.

    Raises:
        ConfigurationError: the body is not one well-formed frame.
    """
    data = bytes(data)
    try:
        src, dst, size = _ROUTE.unpack_from(data)
        (payload,), end = _decode_values(data, _ROUTE.size, 1)
    except ConfigurationError:
        raise
    except (struct.error, IndexError, ValueError, TypeError,
            RecursionError) as error:
        # Short buffers, undecodable text, unhashable set members, a
        # runaway nesting depth: all just a malformed frame.
        raise ConfigurationError(f"malformed wire frame: {error!r}") from None
    if end != len(data):
        raise ConfigurationError(
            f"{len(data) - end} trailing bytes after wire payload"
        )
    return src, dst, payload, size


class FrameParser:
    """Reassemble frames from a byte stream that splits them anywhere.

    One per connection: :meth:`feed` it whatever the socket returned
    and iterate the frames that chunk completed; a partial frame stays
    in the carry-over buffer until the rest arrives.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> Iterator[_Frame]:
        """Yield ``(src, dst, payload, size)`` per frame now complete.

        Raises:
            ConfigurationError: on an implausible frame length or an
                undecodable body (desync / garbage on the port); the
                frames before it have been yielded.
        """
        buffer = self._buffer
        buffer += chunk
        available = len(buffer)
        pos = 0
        try:
            while available - pos >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer, pos)
                if length > _MAX_FRAME:
                    raise ConfigurationError(
                        f"frame length {length} exceeds bound"
                    )
                start = pos + _LENGTH.size
                end = start + length
                if end > available:
                    break
                # Through the module global, so an interposed
                # decode_frame sees every frame.
                frame = decode_frame(buffer[start:end])
                pos = end
                yield frame
        finally:
            del buffer[:pos]
