"""Wire format for the asyncio transport: one tagged binary codec.

A frame is a fixed ``struct`` envelope followed by one tagged value::

    >I  length   bytes that follow the length field (envelope rest + payload)
    >i  src      sending process id
    >i  dst      destination process id
    >I  size     accounted payload bytes (Table 1 bandwidth)
    ... payload  one tagged value

The payload is one value of :mod:`repro.codec` (whose tag table is also
the stable store's record format), plus three kinds only the wire
carries: ``S`` frozenset and ``L`` list (``>I`` count + the members,
tagged; a set sorted), and ``M`` a registered message (``>B`` name
length + class name, then its dataclass fields, tagged, in declaration
order).  A message is identified by its class name, so the format does
not depend on registration order.  Every decode failure — unknown tag
or message name, truncated field, trailing bytes, a length above the
sanity bound — raises :class:`~repro.errors.ConfigurationError`.

The registry is seeded with every dataclass in
:mod:`repro.core.messages`; baselines or extensions with their own
message types add them via :func:`register_wire_type`.
"""

from __future__ import annotations

import dataclasses
import struct
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple, Type

from ..codec import Emit, decode, decode_values, encode_into
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

_pack_count = struct.Struct(">cI").pack
_unpack_count = struct.Struct(">I").unpack_from

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
    encodable (codec values, frozensets, lists, or other registered
    dataclasses).
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


def _encode_other(value: Any, emit: Emit) -> None:
    """The codec's hook for the wire-only kinds, and :func:`_plain`."""
    kind = type(value)
    if kind in _ENCODERS:
        head, values_of = _ENCODERS[kind]
        emit(head)
        encode_into(values_of(value), emit, _encode_other)
    elif kind is frozenset:
        emit(_pack_count(b"S", len(value)))
        encode_into(sorted(value), emit, _encode_other)
    elif kind is list:
        emit(_pack_count(b"L", len(value)))
        encode_into(value, emit, _encode_other)
    else:
        encode_into((_plain(value),), emit, _encode_other)


def _plain(value: Any) -> Any:
    """``value`` as the exact builtin it extends, or the refusal."""
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, Timestamp):
        return Timestamp(value.time, value.process_id, value.kind)
    for base in (int, float, str, tuple, list, frozenset):
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
    encode_into((payload,), parts.append, _encode_other)
    length = _ROUTE.size + sum(map(len, parts))
    try:
        parts[0] = _ENVELOPE.pack(length, src, dst, size)
    except struct.error as error:
        raise ConfigurationError(
            f"cannot wire-encode envelope ({src}, {dst}, {size}): {error}"
        ) from None
    return b"".join(parts)


def _decode_other(tag: int, data: bytes, pos: int) -> Tuple[Any, int]:
    """The codec's hook for the wire-only tags."""
    if tag == _T_MESSAGE:
        start = pos + 1
        pos = start + data[pos]
        entry = _DECODERS.get(data[start:pos])
        if entry is None:
            name = data[start:pos].decode("utf-8", "replace")
            raise ConfigurationError(f"unknown wire message type {name!r}")
        fields, pos = decode_values(data, pos, entry[1], _decode_other)
        return entry[0](*fields), pos
    if tag == _T_SET or tag == _T_LIST:
        items, pos = decode_values(
            data, pos + 4, _unpack_count(data, pos)[0], _decode_other
        )
        return (frozenset(items) if tag == _T_SET else items), pos
    raise ConfigurationError(f"unknown wire tag {bytes([tag])!r}")


def decode_frame(data: bytes) -> _Frame:
    """Inverse of :func:`encode_frame` for a complete frame body.

    ``data`` excludes the 4-byte length prefix.  Returns
    ``(src, dst, payload, size)``; ``bytes`` fields come back as real
    ``bytes`` objects whatever buffer type ``data`` is.

    Raises:
        ConfigurationError: the body is not one well-formed frame.
    """
    try:
        src, dst, size = _ROUTE.unpack_from(data)
    except struct.error as error:
        raise ConfigurationError(f"malformed wire frame: {error!r}") from None
    return src, dst, decode(data, _ROUTE.size, _decode_other), size


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
