"""Wire format for the asyncio transport: one compiled layout per message.

A frame is a fixed ``struct`` envelope followed by the payload::

    >I  length   bytes that follow the length field (envelope rest + payload)
    >i  src      sending process id
    >i  dst      destination process id
    >I  size     accounted payload bytes (Table 1 bandwidth)
    ... payload

A registered message (every class in :mod:`repro.core.messages`) is
``M``, its ``>I`` class key (the CRC32 of its class name, so the format
does not depend on registration order), then one ``struct`` over its
fields, compiled once by :func:`register_wire_type` from their declared
types::

    escaped   >B (>H, >I, >Q past 8, 16, 32 fields): bit i set means
              field i rides in the tail and its slot is zeros (a
              bytes length is -1)
    per field, in declaration order:
      int                       >q
      bool                      >?
      Timestamp (or Optional)   >b present, >b kind, >q time, >i process id
      bytes (or Optional)       >i length, -1 for None
      frozenset (of pids)       >Q bitmask of the members
      any other type            no slot: always in the tail
    then each bytes field's bytes, in field order
    then the tail: each escaped field's value, tagged (repro.codec)

A value its slot cannot hold exactly — the wrong type (``True`` in an
int field, a str anywhere), an int past 64 bits, a fractional clock, a
pid outside 0..63 — escapes into the tail, so every message keeps this
one form and a builtin value still round-trips exactly (a subclass
comes back as the builtin it extends).  Encoding a message is one
``struct`` pack and decoding one ``unpack_from``; the instance is built
as ``copy`` and ``pickle`` build one (``cls.__new__`` and the field
dict, no ``__init__``).

Any other payload is one value of :mod:`repro.codec` (whose tag table
is also the stable store's record format), plus three kinds only the
wire carries: ``S`` frozenset and ``L`` list (``>I`` count + the
members, tagged; a set sorted), and ``M`` a nested registered message
in the form above.  Every decode failure — unknown tag or class key,
truncated header, a bytes length past the frame end, trailing bytes, a
length above the sanity bound — raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import dataclasses
import struct
import typing
import zlib
from types import MemberDescriptorType
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

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
#: The route, then a message's ``M`` tag and class key.
_HEAD = struct.Struct(">iiIBI")
_MAX_FRAME = 64 * 1024 * 1024  # sanity bound; a stripe is ~KBs

_pack_count = struct.Struct(">cI").pack
_unpack_count = struct.Struct(">I").unpack_from

_T_SET, _T_LIST, _T_MESSAGE = b"SLM"

_Frame = Tuple[ProcessId, ProcessId, Any, int]

#: Message class name -> class (the public view of the registry).
_REGISTRY: Dict[str, Type] = {}
#: Class -> its compiled ``encode(message, src, dst, size) -> frame``.
_ENCODERS: Dict[type, Callable[..., bytes]] = {}
#: Class key -> its compiled ``decode(data, pos, end) -> (message, end)``.
_DECODERS: Dict[int, Callable[..., Tuple[Any, int]]] = {}
#: Class key -> class name, to refuse a CRC32 collision.
_KEYS: Dict[int, str] = {}


# -- layouts -----------------------------------------------------------------

_INT, _BOOL, _STAMP, _BLOB, _PIDS, _TAGGED = range(6)

#: The slot format of each field kind (``_TAGGED`` has none).
_SLOT_FORMATS = {
    _INT: "q", _BOOL: "?", _STAMP: "bbqi", _BLOB: "i", _PIDS: "Q",
    _TAGGED: "",
}


def _field_kind(hint: Any) -> int:
    if hint is int:
        return _INT
    if hint is bool:
        return _BOOL
    if hint in (Timestamp, Optional[Timestamp]):
        return _STAMP
    if hint in (bytes, Optional[bytes]):
        return _BLOB
    if hint is frozenset or typing.get_origin(hint) is frozenset:
        return _PIDS
    return _TAGGED


def _pid_mask(pids: frozenset) -> Optional[int]:
    """The bitmask of ``pids``, or None if one is not an int in 0..63."""
    mask = 0
    for pid in pids:
        if type(pid) is not int or not 0 <= pid < 64:
            return None
        mask |= 1 << pid
    return mask


def _pid_set(mask: int) -> frozenset:
    pids = []
    while mask:
        low = mask & -mask
        pids.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(pids)


class _Layout:
    """One message class's compiled wire form.

    ``encode`` and ``decode`` are generated once, as straight-line code
    over the class's fields (the way :mod:`dataclasses` generates
    ``__init__``); the escape paths they call are the methods here.
    """

    def __init__(self, cls: Type, key: int) -> None:
        fields = dataclasses.fields(cls)
        if len(fields) > 64:
            raise ConfigurationError(
                f"wire types have at most 64 fields, {cls.__name__} "
                f"has {len(fields)}"
            )
        try:
            hints = typing.get_type_hints(cls)
        except (NameError, TypeError):
            # A forward reference that does not resolve: those fields
            # ride in the tail.
            hints = {}
        self.cls = cls
        self.names = [field.name for field in fields]
        self.kinds = [_field_kind(hints.get(name)) for name in self.names]
        count = len(fields)
        body = (
            "B" if count <= 8 else "H" if count <= 16
            else "I" if count <= 32 else "Q"
        ) + "".join(_SLOT_FORMATS[kind] for kind in self.kinds)
        #: The whole frame up to the bytes fields' bytes.
        self.frame = struct.Struct(">IiiIBI" + body)
        #: The message's part of it, as it follows ``M`` and the key.
        self.header = struct.Struct(">" + body)
        # (bit, first pack argument, last + 1, its slot's struct) per
        # field with a slot, to find the one a failed pack choked on.
        # The arguments start with length, src, dst, size, the tag,
        # the key and the mask.
        self._slots: List[Tuple[int, int, int, struct.Struct]] = []
        arg = 7
        for index, kind in enumerate(self.kinds):
            width = len(_SLOT_FORMATS[kind])
            if width:
                self._slots.append((1 << index, arg, arg + width,
                                    struct.Struct(">" + _SLOT_FORMATS[kind])))
            arg += width
        namespace = {
            "cls": cls,
            "new": cls.__new__,
            "setattr_": object.__setattr__,
            "Timestamp": Timestamp,
            "new_stamp": tuple.__new__,
            "pid_mask": _pid_mask,
            "pid_set": _pid_set,
            "pack": self.frame.pack,
            "unpack_from": self.header.unpack_from,
            "struct_error": struct.error,
            "ConfigurationError": ConfigurationError,
            "retry": self._retry,
            "tail_of": self._tail_of,
            "untail": self._untail,
        }
        exec(self._encoder_source(key) + self._decoder_source(), namespace)
        self.encode: Callable[..., bytes] = namespace["encode"]
        self.decode: Callable[..., Tuple[Any, int]] = namespace["decode"]

    # -- code generation ---------------------------------------------------

    def _encoder_source(self, key: int) -> str:
        always = sum(
            1 << index for index, kind in enumerate(self.kinds)
            if kind == _TAGGED
        )
        lines = [
            "def encode(message, src, dst, size, force=0):",
            f"    escaped = force | {always}" if always else
            "    escaped = force",
        ]
        args: List[str] = []
        blobs: List[str] = []
        for index, (name, kind) in enumerate(zip(self.names, self.kinds)):
            bit, value = 1 << index, f"v{index}"
            if kind == _TAGGED:
                continue
            lines.append(f"    {value} = message.{name}")
            if kind in (_INT, _BOOL):
                lines += [
                    f"    if type({value}) is not "
                    f"{'int' if kind == _INT else 'bool'} or force & {bit}:",
                    f"        escaped |= {bit}",
                    f"        {value} = 0",
                ]
                args.append(value)
            elif kind == _STAMP:
                slot = [f"p{index}", f"k{index}", f"t{index}", f"i{index}"]
                lines += [
                    f"    if type({value}) is Timestamp "
                    f"and not force & {bit}:",
                    f"        p{index} = 1",
                    f"        k{index}, t{index}, i{index} = {value}",
                    "    else:",
                    f"        {' = '.join(slot)} = 0",
                    f"        if {value} is not None:",
                    f"            escaped |= {bit}",
                ]
                args += slot
            elif kind == _BLOB:
                lines += [
                    f"    if type({value}) is bytes and not force & {bit}:",
                    f"        n{index} = len({value})",
                    "    else:",
                    f"        n{index} = -1",
                    f"        if {value} is not None:",
                    f"            escaped |= {bit}",
                ]
                args.append(f"n{index}")
                blobs.append(str(index))
            else:  # _PIDS
                lines += [
                    f"    m{index} = pid_mask({value}) "
                    f"if type({value}) is frozenset and not force & {bit} "
                    "else None",
                    f"    if m{index} is None:",
                    f"        escaped |= {bit}",
                    f"        m{index} = 0",
                ]
                args.append(f"m{index}")
        lines += [
            "    tail = tail_of(message, escaped) if escaped else b''",
            f"    length = {self.frame.size - _LENGTH.size} + len(tail)",
        ]
        for index in blobs:
            lines.append(f"    if n{index} > 0: length += n{index}")
        lines += [
            "    args = (length, src, dst, size, "
            f"{_T_MESSAGE}, {key}, escaped, {', '.join(args)})",
            "    try:",
            "        head = pack(*args)",
            "    except struct_error:",
            "        return retry(message, src, dst, size, args)",
        ]
        if blobs:
            lines.append("    pieces = [head]")
            for index in blobs:
                lines.append(
                    f"    if n{index} > 0: pieces.append(v{index})"
                )
            lines += [
                "    if tail: pieces.append(tail)",
                "    return b''.join(pieces)",
            ]
        else:
            lines.append("    return head + tail if tail else head")
        return "\n".join(lines) + "\n"

    def _decoder_source(self) -> str:
        name = self.cls.__name__
        unpacked: List[str] = ["escaped"]
        lines = [
            "def decode(data, pos, end):",
            f"    stop = pos + {self.header.size}",
            "    if stop > end:",
            "        raise ConfigurationError("
            f"'malformed wire frame: truncated {name} header')",
        ]
        body: List[str] = []
        # Filling the instance's own dict item by item is the cheapest
        # way to build it (a new dict, or __init__, costs more); a
        # class that keeps a field in ``__slots__`` is set field by
        # field instead.
        slotted = any(
            isinstance(getattr(self.cls, name, None), MemberDescriptorType)
            for name in self.names
        )
        build = [
            "    message = new(cls)",
            "    fields = {}" if slotted else "    fields = message.__dict__",
        ]
        for index, kind in enumerate(self.kinds):
            value = f"v{index}"
            if kind in (_INT, _BOOL):
                unpacked.append(value)
            elif kind == _STAMP:
                unpacked += [f"p{index}", f"k{index}", f"t{index}",
                             f"i{index}"]
                body.append(
                    f"    {value} = new_stamp(Timestamp, (k{index}, "
                    f"t{index}, i{index})) if p{index} else None"
                )
            elif kind == _BLOB:
                unpacked.append(f"n{index}")
                body += [
                    f"    if n{index} < 0:",
                    f"        {value} = None",
                    "    else:",
                    "        start = stop",
                    f"        stop += n{index}",
                    "        if stop > end:",
                    "            raise ConfigurationError("
                    f"'malformed wire frame: {name}.{self.names[index]} "
                    "length past the frame end')",
                    f"        {value} = bytes(data[start:stop])",
                ]
            elif kind == _PIDS:
                unpacked.append(f"m{index}")
                body.append(f"    {value} = pid_set(m{index})")
            else:  # _TAGGED: the tail sets it
                value = "None"
            build.append(f"    fields[{self.names[index]!r}] = {value}")
        lines.append(f"    ({', '.join(unpacked)},) = unpack_from(data, pos)")
        lines += body + build + [
            "    if escaped:",
            "        stop = untail(data, stop, end, escaped, fields)",
        ]
        if slotted:
            lines += [
                "    for name, value in fields.items():",
                "        setattr_(message, name, value)",
            ]
        lines.append("    return message, stop")
        return "\n".join(lines) + "\n"

    # -- escape paths ------------------------------------------------------

    def _retry(self, message: Any, src: ProcessId, dst: ProcessId,
               size: int, args: tuple) -> bytes:
        """The pack failed: escape every slot whose value overflows it."""
        force = 0
        for bit, first, last, slot in self._slots:
            try:
                slot.pack(*args[first:last])
            except struct.error:
                force |= bit
        if not force:
            raise ConfigurationError(
                f"cannot wire-encode envelope ({src}, {dst}, {size})"
            )
        return self.encode(message, src, dst, size, force)

    def _tail_of(self, message: Any, escaped: int) -> bytes:
        """The escaped fields' values, tagged, in field order."""
        pieces: List[bytes] = []
        encode_into(
            [getattr(message, name)
             for index, name in enumerate(self.names)
             if escaped >> index & 1],
            pieces.append,
            _encode_other,
        )
        return b"".join(pieces)

    def _untail(self, data: Any, pos: int, end: int, escaped: int,
                fields: Dict[str, Any]) -> int:
        """Decode the tail into ``fields``; the offset where it ends."""
        if escaped >> len(self.names):
            raise ConfigurationError(
                f"malformed wire frame: {self.cls.__name__} escapes "
                "a field it does not have"
            )
        names = [
            name for index, name in enumerate(self.names)
            if escaped >> index & 1
        ]
        # From real bytes, so a bytes value never comes back as a
        # slice of the caller's buffer type.
        tail = bytes(data[pos:end])
        values, used = decode_values(tail, 0, len(names), _decode_other)
        fields.update(zip(names, values))
        return pos + used


def _class_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def register_wire_type(cls: Type) -> Type:
    """Make a message dataclass encodable/decodable on the wire.

    Usable as a decorator.  Compiles the class's layout from its
    fields' declared types; a field value outside its slot (or of a
    type with no slot) must itself be wire encodable: a codec value, a
    frozenset, a list or another registered dataclass.

    Raises:
        ConfigurationError: ``cls`` is not a dataclass, has more than
            64 fields, or its class key collides with another name's.
    """
    if not dataclasses.is_dataclass(cls) or not isinstance(cls, type):
        raise ConfigurationError(
            f"wire types must be dataclasses, got {cls!r}"
        )
    key = _class_key(cls.__name__)
    taken = _KEYS.get(key)
    if taken is not None and taken != cls.__name__:
        raise ConfigurationError(
            f"wire key {key:#010x} of {cls.__name__} is taken by {taken}"
        )
    layout = _Layout(cls, key)
    _REGISTRY[cls.__name__] = cls
    _KEYS[key] = cls.__name__
    _ENCODERS[cls] = layout.encode
    _DECODERS[key] = layout.decode
    return cls


for _name in dir(_messages):
    _obj = getattr(_messages, _name)
    if isinstance(_obj, type) and dataclasses.is_dataclass(_obj):
        register_wire_type(_obj)


# -- tagged values -----------------------------------------------------------


def _encode_other(value: Any, emit: Emit) -> None:
    """The codec's hook for the wire-only kinds, and :func:`_plain`."""
    kind = type(value)
    encode = _ENCODERS.get(kind)
    if encode is not None:
        # A nested message: its frame without length prefix and route.
        emit(encode(value, 0, 0, 0)[_ENVELOPE.size:])
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


def _unknown_key(key: int) -> ConfigurationError:
    return ConfigurationError(
        f"unknown wire message key {key:#010x}: a malformed frame or "
        "an unregistered type"
    )


def _decode_other(tag: int, data: bytes, pos: int) -> Tuple[Any, int]:
    """The codec's hook for the wire-only tags."""
    if tag == _T_MESSAGE:
        (key,) = _unpack_count(data, pos)
        decoder = _DECODERS.get(key)
        if decoder is None:
            raise _unknown_key(key)
        return decoder(data, pos + 4, len(data))
    if tag == _T_SET or tag == _T_LIST:
        items, pos = decode_values(
            data, pos + 4, _unpack_count(data, pos)[0], _decode_other
        )
        return (frozenset(items) if tag == _T_SET else items), pos
    raise ConfigurationError(f"unknown wire tag {bytes([tag])!r}")


# -- frames ------------------------------------------------------------------


def encode_frame(
    src: ProcessId, dst: ProcessId, payload: Any, size: int = 0
) -> bytes:
    """One message as a length-prefixed frame ready for a socket."""
    encode = _ENCODERS.get(type(payload))
    if encode is not None:
        return encode(payload, src, dst, size)
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


def decode_frame(data: Any, start: int = 0,
                 end: Optional[int] = None) -> _Frame:
    """Inverse of :func:`encode_frame` for one frame body.

    The body is ``data[start:end]`` (the whole of ``data`` by default),
    without the 4-byte length prefix; it is read in place.  Returns
    ``(src, dst, payload, size)``; ``bytes`` fields come back as real
    ``bytes`` objects whatever buffer type ``data`` is.

    Raises:
        ConfigurationError: the body is not one well-formed frame.
    """
    if end is None:
        end = len(data)
    try:
        if end - start >= _HEAD.size:
            src, dst, size, tag, key = _HEAD.unpack_from(data, start)
            if tag == _T_MESSAGE:
                decoder = _DECODERS.get(key)
                if decoder is None:
                    raise _unknown_key(key)
                message, pos = decoder(data, start + _HEAD.size, end)
                if pos != end:
                    raise ConfigurationError(
                        f"{end - pos} trailing bytes after "
                        f"{type(message).__name__}"
                    )
                return src, dst, message, size
        if end - start < _ROUTE.size:
            raise ConfigurationError(
                f"malformed wire frame: {end - start}-byte body"
            )
        src, dst, size = _ROUTE.unpack_from(data, start)
    except (struct.error, IndexError, ValueError, TypeError,
            RecursionError) as error:
        raise ConfigurationError(f"malformed wire frame: {error!r}") from None
    return src, dst, decode(data[start + _ROUTE.size:end], 0,
                            _decode_other), size


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

        Each frame is decoded in place from the carry-over buffer.

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
                frame = decode_frame(buffer, start, end)
                pos = end
                yield frame
        finally:
            del buffer[:pos]
