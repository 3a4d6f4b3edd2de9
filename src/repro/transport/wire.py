"""Wire format for the asyncio transport: one fixed layout per message.

Only protocol messages travel.  A frame is a fixed ``struct`` envelope,
then the message::

    >I  length   bytes that follow the length field (envelope rest + message)
    >i  src      sending process id
    >i  dst      destination process id
    >I  size     accounted payload bytes (Table 1 bandwidth)
    >B  tag      ``M``
    >I  key      the CRC32 of the class name, so the format does not
                 depend on registration order
    per field, in declaration order:
      int                       >q
      bool                      >?
      Timestamp (or Optional)   >b present, >b kind, >q time, >i process id
      bytes (or Optional)       >i length, -1 for None
      frozenset (of pids)       >Q bitmask of the members
    then each bytes field's bytes, in field order

Every class in :mod:`repro.core.messages` is registered at import;
:func:`register_wire_type` compiles the layout of a dataclass once, from
its fields' declared types.  Encoding a message is one ``struct`` pack
and decoding one ``unpack_from``; the instance is built as ``copy`` and
``pickle`` build one (``cls.__new__`` and the field dict, no
``__init__``), and every field comes back with the exact type it was
sent with.

Everything else is refused with
:class:`~repro.errors.ConfigurationError`: on encode, an unregistered
payload or a value its slot cannot hold (the wrong type, an int past 64
bits, a fractional clock, a frozenset member outside 0..63); on decode,
an unknown tag or class key, a truncated header, a bytes length past
the frame end, trailing bytes and a frame length above the sanity bound.
"""

from __future__ import annotations

import dataclasses
import struct
import typing
import zlib
from types import MemberDescriptorType
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

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
#: The envelope after the length prefix, then the ``M`` tag and class key.
_HEAD = struct.Struct(">iiIBI")
_MAX_FRAME = 64 * 1024 * 1024  # sanity bound; a stripe is ~KBs

_T_MESSAGE = ord("M")

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

#: Each field kind is its slot's ``struct`` format.
_INT, _BOOL, _STAMP, _BLOB, _PIDS = "q", "?", "bbqi", "i", "Q"


def _slot(cls: Type, name: str, hint: Any) -> str:
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
    raise ConfigurationError(
        f"{cls.__name__}.{name}: no wire slot for type {hint!r}"
    )


def _pid_mask(pids: Any) -> int:
    """The bitmask of a frozenset of pids in 0..63; -1, which no ``>Q``
    slot holds, for anything else."""
    if type(pids) is not frozenset:
        return -1
    mask = 0
    for pid in pids:
        if type(pid) is not int or not 0 <= pid < 64:
            return -1
        mask |= 1 << pid
    return mask


def _pid_set(mask: int) -> frozenset:
    pids = []
    while mask:
        low = mask & -mask
        pids.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(pids)


def _refused(message: Any, src: Any, dst: Any,
             size: Any) -> ConfigurationError:
    return ConfigurationError(
        f"cannot wire-encode {type(message).__name__} ({src} -> {dst}, "
        f"size {size}): a value outside its slot"
    )


class _Layout:
    """One message class's compiled wire form.

    ``encode`` and ``decode`` are generated once, as straight-line code
    over the class's fields (the way :mod:`dataclasses` generates
    ``__init__``).
    """

    def __init__(self, cls: Type, key: int) -> None:
        try:
            hints = typing.get_type_hints(cls)
        except (NameError, TypeError) as error:
            raise ConfigurationError(
                f"{cls.__name__}'s field types do not resolve: {error}"
            ) from None
        self.cls = cls
        self.names = [field.name for field in dataclasses.fields(cls)]
        self.kinds = [_slot(cls, name, hints.get(name)) for name in self.names]
        body = "".join(self.kinds)
        #: The whole frame up to the bytes fields' bytes.
        self.frame = struct.Struct(">IiiIBI" + body)
        #: The message's part of it, as it follows ``M`` and the key.
        self.header = struct.Struct(">" + body)
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
            "refused": _refused,
        }
        exec(self._encoder_source(key) + self._decoder_source(), namespace)
        self.encode: Callable[..., bytes] = namespace["encode"]
        self.decode: Callable[..., Tuple[Any, int]] = namespace["decode"]

    # -- code generation ---------------------------------------------------

    def _encoder_source(self, key: int) -> str:
        lines = ["def encode(message, src, dst, size):", "    try:"]
        args: List[str] = []
        exact: List[str] = []
        blobs: List[str] = []
        for index, (name, kind) in enumerate(zip(self.names, self.kinds)):
            value = f"v{index}"
            lines.append(f"        {value} = message.{name}")
            if kind in (_INT, _BOOL):
                exact.append(
                    f"type({value}) is not {'int' if kind == _INT else 'bool'}"
                )
                args.append(value)
            elif kind == _STAMP:
                slot = [f"p{index}", f"k{index}", f"t{index}", f"i{index}"]
                lines += [
                    f"        if type({value}) is Timestamp:",
                    f"            p{index} = 1",
                    f"            k{index}, t{index}, i{index} = {value}",
                    f"        elif {value} is None:",
                    f"            {' = '.join(slot)} = 0",
                    "        else:",
                    "            raise TypeError",
                ]
                args += slot
            elif kind == _BLOB:
                lines += [
                    f"        if type({value}) is bytes:",
                    f"            n{index} = len({value})",
                    f"        elif {value} is None:",
                    f"            n{index} = -1",
                    "        else:",
                    "            raise TypeError",
                ]
                args.append(f"n{index}")
                blobs.append(str(index))
            else:  # _PIDS
                args.append(f"pid_mask({value})")
        if exact:
            lines.append(f"        if {' or '.join(exact)}:")
            lines.append("            raise TypeError")
        lines.append(f"        length = {self.frame.size - _LENGTH.size}")
        for index in blobs:
            lines.append(f"        if n{index} > 0: length += n{index}")
        lines += [
            "        head = pack(length, src, dst, size, "
            f"{_T_MESSAGE}, {key}{''.join(', ' + arg for arg in args)})",
            "    except (struct_error, TypeError):",
            "        raise refused(message, src, dst, size) from None",
        ]
        if blobs:
            lines.append("    pieces = [head]")
            for index in blobs:
                lines.append(
                    f"    if n{index} > 0: pieces.append(v{index})"
                )
            lines.append("    return b''.join(pieces)")
        else:
            lines.append("    return head")
        return "\n".join(lines) + "\n"

    def _decoder_source(self) -> str:
        name = self.cls.__name__
        unpacked: List[str] = []
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
            else:  # _PIDS
                unpacked.append(f"m{index}")
                body.append(f"    {value} = pid_set(m{index})")
            build.append(f"    fields[{self.names[index]!r}] = {value}")
        if unpacked:
            lines.append(
                f"    ({', '.join(unpacked)},) = unpack_from(data, pos)"
            )
        lines += body + build
        if slotted:
            lines += [
                "    for name, value in fields.items():",
                "        setattr_(message, name, value)",
            ]
        lines.append("    return message, stop")
        return "\n".join(lines) + "\n"


def _class_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def register_wire_type(cls: Type) -> Type:
    """Make a message dataclass encodable/decodable on the wire.

    Usable as a decorator.  Compiles the class's layout from its
    fields' declared types (see the module docstring for the slots).

    Raises:
        ConfigurationError: ``cls`` is not a dataclass, its field types
            do not resolve, one has no slot, or its class key collides
            with another name's.
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


# -- frames ------------------------------------------------------------------


def encode_frame(
    src: ProcessId, dst: ProcessId, payload: Any, size: int = 0
) -> bytes:
    """One message as a length-prefixed frame ready for a socket.

    Raises:
        ConfigurationError: ``payload`` is not a registered message, or
            a field (or the envelope) holds a value outside its slot.
    """
    encode = _ENCODERS.get(type(payload))
    if encode is None:
        raise ConfigurationError(
            f"cannot wire-encode {type(payload).__name__}: not a "
            "registered message (see register_wire_type)"
        )
    return encode(payload, src, dst, size)


def decode_frame(data: Any, start: int = 0,
                 end: Optional[int] = None) -> _Frame:
    """Inverse of :func:`encode_frame` for one frame body.

    The body is ``data[start:end]`` (the whole of ``data`` by default),
    without the 4-byte length prefix; it is read in place.  Returns
    ``(src, dst, message, size)``; ``bytes`` fields come back as real
    ``bytes`` objects whatever buffer type ``data`` is.

    Raises:
        ConfigurationError: the body is not one well-formed frame.
    """
    if end is None:
        end = len(data)
    if end - start < _HEAD.size:
        raise ConfigurationError(
            f"malformed wire frame: truncated {end - start}-byte header"
        )
    src, dst, size, tag, key = _HEAD.unpack_from(data, start)
    if tag != _T_MESSAGE:
        raise ConfigurationError(f"unknown wire tag {bytes([tag])!r}")
    decoder = _DECODERS.get(key)
    if decoder is None:
        raise ConfigurationError(
            f"unknown wire message key {key:#010x}: a malformed frame or "
            "an unregistered type"
        )
    message, pos = decoder(data, start + _HEAD.size, end)
    if pos != end:
        raise ConfigurationError(
            f"{end - pos} trailing bytes after {type(message).__name__}"
        )
    return src, dst, message, size


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
        """Yield ``(src, dst, message, size)`` per frame now complete.

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
