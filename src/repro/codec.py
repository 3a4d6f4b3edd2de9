"""The value codec: one tagged binary form for sent and stored values.

A value is a one-byte tag and its body (integers big-endian)::

    N  None            T / F  True / False       _  ⊥ (BOTTOM)
    i  int (64-bit)    >q
    I  int (any size)  >I byte count + signed big-endian bytes
    d  float           >d
    s  str             >I byte count + UTF-8 (surrogatepass both ways)
    b  bytes           >I byte count + the raw bytes
    t  Timestamp       >qqb time, process id, kind
    u  Timestamp       tagged time, process id, kind (a field that is
                       not a 64-bit integer)
    (  tuple           >I count + the items, tagged

This is the stable store's record format: ``StableStore`` seals the
encoded bytes, so a record's size is its encoded length and its CRC is
over those bytes.  A value outside the table is refused with
:class:`TypeError` naming its type.  (Messages travel in the fixed
layouts of :mod:`repro.transport.wire`, not in this form.)
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Iterable, List, Tuple

from .errors import ConfigurationError
from .timestamps import Timestamp
from .types import BOTTOM

__all__ = ["encode", "decode"]

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

_T_NONE, _T_TRUE, _T_FALSE, _T_BOTTOM = b"NTF_"
_T_INT, _T_BIGINT, _T_FLOAT, _T_STR, _T_BYTES = b"iIdsb"
_T_STAMP, _T_LOOSE_STAMP, _T_TUPLE = b"tu("


def _encode_into(values: Iterable, emit: Callable[[bytes], None]) -> None:
    """Emit the pieces of each value's tagged form, in order.

    Dispatch is on the exact type (``bool`` never reads as ``int``, a
    Timestamp never as a tuple).
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
            ts_kind, time, process_id = value
            try:
                emit(_pack_stamp(b"t", time, process_id, ts_kind))
            except struct.error:
                emit(b"u")
                _encode_into((time, process_id, ts_kind), emit)
        elif kind is tuple:
            emit(_pack_count(b"(", len(value)))
            _encode_into(value, emit)
        elif kind is str:
            body = value.encode("utf-8", "surrogatepass")
            emit(_pack_count(b"s", len(body)) + body)
        elif kind is float:
            emit(_pack_float(b"d", value))
        elif value is BOTTOM:
            emit(b"_")
        else:
            raise TypeError(
                "records are immutable atoms or tuples of records, "
                f"not {kind.__name__}"
            )


def encode(value: Any) -> List[bytes]:
    """The pieces of ``value``'s tagged form (a ``bytes`` leaf is its
    own piece, never copied); join them for its bytes."""
    pieces: List[bytes] = []
    _encode_into((value,), pieces.append)
    return pieces


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
                raise ConfigurationError("truncated value field")
            body = data[start:pos]
            if tag == _T_STR:
                body = body.decode("utf-8", "surrogatepass")
            elif tag == _T_BIGINT:
                body = int.from_bytes(body, "big", signed=True)
            append(body)
        elif tag == _T_TUPLE:
            items, pos = _decode_values(
                data, pos + 4, _unpack_count(data, pos)[0]
            )
            append(tuple(items))
        elif tag == _T_FLOAT:
            append(_unpack_float(data, pos)[0])
            pos += 8
        elif tag == _T_LOOSE_STAMP:
            fields, pos = _decode_values(data, pos, 3)
            append(Timestamp(*fields))
        elif tag == _T_BOTTOM:
            append(BOTTOM)
        else:
            raise ConfigurationError(f"unknown value tag {bytes([tag])!r}")
    return values, pos


def decode(data: bytes, pos: int = 0) -> Any:
    """The one value that ``data[pos:]`` holds, to its last byte, with
    ``bytes`` as real ``bytes`` whatever buffer ``data`` is.

    Raises:
        ConfigurationError: ``data[pos:]`` is not one well-formed value.
    """
    data = bytes(data)
    try:
        (value,), end = _decode_values(data, pos, 1)
    except ConfigurationError:
        raise
    except (struct.error, IndexError, ValueError, TypeError,
            RecursionError) as error:
        # Short buffers, undecodable text, unhashable set members, a
        # runaway nesting depth: all just a malformed value.
        raise ConfigurationError(f"malformed value: {error!r}") from None
    if end != len(data):
        raise ConfigurationError(f"{len(data) - end} trailing bytes after value")
    return value
