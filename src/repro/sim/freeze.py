"""Structural-sharing value freezing for the copy-on-write stable store.

The seed implementation of :class:`~repro.sim.node.StableStore` deep-copied
every value on every ``store`` *and* ``load`` to guard against aliasing
(mutating an in-memory value must never retroactively change "disk").
That guard is correct but O(value) in Python-object churn on the hottest
path in the simulator: every replica log mutation persists the whole log.

This module provides the cheap equivalent:

* :func:`freeze` converts a value into an immutable *snapshot*.  Known
  immutable types (``bytes``, ``str``, numbers, :class:`Timestamp`,
  registered sentinels like the log's ``⊥``) are shared by reference —
  zero copies.  Containers are rebuilt once into immutable frozen forms
  whose elements are themselves frozen.  Unknown mutable types fall back
  to a pickle round-trip, preserving the old semantics.
* :func:`thaw` reconstructs a fresh, mutation-safe value from a snapshot.
  Because snapshot internals are immutable, a thawed container is a
  shallow rebuild — mutating it (or its thawed children) cannot reach
  the snapshot.

``freeze`` also returns an approximate persisted size and the number of
payload bytes that were *physically copied* (buffer duplication or
pickling), which the stable store aggregates into the ``size_bytes`` /
``bytes_copied`` counters.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, Tuple

from ..timestamps import Timestamp

__all__ = [
    "freeze",
    "thaw",
    "estimate_size",
    "fingerprint",
    "flip_bit",
    "register_immutable",
]

#: Types shared by reference on freeze: immutable, and immutable all the
#: way down.  (Tuples/frozensets are handled structurally because they may
#: contain mutable elements.)
_ATOM_TYPES = {
    type(None): 4,
    bool: 4,
    int: 12,
    float: 16,
    complex: 24,
    str: None,  # sized by length
    bytes: None,  # sized by length
    Timestamp: 48,
}

#: Extra immutable leaf types registered by other layers (e.g. the
#: replica log registers its ⊥ sentinel).  Maps type -> size estimate.
_REGISTERED: dict = {}

_BYTES_OVERHEAD = 33  # approximate pickle overhead for a bytes object
_CONTAINER_OVERHEAD = 8


def register_immutable(tp: type, size: int = 8) -> None:
    """Declare ``tp`` instances immutable leaves for :func:`freeze`.

    Instances pass through freeze/thaw by reference (identity is
    preserved — required for sentinel values compared with ``is``).
    """
    _REGISTERED[tp] = size


class _FrozenTuple:
    """A tuple whose elements needed freezing."""

    __slots__ = ("items",)

    def __init__(self, items: tuple) -> None:
        self.items = items


class _FrozenList:
    """Snapshot of a ``list``: an immutable tuple of frozen elements."""

    __slots__ = ("items",)

    def __init__(self, items: tuple) -> None:
        self.items = items


class _FrozenDict:
    """Snapshot of a ``dict``: a tuple of (key, frozen-value) pairs."""

    __slots__ = ("items",)

    def __init__(self, items: tuple) -> None:
        self.items = items


class _FrozenSet:
    """Snapshot of a ``set`` of immutable elements."""

    __slots__ = ("items",)

    def __init__(self, items: frozenset) -> None:
        self.items = items


class _FrozenByteArray:
    """Snapshot of a ``bytearray`` (content copied once into bytes)."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


class _FrozenPickle:
    """Fallback snapshot for unknown types: a pickle blob."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


def _atom_size(value: Any, base: Any) -> int:
    if base is None:  # str / bytes: sized by content
        return len(value) + _BYTES_OVERHEAD
    return base


def freeze(value: Any) -> Tuple[Any, int, int]:
    """Snapshot ``value``; returns ``(frozen, size_estimate, bytes_copied)``.

    ``frozen`` shares immutable structure with ``value`` wherever
    possible; later mutation of ``value`` cannot affect it.
    """
    tp = type(value)
    base = _ATOM_TYPES.get(tp)
    if base is not None or tp in (str, bytes):
        return value, _atom_size(value, base), 0
    reg = _REGISTERED.get(tp)
    if reg is not None:
        return value, reg, 0
    if tp is tuple:
        frozen_items = []
        size = _CONTAINER_OVERHEAD
        copied = 0
        unchanged = True
        for item in value:
            frozen, item_size, item_copied = freeze(item)
            if frozen is not item:
                unchanged = False
            frozen_items.append(frozen)
            size += item_size
            copied += item_copied
        if unchanged:
            return value, size, copied
        return _FrozenTuple(tuple(frozen_items)), size, copied
    if tp is list:
        frozen_items = []
        size = _CONTAINER_OVERHEAD
        copied = 0
        for item in value:
            frozen, item_size, item_copied = freeze(item)
            frozen_items.append(frozen)
            size += item_size
            copied += item_copied
        return _FrozenList(tuple(frozen_items)), size, copied
    if tp is dict:
        pairs = []
        size = _CONTAINER_OVERHEAD
        copied = 0
        simple_keys = True
        for key, item in value.items():
            frozen_key, key_size, key_copied = freeze(key)
            if frozen_key is not key:
                # Keys must stay hashable-by-value; a mutable key means
                # the dict as a whole takes the pickle fallback.
                simple_keys = False
                break
            frozen_val, val_size, val_copied = freeze(item)
            pairs.append((frozen_key, frozen_val))
            size += key_size + val_size
            copied += key_copied + val_copied
        if simple_keys:
            return _FrozenDict(tuple(pairs)), size, copied
    if tp is bytearray:
        data = bytes(value)
        return _FrozenByteArray(data), len(data) + _BYTES_OVERHEAD, len(data)
    if tp in (set, frozenset):
        frozen_items = []
        size = _CONTAINER_OVERHEAD
        copied = 0
        all_hashable = True
        for item in value:
            frozen, item_size, item_copied = freeze(item)
            if frozen is not item:
                # A frozen wrapper is unhashable; fall back below.
                all_hashable = False
                break
            frozen_items.append(frozen)
            size += item_size
            copied += item_copied
        if all_hashable:
            snapshot = frozenset(frozen_items)
            if tp is frozenset:
                return snapshot, size, 0
            return _FrozenSet(snapshot), size, copied
    # Unknown (or unhashable-element) type: pickle round-trip fallback.
    data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return _FrozenPickle(data), len(data), len(data)


def thaw(frozen: Any) -> Any:
    """Rebuild a fresh value from a :func:`freeze` snapshot.

    The result is detached: mutating it can never reach the snapshot,
    because every shared object is immutable.
    """
    tp = type(frozen)
    if tp is _FrozenList:
        return [thaw(item) for item in frozen.items]
    if tp is _FrozenTuple:
        return tuple(thaw(item) for item in frozen.items)
    if tp is _FrozenDict:
        return {thaw(key): thaw(value) for key, value in frozen.items}
    if tp is _FrozenSet:
        return set(frozen.items)
    if tp is _FrozenByteArray:
        return bytearray(frozen.data)
    if tp is _FrozenPickle:
        return pickle.loads(frozen.data)
    if tp is tuple:
        thawed = [thaw(item) for item in frozen]
        if all(new is old for new, old in zip(thawed, frozen)):
            return frozen
        return tuple(thawed)
    return frozen


def _crc_feed(crc: int, frozen: Any) -> int:
    """Fold one frozen node (type tag + content) into a running CRC32."""
    tp = type(frozen)
    if frozen is None:
        return zlib.crc32(b"N", crc)
    if tp is bool:
        return zlib.crc32(b"T" if frozen else b"F", crc)
    if tp is int:
        return zlib.crc32(b"i" + repr(frozen).encode(), crc)
    if tp is float:
        return zlib.crc32(b"f" + repr(frozen).encode(), crc)
    if tp is complex:
        return zlib.crc32(b"c" + repr(frozen).encode(), crc)
    if tp is str:
        return zlib.crc32(b"s" + frozen.encode("utf-8", "surrogatepass"), crc)
    if tp is bytes:
        return zlib.crc32(b"b" + frozen, crc)
    if tp is Timestamp:
        data = repr(frozen).encode()
        return zlib.crc32(b"t" + data, crc)
    if tp is _FrozenTuple:
        crc = zlib.crc32(b"(", crc)
        for item in frozen.items:
            crc = _crc_feed(crc, item)
        return zlib.crc32(b")", crc)
    if tp is tuple:
        crc = zlib.crc32(b"(", crc)
        for item in frozen:
            crc = _crc_feed(crc, item)
        return zlib.crc32(b")", crc)
    if tp is _FrozenList:
        crc = zlib.crc32(b"[", crc)
        for item in frozen.items:
            crc = _crc_feed(crc, item)
        return zlib.crc32(b"]", crc)
    if tp is _FrozenDict:
        crc = zlib.crc32(b"{", crc)
        for key, value in frozen.items:
            crc = _crc_feed(crc, key)
            crc = _crc_feed(crc, value)
        return zlib.crc32(b"}", crc)
    if tp is _FrozenSet or tp is frozenset:
        items = frozen.items if tp is _FrozenSet else frozen
        # Sets are unordered; fold element CRCs order-independently.
        acc = 0
        for item in items:
            acc ^= _crc_feed(0, item)
        return zlib.crc32(b"#" + acc.to_bytes(4, "big"), crc)
    if tp is _FrozenByteArray:
        return zlib.crc32(b"B" + frozen.data, crc)
    if tp is _FrozenPickle:
        return zlib.crc32(b"P" + frozen.data, crc)
    if tp in _REGISTERED:
        # Registered sentinels (e.g. ⊥) are singletons: type identity
        # is their whole content.
        return zlib.crc32(b"R" + tp.__name__.encode(), crc)
    # Unknown immutable leaf admitted by freeze (should not happen).
    return zlib.crc32(b"?" + repr(frozen).encode(), crc)


def fingerprint(frozen: Any) -> int:
    """CRC32 fingerprint of a frozen snapshot's logical content.

    Deterministic across runs (no ``id()``/hash-seed dependence) and
    sensitive to any bit-level change in stored payload bytes — the
    checksum the stable store's corruption envelope is built on.
    """
    return _crc_feed(0, frozen)


def flip_bit(
    frozen: Any, seed: int, bytes_only: bool = False
) -> Tuple[Any, bool]:
    """Rebuild ``frozen`` with one bit flipped in one payload leaf.

    ``seed`` deterministically picks which ``bytes``/``str`` leaf and
    which bit.  Returns ``(mutated_snapshot, True)`` on success, or
    ``(frozen, False)`` when the snapshot holds no flippable payload
    (no bytes/str/pickle content anywhere; with ``bytes_only``, no
    byte-typed payload).  Used by fault injection to model a latent
    sector error: the envelope CRC is *not* updated, so the next
    verified read detects the damage.
    """
    leaves = []

    def collect(node: Any, path: Tuple[int, ...]) -> None:
        tp = type(node)
        if tp in (bytes, str) and len(node) > 0:
            leaves.append((path, node))
        elif tp in (_FrozenByteArray, _FrozenPickle) and len(node.data) > 0:
            leaves.append((path, node))
        elif tp is _FrozenTuple or tp is _FrozenList:
            for i, item in enumerate(node.items):
                collect(item, path + (i,))
        elif tp is tuple:
            for i, item in enumerate(node):
                collect(item, path + (i,))
        elif tp is _FrozenDict:
            for i, (_key, value) in enumerate(node.items):
                collect(value, path + (i,))

    collect(frozen, ())
    # Prefer byte payloads (data blocks — the realistic latent-sector
    # target) over str leaves like journal record tags: flipping a tag
    # makes the record *malformed*, which framing catches even without
    # checksums, whereas payload damage is truly silent.
    byte_leaves = [
        (path, leaf) for path, leaf in leaves if type(leaf) is not str
    ]
    if byte_leaves or bytes_only:
        leaves = byte_leaves
    if not leaves:
        return frozen, False
    path, leaf = leaves[seed % len(leaves)]

    def damage(node: Any) -> Any:
        tp = type(node)
        if tp is bytes:
            data = bytearray(node)
        elif tp is str:
            data = bytearray(node.encode("utf-8", "surrogatepass"))
        else:  # _FrozenByteArray / _FrozenPickle
            data = bytearray(node.data)
        bit = seed % (len(data) * 8)
        data[bit // 8] ^= 1 << (bit % 8)
        if tp is bytes:
            return bytes(data)
        if tp is str:
            # Decode damaged bytes leniently; the point is only that
            # the content (and hence the CRC) changed.
            return bytes(data).decode("utf-8", "replace")
        return tp(bytes(data))

    def rebuild(node: Any, at: Tuple[int, ...]) -> Any:
        if not at:
            return damage(node)
        index, rest = at[0], at[1:]
        tp = type(node)
        if tp is _FrozenTuple or tp is _FrozenList:
            items = list(node.items)
            items[index] = rebuild(items[index], rest)
            return tp(tuple(items))
        if tp is tuple:
            items = list(node)
            items[index] = rebuild(items[index], rest)
            return tuple(items)
        if tp is _FrozenDict:
            pairs = list(node.items)
            key, value = pairs[index]
            pairs[index] = (key, rebuild(value, rest))
            return _FrozenDict(tuple(pairs))
        raise TypeError(f"unexpected node on flip path: {tp!r}")

    return rebuild(frozen, path), True


def estimate_size(value: Any) -> int:
    """Approximate persisted size of ``value`` without copying it."""
    tp = type(value)
    base = _ATOM_TYPES.get(tp)
    if base is not None or tp in (str, bytes):
        return _atom_size(value, base)
    reg = _REGISTERED.get(tp)
    if reg is not None:
        return reg
    if tp in (tuple, list, set, frozenset):
        return _CONTAINER_OVERHEAD + sum(estimate_size(item) for item in value)
    if tp is dict:
        return _CONTAINER_OVERHEAD + sum(
            estimate_size(key) + estimate_size(item)
            for key, item in value.items()
        )
    if tp is bytearray:
        return len(value) + _BYTES_OVERHEAD
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64
