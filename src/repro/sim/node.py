"""Stable storage for crash-recovery bricks.

:class:`StableStore` is the storage that survives a brick's crash (the
paper's ``store(var)`` primitive, Section 4.2); the brick that owns one
is :class:`~repro.transport.base.Node`.

The module also owns the persisted-record format: what a record is,
how big it is and its checksum (one walk, :func:`_seal`, projected by
:func:`record_size` and :func:`fingerprint`) and its fault-injected bit
rot (:func:`flip_bit`).
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import CorruptionDetected
from ..timestamps import Timestamp
from ..types import BOTTOM

__all__ = ["StableStore", "record_size", "fingerprint", "flip_bit"]


# -- the persisted-record format ------------------------------------------
#
# A record is an atom -- None, bool, int, float, str, bytes, a Timestamp
# or ⊥ -- or a tuple of records: immutable all the way down.  That is
# every value the protocol persists (ord-ts, journal records, LS97's
# (ts, value) pairs), and it lets the store keep the caller's object
# itself: nothing is copied on store or load, and no later mutation of
# live memory can reach "disk".

_BYTES_OVERHEAD = 33  # per str/bytes leaf, on top of its length
_TUPLE_OVERHEAD = 8
_TIMESTAMP_SIZE = 48

#: A Timestamp's CRC content: tag ``t``, then ``(kind, time,
#: process_id)`` packed; a field that does not fit (a float or oversized
#: time) is fed as its ``repr`` under tag ``u``.
_STAMP = struct.Struct(">Bbqq")
_STAMP_TAG = ord("t")
_crc32 = zlib.crc32


def _leaf(record: Any) -> Tuple[int, bytes]:
    """``(size, CRC content)`` of one atom other than ``bytes``."""
    tp = type(record)
    if tp is Timestamp:
        try:
            return _TIMESTAMP_SIZE, _STAMP.pack(
                _STAMP_TAG, record[0], record[1], record[2]
            )
        except struct.error:
            return _TIMESTAMP_SIZE, b"u" + repr(tuple(record)).encode()
    if record is None:
        return 4, b"N"
    if record is BOTTOM:
        return 8, b"R"
    if tp is str:
        return len(record) + _BYTES_OVERHEAD, b"s" + record.encode(
            "utf-8", "surrogatepass"
        )
    if tp is bool:
        return 4, b"T" if record else b"F"
    if tp is int:
        return 12, b"i" + repr(record).encode()
    if tp is float:
        return 16, b"f" + repr(record).encode()
    raise TypeError(
        "stable-store records are immutable atoms or tuples of "
        f"records, not {tp.__name__}"
    )


def _seal_into(record: Any, crc: int) -> Tuple[int, int]:
    """``(size, crc)`` of one record node, folding into running ``crc``.

    ``bytes`` — every journal record's payload — is fed to the CRC
    after its tag, never copied, and a tuple's ``bytes`` items are
    sealed in its loop, without a call each.
    """
    tp = type(record)
    if tp is bytes:
        size = len(record) + _BYTES_OVERHEAD
        return size, _crc32(record, _crc32(b"b", crc))
    if tp is not tuple:
        size, content = _leaf(record)
        return size, _crc32(content, crc)
    size = _TUPLE_OVERHEAD
    crc = _crc32(b"(", crc)
    for item in record:
        tp = type(item)
        if tp is bytes:
            size += len(item) + _BYTES_OVERHEAD
            crc = _crc32(item, _crc32(b"b", crc))
        elif tp is tuple:
            item_size, crc = _seal_into(item, crc)
            size += item_size
        else:
            item_size, content = _leaf(item)
            size += item_size
            crc = _crc32(content, crc)
    return size, _crc32(b")", crc)


def _seal(record: Any) -> Tuple[int, int]:
    """Validate, size and checksum ``record`` in one walk.

    Returns ``(size, crc)``: the approximate persisted size (8 per
    tuple, ``len + 33`` per ``str``/``bytes``, a fixed size per atom)
    and the CRC32 of its logical content (type tag + content per node).
    Raises :class:`TypeError`, naming the offending type, for anything
    that is not a record (a list, dict, set, bytearray, ... anywhere
    inside it).
    """
    return _seal_into(record, 0)


def record_size(record: Any) -> int:
    """Approximate persisted size of ``record`` (see :func:`_seal`)."""
    return _seal_into(record, 0)[0]


def fingerprint(record: Any) -> int:
    """CRC32 of a record's logical content (see :func:`_seal`).

    Deterministic across runs (no ``id()``/hash-seed dependence) and
    sensitive to any bit-level change in stored payload bytes — the
    checksum the store's corruption envelope is built on.
    """
    return _seal_into(record, 0)[1]


def flip_bit(record: Any, seed: int) -> Tuple[Any, bool]:
    """Rebuild ``record`` with one bit flipped in one ``bytes`` leaf.

    ``seed`` deterministically picks the leaf (depth-first order) and
    the bit.  Returns ``(mutated, True)``, or ``(record, False)`` when
    the record holds no non-empty ``bytes``.  Fault injection's latent
    sector error: only data payloads rot, never record tags — a damaged
    tag is a framing error, which is not the silent corruption this
    models.
    """
    leaves: List[Tuple[int, ...]] = []

    def collect(node: Any, path: Tuple[int, ...]) -> None:
        if type(node) is bytes:
            if node:
                leaves.append(path)
        elif type(node) is tuple:
            for index, item in enumerate(node):
                collect(item, path + (index,))

    collect(record, ())
    if not leaves:
        return record, False

    def rebuild(node: Any, at: Tuple[int, ...]) -> Any:
        if not at:
            data = bytearray(node)
            bit = seed % (len(data) * 8)
            data[bit // 8] ^= 1 << (bit % 8)
            return bytes(data)
        items = list(node)
        items[at[0]] = rebuild(items[at[0]], at[1:])
        return tuple(items)

    return rebuild(record, leaves[seed % len(leaves)]), True


class _JournalCell:
    """A journalled key: an append-only list of delta records.

    ``crcs`` and ``sizes`` run parallel to ``records``: the CRC32
    envelope and persisted size of each record as sealed (``None`` and
    0 for a torn tail, which carries no valid envelope by definition).
    """

    __slots__ = ("records", "crcs", "sizes")

    def __init__(self) -> None:
        self.records: List[Any] = []
        self.crcs: List[Optional[int]] = []
        self.sizes: List[int] = []

    def pop(self) -> None:
        """Drop the last record (a torn tail) with its envelope."""
        self.records.pop()
        self.crcs.pop()
        self.sizes.pop()


class _TornRecord:
    """A half-written trailing journal record (torn write).

    Appended when a crash lands mid-append: the record was never
    acknowledged, its framing is incomplete, and recovery detects and
    truncates it by length/framing alone — no checksum needed.  It is
    never returned by a read.
    """

    __slots__ = ()


_TORN = _TornRecord()


class StableStore:
    """Per-node persistent key-value storage (the ``store`` primitive).

    Values are *records* (see :func:`record_size`): immutable atoms and
    tuples of them.  Later in-memory mutation can therefore never
    retroactively change "disk" contents — the classic aliasing bug in
    storage simulators is impossible by construction, so the store
    keeps the caller's object and ``load`` returns it as is.  Anything
    else (a list, dict, set, bytearray) is refused with
    :class:`TypeError` before the store changes.

    Journalled keys (:meth:`append` / :meth:`load_journal`) hold an
    append-only list of small delta records, letting the replica log
    persist O(1) per mutation instead of rewriting its full state.

    ``size_bytes`` is maintained incrementally on every mutation, so
    GC accounting is not itself O(store).  ``store_count`` /
    ``load_count`` expose the store's churn.

    **Corruption envelope**: every stored value and journal record
    carries a CRC32 fingerprint computed at write time.  Reads
    re-verify when ``verify_checksums`` is true (default): a mismatch
    quarantines the key and raises
    :class:`~repro.errors.CorruptionDetected` instead of returning
    garbage.  A torn trailing journal record (:meth:`tear_journal`) is
    detected by framing and silently truncated at the next read or
    append — the paper's recovery path never sees it.  The
    ``verify_checksums=False`` escape hatch disables only the *read
    check* (envelopes are still written), modelling a store without
    end-to-end verification; injected corruption then flows to clients.

    Disk I/O is *not* counted here; the replica layer counts logical
    block reads/writes per the paper's accounting (timestamps live in
    NVRAM and are free).
    """

    __slots__ = (
        "verify_checksums",
        "_data",
        "_crcs",
        "_sizes",
        "_size_bytes",
        "store_count",
        "load_count",
        "checksum_failures",
        "torn_dropped",
        "quarantined",
    )

    def __init__(self, verify_checksums: bool = True) -> None:
        self.verify_checksums = verify_checksums
        self._data: Dict[str, Any] = {}
        self._crcs: Dict[str, int] = {}
        self._sizes: Dict[str, int] = {}
        self._size_bytes = 0
        self.store_count = 0
        self.load_count = 0
        self.checksum_failures = 0
        self.torn_dropped = 0
        self.quarantined: Set[str] = set()

    # -- bookkeeping -------------------------------------------------------

    def _account(self, key: str, size: int) -> None:
        self._size_bytes += size - self._sizes.get(key, 0)
        self._sizes[key] = size

    # -- the store primitive ----------------------------------------------

    def store(self, key: str, value: Any) -> None:
        """Atomically persist record ``value`` under ``key`` (replacing it)."""
        size, crc = _seal(value)
        self.store_count += 1
        self.quarantined.discard(key)  # overwrite repairs a bad cell
        self._data[key] = value
        self._crcs[key] = crc
        self._account(key, size)

    def load(self, key: str, default: Any = None) -> Any:
        """Recover the most recently stored value.

        Raises :class:`CorruptionDetected` if the stored envelope fails
        its checksum and ``verify_checksums`` is on.
        """
        if key not in self._data:
            return default
        self.load_count += 1
        stored = self._data[key]
        if type(stored) is _JournalCell:
            return self._read_journal(key, stored)
        if self.verify_checksums and fingerprint(stored) != self._crcs[key]:
            self.checksum_failures += 1
            self.quarantined.add(key)
            raise CorruptionDetected(
                f"checksum mismatch loading key {key!r}", key=key
            )
        return stored

    # -- journalled keys ---------------------------------------------------

    def append(self, key: str, record: Any) -> None:
        """Persist one delta record under a journalled ``key`` — O(record).

        The journal is an ordered list; :meth:`load_journal` returns all
        records since the last :meth:`reset_journal`.  Storing a plain
        value under the same key discards the journal.
        """
        size, crc = _seal(record)
        self.store_count += 1
        self.quarantined.discard(key)
        cell = self._data.get(key)
        if type(cell) is not _JournalCell:
            cell = _JournalCell()
            self._data[key] = cell
            self._crcs.pop(key, None)
            self._account(key, 0)  # release any plain value it replaces
        if cell.records and type(cell.records[-1]) is _TornRecord:
            # A fresh append overwrites the torn tail on disk.
            cell.pop()
        cell.records.append(record)
        cell.crcs.append(crc)
        cell.sizes.append(size)
        self._account(key, self._sizes.get(key, 0) + size)

    def load_journal(self, key: str) -> List[Any]:
        """All records appended under ``key`` (empty if none).

        A torn trailing record is truncated (counted in
        ``torn_dropped``), never returned.  With ``verify_checksums``
        on, any record failing its envelope quarantines the key and
        raises :class:`CorruptionDetected`.
        """
        cell = self._data.get(key)
        if type(cell) is not _JournalCell:
            return []
        self.load_count += 1
        return self._read_journal(key, cell)

    def _read_journal(self, key: str, cell: _JournalCell) -> List[Any]:
        if cell.records and type(cell.records[-1]) is _TornRecord:
            # Torn tail: framing is incomplete, so recovery truncates it
            # regardless of checksum verification.
            cell.pop()
            self.torn_dropped += 1
        if self.verify_checksums:
            for record, crc in zip(cell.records, cell.crcs):
                if fingerprint(record) != crc:
                    self.checksum_failures += 1
                    self.quarantined.add(key)
                    raise CorruptionDetected(
                        f"checksum mismatch in journal {key!r}", key=key
                    )
        return list(cell.records)

    def journal_len(self, key: str) -> int:
        """Number of records in the journal under ``key`` (0 if none)."""
        cell = self._data.get(key)
        if type(cell) is not _JournalCell:
            return 0
        return len(cell.records)

    def reset_journal(self, key: str, records: Any = ()) -> None:
        """Atomically replace the journal with ``records`` (compaction).

        A record that is the *identical* object already in this journal
        keeps its envelope: records are immutable all the way down, so
        the object is still what was sealed.  Bit rot injected since
        (:meth:`corrupt`) replaced the stored object, so a caller that
        passes its own copy gets it sealed afresh.  ``store_count``
        counts only the records sealed here.
        """
        records = list(records)
        cell = self._data.get(key)
        if type(cell) is _JournalCell:
            sealed = {id(record): index
                      for index, record in enumerate(cell.records)}
        else:
            cell, sealed = None, {}
        crcs, sizes, fresh = [], [], 0
        for record in records:
            index = sealed.get(id(record))
            if index is None:
                size, crc = _seal(record)
                fresh += 1
            else:
                size, crc = cell.sizes[index], cell.crcs[index]
            crcs.append(crc)
            sizes.append(size)
        self.store_count += fresh
        self.quarantined.discard(key)
        if cell is None:
            cell = self._data[key] = _JournalCell()
            self._crcs.pop(key, None)
        # Refill the cell in place: a compaction per GC notice should
        # not leave a new cell and new lists for the collector.
        cell.records[:] = records
        cell.crcs[:] = crcs
        cell.sizes[:] = sizes
        self._account(key, sum(sizes))

    # -- corruption: verification and fault injection ----------------------

    def verify(self, key: str) -> bool:
        """Check ``key``'s envelope without loading or raising.

        True for absent keys and clean cells; False exactly when a
        checksum mismatch exists.  A
        torn tail is not corruption (it self-truncates on read).  The
        scrubber's detection primitive: cheap, side-effect-free.
        """
        stored = self._data.get(key)
        if stored is None:
            return True
        if type(stored) is _JournalCell:
            records, crcs = stored.records, stored.crcs
            if records and type(records[-1]) is _TornRecord:
                records, crcs = records[:-1], crcs[:-1]
            return all(
                fingerprint(record) == crc
                for record, crc in zip(records, crcs)
            )
        return fingerprint(stored) == self._crcs[key]

    def corrupt(self, key: str, seed: int = 0) -> bool:
        """Inject a silent bit flip into ``key``'s stored payload.

        Deterministically (by ``seed``) picks a payload leaf and flips
        one bit *without* updating the envelope, modelling a latent
        sector error.  Returns True if a bit was flipped (False when the
        key is absent or holds no ``bytes`` payload).
        """
        stored = self._data.get(key)
        if type(stored) is _JournalCell:
            # Newest record with a byte payload first, so the damage
            # lands in the record reads actually decode (detection
            # doesn't care — the whole cell is verified — but the
            # escape-hatch demonstration does).  A torn tail holds no
            # payload and is skipped.
            records = stored.records
            for index in reversed(range(len(records))):
                mutated, flipped = flip_bit(records[index], seed)
                if flipped:
                    records[index] = mutated
                    return True
            return False
        mutated, flipped = flip_bit(stored, seed)
        if flipped:
            self._data[key] = mutated
        return flipped

    def tear_journal(self, key: str) -> bool:
        """Append a torn (half-written) record to ``key``'s journal.

        Models a crash landing mid-append: the record was never
        acknowledged and carries no valid framing, so the next read or
        append truncates it.  Returns True if a torn tail was placed.
        """
        cell = self._data.get(key)
        if type(cell) is not _JournalCell:
            return False
        if cell.records and type(cell.records[-1]) is _TornRecord:
            return False  # already torn
        cell.records.append(_TORN)
        cell.crcs.append(None)
        cell.sizes.append(0)
        return True

    # -- inspection --------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> List[str]:
        """All stored keys."""
        return list(self._data)

    def size_bytes(self) -> int:
        """Approximate persisted size, maintained incrementally."""
        return self._size_bytes

    def size_of(self, key: str) -> int:
        """Approximate persisted size of one key (0 if absent).

        The per-key share of :meth:`size_bytes`.
        """
        return self._sizes.get(key, 0)

