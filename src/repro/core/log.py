"""Replica persistent state: the versioned log (paper Section 4.2).

Each replica stores, per register, a timestamp ``ord-ts`` and a log of
``[timestamp, block]`` pairs.  The log holds the history of updates the
replica has seen; ``⊥`` block entries record that a timestamp passed
through without the replica learning a block value (used by the Modify
handler for non-parity, non-target data processes).

Three query functions, exactly as defined in the paper:

* ``max_ts(log)`` — highest timestamp in the log;
* ``max_block(log)`` — the non-⊥ value with the highest timestamp;
* ``max_below(log, ts)`` — the non-⊥ value with the highest timestamp
  strictly smaller than ``ts``.

The initial log is ``{[LowTS, nil]}`` — note ``nil`` (no value ever
written) is distinct from ``⊥`` (no value recorded at this timestamp):
``max_block`` on a fresh log returns the ``nil`` entry, letting reads of
never-written registers succeed with ``nil``.

Performance notes.  Besides the timestamp-sorted entry list, the log
maintains a parallel index of *value* entries (non-⊥), so ``max_block``
is O(1) and ``max_below`` is a pure bisection — the seed walked the
entry list backwards past every ⊥ placeholder.  For persistence, the
log also defines a journal representation (``("a", ts, block)``
records, :func:`journal_records` + :func:`replay_journal`): instead of
re-serializing the full entry list on every mutation (O(log-length) per
write, O(writes²) per run), the replica appends one O(1) record per
append, resets the journal at each GC trim to the surviving entries'
own records, and replays the records on recovery.  Each entry keeps
the record that journalled it, so a trim hands the store the very
objects it already sealed.
"""

from __future__ import annotations

import bisect
from typing import Any, List, Optional, Tuple

from ..errors import ProtocolInvariantError
from ..timestamps import LOW_TS, Timestamp
from ..types import BOTTOM

__all__ = [
    "LogEntry",
    "ReplicaLog",
    "BOTTOM",
    "INITIAL_RECORD",
    "journal_records",
    "replay_journal",
]


class LogEntry:
    """One ``[timestamp, block]`` log pair.

    ``block`` is ``bytes``, ``None`` (the paper's ``nil`` initial
    value), or :data:`BOTTOM` (the paper's ``⊥`` timestamp-only entry).
    ``record`` is the journal record ``("a", ts, block)`` that persists
    the entry; one is made when none is given.  Entries
    are treated as immutable and are slotted — one exists per logged
    write, so per-instance ``__dict__`` overhead matters.
    """

    __slots__ = ("ts", "block", "record")

    def __init__(self, ts: Timestamp, block: object,
                 record: Optional[tuple] = None) -> None:
        self.ts = ts
        self.block = block
        self.record = (_APPEND, ts, block) if record is None else record

    @property
    def has_value(self) -> bool:
        """True iff the entry records an actual value (incl. ``nil``)."""
        return self.block is not BOTTOM

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogEntry):
            return NotImplemented
        return self.ts == other.ts and self.block == other.block

    def __hash__(self) -> int:
        return hash((self.ts, self.block))

    def __repr__(self) -> str:
        return f"LogEntry(ts={self.ts!r}, block={self.block!r})"


class ReplicaLog:
    """The per-register log, kept sorted by timestamp.

    The log is an append-mostly structure; entries arrive in roughly
    timestamp order, so insertion uses ``bisect``.  Mutations are
    explicit, and the replica persists each one via its node's stable
    store (journal records on the fast path).
    """

    def __init__(self, entries: Optional[List[LogEntry]] = None) -> None:
        if entries is None:
            entries = [LogEntry(LOW_TS, None, INITIAL_RECORD)]
        self._entries = sorted(entries, key=lambda e: e.ts)
        self._keys = [entry.ts for entry in self._entries]
        if not self._entries:
            raise ProtocolInvariantError("log may never be empty")
        # Parallel index of value (non-⊥) entries, ascending by ts.
        self._value_keys: List[Timestamp] = []
        self._value_entries: List[LogEntry] = []
        for entry in self._entries:
            if entry.block is not BOTTOM:
                self._value_keys.append(entry.ts)
                self._value_entries.append(entry)

    # -- queries (the paper's three functions) ----------------------------

    def max_ts(self) -> Timestamp:
        """``max-ts(log)``: the highest timestamp present."""
        return self._keys[-1]

    def max_block(self) -> Tuple[Timestamp, object]:
        """``max-block(log)``: the non-⊥ value with the highest timestamp.

        Returns the ``(ts, block)`` pair.  At least the initial
        ``[LowTS, nil]`` entry always qualifies.  O(1) via the value
        index.
        """
        if not self._value_entries:
            raise ProtocolInvariantError("log has no value entries (missing LowTS)")
        newest = self._value_entries[-1]
        return newest.ts, newest.block

    def max_below(self, ts: Timestamp) -> Tuple[Timestamp, object]:
        """``max-below(log, ts)``: highest-timestamped non-⊥ value < ``ts``.

        Returns ``(LowTS, None)`` when nothing qualifies.  That reads
        ``nil`` only for a log that still holds its ``[LowTS, nil]``
        entry; a log whose first entry is above LowTS (trimmed, or
        rebuilt by a repair write-back) cannot vouch for the versions
        below :meth:`min_ts`, and its caller must treat them as
        unknown.  O(log n) — a bisection on the value index, with no
        scan past ⊥ placeholders.
        """
        index = bisect.bisect_left(self._value_keys, ts)
        if index == 0:
            return LOW_TS, None
        entry = self._value_entries[index - 1]
        return entry.ts, entry.block

    def max_ts_below(self, ts: Timestamp) -> Timestamp:
        """Highest timestamp of ANY entry (⊥ included) strictly below ``ts``.

        This is the *version* a replica's state reflects under the
        bound: a ⊥ entry at time t means "my block did not change at
        t", so the replica's current block value is valid for version
        t even though the value itself carries an older timestamp.
        Returns LowTS when nothing is below (the initial entry is at
        LowTS itself).
        """
        index = bisect.bisect_left(self._keys, ts)
        if index == 0:
            return LOW_TS
        return self._keys[index - 1]

    def min_ts(self) -> Timestamp:
        """The lowest timestamp present: LowTS unless the log was trimmed
        or started over at a repair write-back."""
        return self._keys[0]

    def contains_ts(self, ts: Timestamp) -> bool:
        """True iff an entry with exactly this timestamp exists."""
        index = bisect.bisect_left(self._keys, ts)
        return index < len(self._keys) and self._keys[index] == ts

    def entry_at(self, ts: Timestamp) -> Optional[LogEntry]:
        """The entry with exactly this timestamp, if present."""
        index = bisect.bisect_left(self._keys, ts)
        if index < len(self._keys) and self._keys[index] == ts:
            return self._entries[index]
        return None

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[LogEntry]:
        """A snapshot copy of all entries, ascending by timestamp."""
        return list(self._entries)

    # -- mutation ----------------------------------------------------------

    def append(self, ts: Timestamp, block: object,
               record: Optional[tuple] = None) -> tuple:
        """Add ``{[ts, block]}`` to the log (the handler's ``log ∪ {...}``).

        Appending an entry whose timestamp already exists replaces it
        only if the old entry was ⊥ and the new one carries a value
        (set-union semantics: the pair is keyed by timestamp; a value
        entry subsumes a ⊥ placeholder for the same write).

        Returns the journal record that persists this append: ``record``
        when replaying one, else a new ``("a", ts, block)``.  A new
        entry keeps it.
        """
        if record is None:
            record = (_APPEND, ts, block)
        index = bisect.bisect_left(self._keys, ts)
        if index < len(self._keys) and self._keys[index] == ts:
            existing = self._entries[index]
            if existing.block is BOTTOM and block is not BOTTOM:
                entry = LogEntry(ts, block, record)
                self._entries[index] = entry
                value_index = bisect.bisect_left(self._value_keys, ts)
                self._value_keys.insert(value_index, ts)
                self._value_entries.insert(value_index, entry)
            return record
        entry = LogEntry(ts, block, record)
        self._entries.insert(index, entry)
        self._keys.insert(index, ts)
        if block is not BOTTOM:
            value_index = bisect.bisect_left(self._value_keys, ts)
            self._value_keys.insert(value_index, ts)
            self._value_entries.insert(value_index, entry)
        return record

    def trim_below(self, ts: Timestamp) -> int:
        """Garbage-collect entries with timestamps strictly below ``ts``.

        Keeps every entry at or above ``ts`` (the most recent complete
        write, and anything newer).  If none of those holds a value, the
        newest value entry below ``ts`` is retained instead so
        ``max_block`` remains correct, and — when nothing at all is at
        or above ``ts`` (this replica missed the write) — so is the
        newest entry, which carries ``max_ts``.  The ⊥ entries in
        between describe versions older than a complete write and go.
        Returns the number of entries removed.

        See Section 5.1: after a write completes at a full quorum with
        timestamp ``ts``, older data is no longer needed.
        """
        cut = bisect.bisect_left(self._keys, ts)
        if cut == 0 or not self._value_entries:
            return 0
        entries, keys = self._entries, self._keys
        before = len(entries)
        newest = self._value_keys[-1]
        if cut < before and newest >= keys[cut]:
            value_cut = bisect.bisect_left(self._value_keys, keys[cut])
            del self._value_keys[:value_cut]
            del self._value_entries[:value_cut]
        else:
            # Keep the newest value, then what is at or above ``ts`` —
            # or, if nothing is, the newest entry.  The value index
            # already holds just what survives: the newest value.
            value_at = bisect.bisect_left(keys, newest)
            del entries[value_at + 1:min(cut, before - 1)]
            del keys[value_at + 1:min(cut, before - 1)]
            cut = value_at
            del self._value_keys[:-1]
            del self._value_entries[:-1]
        del entries[:cut]
        del keys[:cut]
        return before - len(entries)

    # -- persistence helpers -------------------------------------------------

    def to_state(self) -> List[Tuple[Timestamp, object]]:
        """Serialize to a plain list for the stable store."""
        return [(entry.ts, entry.block) for entry in self._entries]

    @classmethod
    def from_state(cls, state: List[Tuple[Timestamp, object]]) -> "ReplicaLog":
        """Rebuild from :meth:`to_state` output."""
        return cls([LogEntry(ts, block) for ts, block in state])

    def __repr__(self) -> str:
        return f"ReplicaLog({len(self._entries)} entries, max_ts={self.max_ts()!r})"


# -- journal records ---------------------------------------------------------
#
# The journal holds one record per entry the log has had since its last
# trim, in the order they were appended, starting with the initial
# ``[LowTS, nil]`` entry's.  Replay appends them in order, so recovery
# reconstructs exactly the log the mutations produced.  Record tuples
# are (tag, ...); the one tag is:

_APPEND = "a"

#: The record of the initial ``[LowTS, nil]`` entry: the first record
#: of every journal, until a trim drops the entry.
INITIAL_RECORD = (_APPEND, LOW_TS, None)


def journal_records(log: ReplicaLog) -> List[tuple]:
    """The journal that rebuilds exactly ``log``: its entries' records.

    Written at a trim, whose survivors keep the records that journalled
    them — the objects the store already sealed.
    """
    return [entry.record for entry in log._entries]


def _is_well_formed(record: Any) -> bool:
    """Structural check for one journal record (tag + arity)."""
    return (
        isinstance(record, tuple) and len(record) == 3
        and record[0] == _APPEND
    )


def replay_journal(records: List[Any]) -> ReplicaLog:
    """Rebuild a log by replaying journal ``records`` in order.

    Replayed entries keep their record object, so the first trim after
    recovery reuses the envelopes the store already holds.  An empty
    journal is a register never written: the initial log.

    A malformed *trailing* record is dropped rather than aborting the
    replay: the stable store already truncates framing-detected torn
    tails, and this is the second line of defense for a half-record
    that slipped through — it was never acknowledged, so dropping it is
    the correct recovery.  A malformed record anywhere else means real
    corruption and still raises.
    """
    log: Optional[ReplicaLog] = None
    last = len(records) - 1
    for index, record in enumerate(records):
        if not _is_well_formed(record):
            if index == last:
                break  # torn tail: unacknowledged, cleanly dropped
            raise ProtocolInvariantError(
                f"malformed journal record {record!r} at index {index}"
            )
        if log is None:
            log = ReplicaLog([LogEntry(record[1], record[2], record)])
        else:
            log.append(record[1], record[2], record)
    return log if log is not None else ReplicaLog()
