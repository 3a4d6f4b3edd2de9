"""Crash-recovery nodes with persistent storage.

A node models one brick: volatile state, a :class:`StableStore` that
survives crashes (the paper's ``store(var)`` primitive, Section 4.2),
and a deliver hook wired into the network.  Crashing a node drops its
volatile state, interrupts every in-flight coordinator process it owns
(producing partial operations), and silences its message handling until
recovery.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ..errors import ConfigurationError, CorruptionDetected
from ..transport.base import Endpoint, Transport
from ..transport.sim import SimTransport
from ..types import ProcessId
from .freeze import fingerprint, flip_bit, freeze, thaw
from .kernel import Environment
from .monitor import Metrics
from .network import Network

__all__ = ["StableStore", "Node"]


class _JournalCell:
    """A journalled key: an append-only list of frozen delta records.

    ``crcs`` runs parallel to ``records``: the CRC32 envelope of each
    record at append time (``None`` for a torn tail, which carries no
    valid envelope by definition).
    """

    __slots__ = ("records", "crcs")

    def __init__(self) -> None:
        self.records: List[Any] = []
        self.crcs: List[Optional[int]] = []


class _TornRecord:
    """A half-written trailing journal record (torn write).

    Appended when a crash lands mid-append: the record was never
    acknowledged, its framing is incomplete, and recovery detects and
    truncates it by length/framing alone — no checksum needed.  Its
    payload is never thawed.
    """

    __slots__ = ()


_TORN = _TornRecord()


class StableStore:
    """Per-node persistent key-value storage (the ``store`` primitive).

    Values must not alias live memory: later in-memory mutation cannot
    retroactively change "disk" contents — the classic aliasing bug in
    storage simulators.  The store is copy-on-write: ``store`` freezes
    the value into an immutable structural-sharing snapshot (zero copies
    for ``bytes`` blocks, timestamps, and log-entry tuples; a pickle
    round-trip only for unknown mutable types) and ``load`` rebuilds a
    fresh value from the snapshot.

    Journalled keys (:meth:`append` / :meth:`load_journal`) hold an
    append-only list of small delta records, letting the replica log
    persist O(1) per mutation instead of rewriting its full state.

    ``size_bytes`` is maintained incrementally on every mutation, so
    GC accounting is not itself O(store).  ``store_count`` /
    ``load_count`` / ``bytes_copied`` expose the store's churn:
    ``bytes_copied`` counts payload bytes physically duplicated (buffer
    copies and pickle blobs), which copy-on-write keeps near zero.

    **Corruption envelope**: every stored value and journal record
    carries a CRC32 fingerprint computed at write time.  Reads re-verify when ``verify_checksums`` is true (default):
    a mismatch quarantines the key and raises
    :class:`~repro.errors.CorruptionDetected` instead of thawing
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
        "bytes_copied",
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
        self.bytes_copied = 0
        self.checksum_failures = 0
        self.torn_dropped = 0
        self.quarantined: Set[str] = set()

    # -- bookkeeping -------------------------------------------------------

    def _account(self, key: str, size: int) -> None:
        self._size_bytes += size - self._sizes.get(key, 0)
        self._sizes[key] = size

    # -- the store primitive ----------------------------------------------

    def store(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` under ``key`` (replacing it)."""
        self.store_count += 1
        self.quarantined.discard(key)  # overwrite repairs a bad cell
        frozen, size, copied = freeze(value)
        self._data[key] = frozen
        self._crcs[key] = fingerprint(frozen)
        self.bytes_copied += copied
        self._account(key, size)

    def load(self, key: str, default: Any = None) -> Any:
        """Recover the most recently stored value (detached from disk).

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
        return thaw(stored)

    # -- journalled keys ---------------------------------------------------

    def append(self, key: str, record: Any) -> None:
        """Persist one delta record under a journalled ``key`` — O(record).

        The journal is an ordered list; :meth:`load_journal` returns all
        records since the last :meth:`reset_journal`.  Storing a plain
        value under the same key discards the journal.
        """
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
            cell.records.pop()
            cell.crcs.pop()
        frozen, size, copied = freeze(record)
        cell.records.append(frozen)
        cell.crcs.append(fingerprint(frozen))
        self.bytes_copied += copied
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
            cell.records.pop()
            cell.crcs.pop()
            self.torn_dropped += 1
        if self.verify_checksums:
            for record, crc in zip(cell.records, cell.crcs):
                if fingerprint(record) != crc:
                    self.checksum_failures += 1
                    self.quarantined.add(key)
                    raise CorruptionDetected(
                        f"checksum mismatch in journal {key!r}", key=key
                    )
        return [thaw(record) for record in cell.records]

    def journal_len(self, key: str) -> int:
        """Number of records in the journal under ``key`` (0 if none)."""
        cell = self._data.get(key)
        if type(cell) is not _JournalCell:
            return 0
        return len(cell.records)

    def reset_journal(self, key: str, records: Any = ()) -> None:
        """Atomically replace the journal with ``records`` (compaction)."""
        self.quarantined.discard(key)
        cell = _JournalCell()
        self._data[key] = cell
        self._crcs.pop(key, None)
        self._account(key, 0)  # release the journal being replaced
        size = 0
        for record in records:
            self.store_count += 1
            frozen, record_size, copied = freeze(record)
            cell.records.append(frozen)
            cell.crcs.append(fingerprint(frozen))
            self.bytes_copied += copied
            size += record_size
        self._account(key, size)

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
        key is absent or holds no flippable payload).
        """
        stored = self._data.get(key)
        if stored is None:
            return False
        if type(stored) is _JournalCell:
            real = [
                i
                for i, record in enumerate(stored.records)
                if type(record) is not _TornRecord
            ]
            if not real:
                return False
            # Only records with byte payloads (data blocks) are
            # flippable: damaging a record *tag* makes the journal
            # malformed — a framing error, not the silent rot this
            # models — and with verification disabled it would surface
            # as a replay exception instead of garbage data.  Newest
            # first, so the damage lands in the record reads actually
            # decode (detection doesn't care — the whole cell is
            # verified — but the escape-hatch demonstration does).
            for index in reversed(real):
                mutated, flipped = flip_bit(
                    stored.records[index], seed, bytes_only=True
                )
                if flipped:
                    stored.records[index] = mutated
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

        The per-key share of :meth:`size_bytes` — what journal
        compaction policies consult to keep persisted bytes O(live
        state) instead of O(records since the last snapshot).
        """
        return self._sizes.get(key, 0)


class Node(Endpoint):
    """A brick: transport endpoint + stable storage + crash lifecycle.

    All messaging, timers, and process ownership come from
    :class:`~repro.transport.base.Endpoint`; this class adds the
    :class:`StableStore` that survives crashes.

    Two construction forms:

    * ``Node(transport=t, process_id=pid, ...)`` — the endpoint rides
      on any :class:`~repro.transport.base.Transport` (what
      :class:`~repro.core.cluster.FabCluster` uses).
    * ``Node(env, network, pid, ...)`` — the legacy sim form; a
      :class:`~repro.transport.sim.SimTransport` is wrapped around the
      given kernel/network pair.  Delegation is stateless, so per-node
      wrappers over a shared network behave identically to a shared
      transport.

    Args:
        env: simulation environment (legacy form).
        network: the network to register with (legacy form).
        process_id: this node's id in ``1..n``.
        metrics: metric sink; defaults to the transport's.
        verify_checksums: verify stable-store envelopes on read
            (default True; False is the corruption escape hatch).
        transport: substrate for the keyword form.
    """

    def __init__(
        self,
        env: Optional[Environment] = None,
        network: Optional[Network] = None,
        process_id: Optional[ProcessId] = None,
        metrics: Optional[Metrics] = None,
        verify_checksums: bool = True,
        *,
        transport: Optional[Transport] = None,
    ) -> None:
        if transport is None:
            if env is None or network is None:
                raise ConfigurationError(
                    "Node needs either transport= or the legacy "
                    "(env, network) pair"
                )
            transport = SimTransport(env=env, network=network)
        elif env is not None or network is not None:
            raise ConfigurationError(
                "pass either transport= or (env, network), not both"
            )
        if process_id is None:
            raise ConfigurationError("Node requires a process_id")
        super().__init__(transport, process_id, metrics)
        self.stable = StableStore(verify_checksums=verify_checksums)
