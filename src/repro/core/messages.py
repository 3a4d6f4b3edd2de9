"""Protocol message formats (Algorithms 1-3).

Five request types flow coordinator → replica, each with a matching
reply:

====================  =============================================
Request               Paper form
====================  =============================================
:class:`ReadReq`      ``[Read, targets]``
:class:`OrderReq`     ``[Order, ts]``
:class:`OrderReadReq` ``[Order&Read, j, max, ts]`` (``j`` may be ALL)
:class:`WriteReq`     ``[Write, [b1..bn], ts]`` — we ship only the
                      destination's own block, the paper's stated
                      bandwidth optimization (Section 5.2 / Table 1
                      accounting of ``nB``)
:class:`ModifyReq`    ``[Modify, j, b_j, b, ts_j, ts]``, one view
                      per destination (Section 5.2 (b))
====================  =============================================

Every request carries ``register_id`` (which stripe) and ``request_id``
(for at-most-once retransmission handling); replies echo the
``request_id`` so the coordinator can match them.  ``size`` on each
class reports payload bytes for Table 1 bandwidth accounting: only
block-sized fields count, control fields are negligible next to ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..timestamps import Timestamp
from ..types import Block

__all__ = [
    "ALL",
    "ReadReq",
    "ReadReply",
    "OrderReq",
    "OrderReply",
    "OrderReadReq",
    "OrderReadReply",
    "WriteReq",
    "WriteReply",
    "ModifyReq",
    "ModifyReply",
    "GcReq",
    "Request",
    "Reply",
]

#: Sentinel for ``j = ALL`` in Order&Read (read every process's block).
ALL = -1


@dataclass(frozen=True)
class _Base:
    register_id: int
    request_id: int

    @property
    def size(self) -> int:
        """Payload bytes for bandwidth accounting (blocks only)."""
        return 0


@dataclass(frozen=True)
class ReadReq(_Base):
    """``[Read, targets]`` — optimistic read; ``targets`` reply with blocks."""

    targets: frozenset = frozenset()


@dataclass(frozen=True)
class ReadReply(_Base):
    """``[Read-R, status, val-ts, b]``.

    ``corrupt=True`` flags a replica whose fragment failed its stored
    checksum: the coordinator must treat this reply's block as ⊥ (an
    erasure) — it carries no usable data and no valid timestamp.
    """

    status: bool = False
    val_ts: Optional[Timestamp] = None
    block: Optional[Block] = None
    corrupt: bool = False

    @property
    def size(self) -> int:
        return len(self.block) if self.block is not None else 0


@dataclass(frozen=True)
class OrderReq(_Base):
    """``[Order, ts]`` — phase one of a write: reserve the timestamp."""

    ts: Timestamp = None  # type: ignore[assignment]


@dataclass(frozen=True)
class OrderReply(_Base):
    """``[Order-R, status]``.

    ``max_seen`` reports the replica's highest known timestamp
    (max of ``ord-ts`` and ``max-ts(log)``).  The paper's reply carries
    only the status; exposing the timestamp lets a rejected coordinator
    advance its clock immediately instead of relying on repeated blind
    retries for the PROGRESS property — an abort-rate optimization with
    no safety impact (timestamps only gate ordering).

    ``corrupt=True`` flags a quarantined register: the replica cannot
    certify ordering against a corrupt log, and the coordinator must
    exclude it from the quorum rather than abort on its refusal.
    """

    status: bool = False
    max_seen: Optional[Timestamp] = None
    corrupt: bool = False


@dataclass(frozen=True)
class OrderReadReq(_Base):
    """``[Order&Read, j, max, ts]`` — order ``ts`` and read back a block.

    ``j`` is a 1-based process id or :data:`ALL`; ``max_ts`` bounds the
    timestamp of the block returned (``max-below(log, max)``).
    """

    j: int = ALL
    max_ts: Timestamp = None  # type: ignore[assignment]
    ts: Timestamp = None  # type: ignore[assignment]


@dataclass(frozen=True)
class OrderReadReply(_Base):
    """``[Order&Read-R, status, lts, b]``.

    ``corrupt=True`` marks a checksum-failed fragment; the recovery
    read treats it as an erasure (see :class:`ReadReply`).
    """

    status: bool = False
    lts: Optional[Timestamp] = None
    block: Optional[Block] = None
    corrupt: bool = False

    @property
    def size(self) -> int:
        return len(self.block) if self.block is not None else 0


@dataclass(frozen=True)
class WriteReq(_Base):
    """``[Write, ..., ts]`` carrying only the destination's block."""

    block: Optional[Block] = None
    ts: Timestamp = None  # type: ignore[assignment]

    @property
    def size(self) -> int:
        return len(self.block) if self.block is not None else 0


@dataclass(frozen=True)
class WriteReply(_Base):
    """``[Write-R, status]`` (+ ``max_seen``, as in :class:`OrderReply`)."""

    status: bool = False
    max_seen: Optional[Timestamp] = None


@dataclass(frozen=True)
class ModifyReq(_Base):
    """``[Modify, j, b_j, b, ts_j, ts]`` — block-write fast path.

    The paper's message carries the old and new values of block ``j``
    to everyone; each destination here gets only what it uses (Section
    5.2 optimizations (a) and (b)): ``p_j`` gets ``new_block``, every
    parity process gets the coded ``delta`` (``encode_delta(j, b_j,
    b)``, which it applies with ``apply_delta``), and any other data
    process gets neither and only logs ``ts``.
    """

    j: int = 0
    new_block: Optional[Block] = None
    delta: Optional[Block] = None
    ts_j: Timestamp = None  # type: ignore[assignment]
    ts: Timestamp = None  # type: ignore[assignment]

    @property
    def size(self) -> int:
        total = 0
        for blob in (self.new_block, self.delta):
            if blob is not None:
                total += len(blob)
        return total


@dataclass(frozen=True)
class ModifyReply(_Base):
    """``[Modify-R, status]``."""

    status: bool = False


@dataclass(frozen=True)
class GcReq(_Base):
    """Garbage-collection notice (Section 5.1): trim entries below ``ts``."""

    ts: Timestamp = None  # type: ignore[assignment]


#: Union helper tuples for handler registration.
Request = (ReadReq, OrderReq, OrderReadReq, WriteReq, ModifyReq, GcReq)
Reply = (ReadReply, OrderReply, OrderReadReply, WriteReply, ModifyReply)
