"""Shared value types used across the repro package.

The paper works with three primitive notions that cut across every layer:

* **blocks** — fixed-size byte strings, the unit of storage;
* **status values** — success (``OK``) versus abort (``⊥``, rendered here
  as :data:`ABORT`), and the log's timestamp-only ``⊥`` entry
  (:data:`BOTTOM`);
* **process identifiers** — small integers ``1..n`` naming the bricks.

This module defines those notions once so that the erasure-coding layer,
the protocol layer, and the verification layer all agree on them.
"""

from __future__ import annotations

import enum
from typing import Optional

#: Type alias for the unit of data storage (the paper's "block").
Block = bytes

#: Type alias for process identifiers.  Processes are numbered 1..n as in
#: the paper; process ``j`` stores block ``j`` of every stripe.
ProcessId = int


class _AbortType:
    """Singleton sentinel for the paper's abort value ``⊥``.

    Register operations that abort return :data:`ABORT` so callers can
    distinguish "operation aborted" from legitimate data (``None`` could
    be a legal block value for a never-written register, mirroring the
    paper's ``nil``).
    """

    _instance: Optional["_AbortType"] = None

    def __new__(cls) -> "_AbortType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABORT"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_AbortType, ())


#: The abort sentinel (the paper's ``⊥``).  Falsy, singleton, picklable.
ABORT = _AbortType()


class _BottomType:
    """Singleton sentinel for ``⊥`` log entries (timestamp, no value)."""

    _instance: Optional["_BottomType"] = None

    def __new__(cls) -> "_BottomType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


#: The ⊥ marker a replica logs for a timestamp that carries no block
#: (paper Section 4.2).  Stateless and compared with ``is``, so it is a
#: stable-store atom like ``None``.
BOTTOM = _BottomType()

#: The initial value of every register block (the paper's ``nil``).
NIL: Optional[Block] = None


class OpKind(enum.Enum):
    """Kinds of register operations, used by the history recorder."""

    READ_STRIPE = "read-stripe"
    WRITE_STRIPE = "write-stripe"
    READ_BLOCK = "read-block"
    WRITE_BLOCK = "write-block"


class OpStatus(enum.Enum):
    """Terminal status of a recorded operation."""

    OK = "ok"  # returned a value / OK
    ABORTED = "aborted"  # returned ⊥
    CRASHED = "crashed"  # coordinator crashed mid-operation (partial op)
    PENDING = "pending"  # still running when the history was closed
