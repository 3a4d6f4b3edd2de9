"""Exception hierarchy for the repro package.

The protocol itself signals failure through abort values (the paper's
``⊥``) rather than exceptions; exceptions are reserved for misuse of the
API and for genuinely unrecoverable conditions (bad parameters, corrupted
state detected by internal invariants).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters.

    Examples: an erasure code with ``m > n``, a quorum system whose fault
    bound violates Theorem 2 (``n < 2f + m``), a stripe whose block size
    is not positive.
    """


class CodingError(ReproError):
    """Raised when an erasure-coding operation cannot be performed.

    Examples: decoding from fewer than ``m`` blocks, or from blocks whose
    indices are out of range for the code.
    """


class QuorumError(ReproError):
    """Raised when a quorum operation is impossible.

    Example: asking for a live quorum when more than ``f`` processes are
    excluded.
    """


class SimulationError(ReproError):
    """Raised on misuse of the discrete-event simulation kernel."""


class TransportError(ReproError):
    """Base class for failures at the transport boundary.

    The transport surface is fire-and-forget (``send`` may silently
    lose a message — the paper's fair-loss model), so transport errors
    are reserved for conditions the *caller* must react to rather than
    per-message loss.  Unreachable peers are not errors either: the
    transport reports them through ``peer_state``.
    """


class TerminalTransportError(TransportError, SimulationError):
    """A transport failure no amount of retrying will mask.

    Examples: the event pump died (its original exception is chained as
    ``__cause__``), or the transport was stopped while callers were
    still waiting.  Subclasses :class:`SimulationError` so existing
    ``except SimulationError`` call sites keep working.
    """


class StorageError(ReproError):
    """Raised on invalid access to a node's persistent store."""


class CorruptionDetected(StorageError):
    """Raised when a stored value fails its checksum on read.

    The stable store wraps every value and journal record in a CRC
    envelope; a mismatch means the bits on "disk" were silently
    altered (injected bit flip, torn write).  Callers treat the
    affected fragment as an erasure (``⊥``) rather than serving
    garbage — see Konwar et al., arXiv:1605.01748.
    """

    def __init__(self, message: str, key: str = "", process_id: int = -1):
        super().__init__(message)
        self.key = key
        self.process_id = process_id


class ProtocolInvariantError(ReproError):
    """Raised when an internal protocol invariant is violated.

    These indicate a bug in the implementation (or deliberately injected
    corruption in tests), never a legal runtime condition.
    """
