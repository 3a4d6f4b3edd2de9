"""The sim network's configuration and message record.

The fair-loss channel itself (paper Section 2) is
:class:`~repro.transport.sim.SimTransport`; this module holds the knobs
it is built from and the record it delivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError
from ..types import ProcessId

__all__ = ["NetworkConfig", "Message"]


@dataclass
class NetworkConfig:
    """Tunable network behaviour.

    Attributes:
        min_latency / max_latency: one-way delay bounds; each message
            draws uniformly from the range.  ``delta`` — the paper's
            maximum one-way delay — equals ``max_latency``.
        drop_probability: independent per-message loss probability.
        jitter_seed: seed for the network's private RNG, making runs
            reproducible.
    """

    min_latency: float = 1.0
    max_latency: float = 1.0
    drop_probability: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.min_latency < 0 or self.max_latency < self.min_latency:
            raise ConfigurationError(
                f"need 0 <= min_latency <= max_latency, got "
                f"{self.min_latency}, {self.max_latency}"
            )
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError(
                f"drop_probability must be in [0, 1), got {self.drop_probability}"
            )

    @property
    def delta(self) -> float:
        """The paper's δ: the maximum one-way messaging delay."""
        return self.max_latency


class Message:
    """A network message.

    ``__slots__``-based (one is allocated per send on the hot path).

    Attributes:
        src / dst: endpoint process ids.
        payload: arbitrary protocol payload (a messages.py dataclass).
        size: payload size in bytes for bandwidth accounting.
    """

    __slots__ = ("src", "dst", "payload", "size")

    def __init__(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int = 0
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.payload == other.payload
            and self.size == other.size
        )

    def __repr__(self) -> str:
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, "
            f"payload={self.payload!r}, size={self.size!r})"
        )
