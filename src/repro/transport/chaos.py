"""Seeded link chaos: the policy a transport's send path draws from.

:meth:`Transport.set_chaos <repro.transport.base.Transport.set_chaos>`
installs a serializable :class:`ChaosPolicy` on any substrate:

* a per-message **duplicate** probability,
* **bit-flip payload corruption** — the message is wire-encoded, one
  bit is flipped, and a CRC32 over the original frame is checked at the
  delivery boundary.  A single-bit flip always fails the check, so the
  corrupted frame is discarded and counted: corruption is *detected and
  becomes an erasure*, exactly the corrupt-as-erasure discipline the
  stable store applies to on-disk rot and the fair-loss channel
  model requires (channels never *undetectably* corrupt).

Random loss (a drop window) and partitions are events of a fault plan,
not part of a policy.  All randomness derives from ``policy.seed``, so a fixed-seed
chaos run on the sim is bit-identical across repetitions; reordering
comes from the substrate (the sim's latency draw, the wall clock).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any, Dict

from ..errors import ConfigurationError
from ..types import ProcessId

__all__ = [
    "ChaosPolicy",
    "ChaosStats",
]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(
            f"{name} must be in [0, 1), got {value}"
        )


@dataclass(frozen=True)
class ChaosPolicy:
    """A complete, serializable chaos plan for one run.

    Attributes:
        seed: seeds the transport's chaos RNG, which draws every
            per-message decision.
        duplicate: probability a forwarded message is forwarded twice.
        corrupt: probability of a single-bit payload flip.  The flip is
            always detected by the frame CRC and the message discarded
            (corrupt-as-erasure), so it behaves as a drop with its own
            accounting.

    Both apply to every link.  Random loss and partitions are not part
    of a policy: they are events of a fault plan (a drop window opened
    at t = 0 is a fixed loss rate), applied to the transport.

    A policy round-trips through JSON (:meth:`to_json` /
    :meth:`from_json`), so a chaos run's artifact carries its own
    reproducer exactly like a campaign schedule does.
    """

    seed: int = 0
    duplicate: float = 0.0
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("duplicate", "corrupt"):
            _check_probability(name, getattr(self, name))

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "duplicate": self.duplicate,
            "corrupt": self.corrupt,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: Dict) -> "ChaosPolicy":
        return cls(
            seed=int(data.get("seed", 0)),
            duplicate=float(data.get("duplicate", 0.0)),
            corrupt=float(data.get("corrupt", 0.0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosPolicy":
        return cls.from_dict(json.loads(text))


class ChaosStats:
    """What a transport's link faults did — the artifact's chaos axes.

    ``forwarded`` counts copies that passed the link-fault decision
    while any fault (a cut, a drop window or a policy) was installed —
    with a policy installed, every send — duplicates included.  The
    fault counters split everything the link faults did *instead of*
    (or in addition to) forwarding; a cut counts in
    ``partition_dropped`` at send time and again if it catches a
    message in flight.
    """

    __slots__ = (
        "forwarded", "dropped", "partition_dropped", "duplicated",
        "corrupted",
    )

    def __init__(self) -> None:
        self.forwarded = 0
        self.dropped = 0
        self.partition_dropped = 0
        self.duplicated = 0
        self.corrupted = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "delivered": self.forwarded,
            "dropped": self.dropped,
            "partition_dropped": self.partition_dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
        }


def corruption_detected(
    rng: Any, src: ProcessId, dst: ProcessId, payload: Any, size: int
) -> bool:
    """Flip one bit in the encoded frame; True iff the CRC catches it.

    The frame CRC is computed over the pristine encoding and checked
    after the flip — a single-bit flip can never preserve a CRC32, so
    the corruption is always *detected* and the frame discarded.
    Detection-then-discard is the point: fair-loss channels may lose
    but never undetectably corrupt, so transport-level rot must surface
    as an erasure (a drop the retransmission machinery heals), never as
    delivered garbage.
    """
    frame = _encoded(src, dst, payload, size)
    flipped = bytearray(frame)
    bit = rng.randrange(len(flipped) * 8)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return zlib.crc32(bytes(flipped)) != zlib.crc32(frame)


def _encoded(src: ProcessId, dst: ProcessId, payload: Any, size: int) -> bytes:
    # Imported lazily: wire depends on repro.core.messages, which would
    # make importing this module from repro.transport circular.
    from . import wire

    try:
        return wire.encode_frame(src, dst, payload, size)
    except Exception:
        # Payloads outside the wire registry (ad-hoc test messages)
        # still get a deterministic byte image to corrupt.
        return repr(payload).encode("utf-8", "replace") or b"\x00"
