"""ChaosTransport: seeded fault injection at the transport boundary.

The sim substrate has always been subjected to faults — the fair-loss
network drops and reorders, the campaign engine partitions and heals —
but nothing injected faults on the *wall-clock* path, so the asyncio
transport ran the protocol in fair weather only.  :class:`ChaosTransport`
closes that gap by wrapping **any** inner :class:`~repro.transport.base.
Transport` (sim or asyncio) and perturbing its send path according to a
seeded, serializable :class:`ChaosPolicy`:

* per-message **drop / duplicate** probabilities,
* **bit-flip payload corruption** — the message is wire-encoded, one
  bit is flipped, and a CRC32 over the original frame is checked at the
  delivery boundary.  A single-bit flip always fails the check, so the
  corrupted frame is discarded and counted: corruption is *detected and
  becomes an erasure*, exactly the corrupt-as-erasure discipline the
  stable store applies to on-disk rot (PR 5) and the fair-loss channel
  model requires (channels never *undetectably* corrupt);
* **partitions** and a **plan-wide loss probability**, installed by
  :meth:`ChaosTransport.partition` / :meth:`~ChaosTransport.heal` /
  :meth:`~ChaosTransport.set_drop_probability` — the link events of a
  :class:`~repro.campaign.schedule.CampaignSchedule`, which
  :func:`~repro.campaign.schedule.apply_schedule` arms on this
  transport's timers exactly as it does on the sim network.

All randomness derives from ``policy.seed`` through a private RNG, so
on the sim substrate a fixed-seed chaos run is bit-identical across
repetitions, and the campaign determinism guarantees survive the
wrapper unchanged.  Reordering comes from the substrate itself (the
sim's latency draw, the wall clock), not from the wrapper.

Only the **send** path is perturbed (matching where the sim network
injects faults); registration, timers, clocks, lifecycle, and the
async bridge all delegate to the inner transport.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import ConfigurationError
from ..types import ProcessId
from .base import TimerHandle, Transport

__all__ = [
    "LinkChaos",
    "ChaosPolicy",
    "ChaosStats",
    "ChaosTransport",
]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(
            f"{name} must be in [0, 1), got {value}"
        )


@dataclass(frozen=True)
class LinkChaos:
    """Per-message fault probabilities, applied to every link.

    Attributes:
        drop: independent per-message loss probability.
        duplicate: probability a forwarded message is forwarded twice.
        corrupt: probability of a single-bit payload flip.  The flip is
            always detected by the frame CRC and the message discarded
            (corrupt-as-erasure), so it behaves as a drop with its own
            accounting.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt"):
            _check_probability(name, getattr(self, name))

    @property
    def quiet(self) -> bool:
        """True when this link injects nothing at all."""
        return (
            self.drop == 0.0 and self.duplicate == 0.0
            and self.corrupt == 0.0
        )

    def to_dict(self) -> Dict:
        return {
            "drop": self.drop,
            "duplicate": self.duplicate,
            "corrupt": self.corrupt,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LinkChaos":
        return cls(
            drop=float(data.get("drop", 0.0)),
            duplicate=float(data.get("duplicate", 0.0)),
            corrupt=float(data.get("corrupt", 0.0)),
        )


@dataclass
class ChaosPolicy:
    """A complete, serializable chaos plan for one run.

    Attributes:
        seed: drives every probabilistic decision the wrapper makes.
        default: link behaviour for every (src, dst) pair.

    Timed link faults (partitions, drop windows) are not part of a
    policy: they are events of a fault plan, applied to the wrapper.

    A policy round-trips through JSON (:meth:`to_json` /
    :meth:`from_json`), so a chaos run's artifact carries its own
    reproducer exactly like a campaign schedule does.
    """

    seed: int = 0
    default: LinkChaos = field(default_factory=LinkChaos)

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "default": self.default.to_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: Dict) -> "ChaosPolicy":
        return cls(
            seed=int(data.get("seed", 0)),
            default=LinkChaos.from_dict(data.get("default", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosPolicy":
        return cls.from_dict(json.loads(text))


class ChaosStats:
    """Counters for one chaos run — the artifact's chaos axes.

    ``forwarded`` counts messages handed to the inner transport
    (duplicates included); the fault counters partition everything the
    wrapper did *instead of* (or in addition to) forwarding.
    """

    __slots__ = (
        "forwarded", "dropped", "partition_dropped", "window_dropped",
        "duplicated", "corrupted",
    )

    def __init__(self) -> None:
        self.forwarded = 0
        self.dropped = 0
        self.partition_dropped = 0
        self.window_dropped = 0
        self.duplicated = 0
        self.corrupted = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "delivered": self.forwarded,
            "dropped": self.dropped,
            "partition_dropped": self.partition_dropped,
            "window_dropped": self.window_dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.to_dict().items())
        return f"ChaosStats({inner})"


class ChaosTransport(Transport):
    """Wrap any transport and perturb its send path per a seeded policy.

    Everything except ``send`` and the link-fault surface delegates to
    the inner transport, so a cluster built on a wrapped transport
    behaves identically modulo the injected faults: timers, clocks, spawn, the async lifecycle
    (``start``/``stop``/``wait_for``), and the sim's synchronous
    driving all pass straight through.  In particular the *inbound*
    path is untouched — chaos is applied once per send, like the sim
    network does, never twice per hop.

    Args:
        inner: the substrate to wrap (:class:`~repro.transport.sim.
            SimTransport` or :class:`~repro.transport.aio.
            AsyncioTransport`).
        policy: the chaos plan; an empty default policy makes the
            wrapper a transparent pass-through.
    """

    def __init__(
        self, inner: Transport, policy: Optional[ChaosPolicy] = None
    ) -> None:
        self.inner = inner
        self.policy = policy or ChaosPolicy()
        self.env = inner.env
        self.stats = ChaosStats()
        self._rng = random.Random(self.policy.seed)
        #: Link faults a fault plan installed: the groups cut off, and
        #: the loss probability of an open drop window.
        self._cut: List[frozenset] = []
        self._window_drop = 0.0

    # -- delegation --------------------------------------------------------

    @property
    def metrics(self) -> Any:
        return self.inner.metrics

    @metrics.setter
    def metrics(self, sink: Any) -> None:
        # FabCluster assigns the cluster sink to an adopted transport;
        # route the assignment to the inner substrate that counts.
        self.inner.metrics = sink

    def register(
        self, process_id: ProcessId, deliver: Callable[[Any], None]
    ) -> None:
        self.inner.register(process_id, deliver)

    def unregister(self, process_id: ProcessId) -> None:
        self.inner.unregister(process_id)

    def set_down(self, process_id: ProcessId, down: bool) -> None:
        self.inner.set_down(process_id, down)

    def peer_state(self, process_id: ProcessId) -> str:
        return self.inner.peer_state(process_id)

    def now(self) -> float:
        return self.inner.now()

    def set_timer(
        self, delay: float, callback: Callable[[], None]
    ) -> TimerHandle:
        return self.inner.set_timer(delay, callback)

    def timer(self, delay: float, value: Any = None):
        return self.inner.timer(delay, value)

    def event(self):
        return self.inner.event()

    def any_of(self, events):
        return self.inner.any_of(events)

    def spawn(self, generator):
        return self.inner.spawn(generator)

    def run(self, until: Optional[float] = None) -> None:
        self.inner.run(until)

    def run_until_complete(self, process, limit: float = 1e12) -> Any:
        return self.inner.run_until_complete(process, limit)

    def _kick(self) -> None:
        self.inner._kick()

    # -- async lifecycle (wall-clock inners) -------------------------------

    async def start(self) -> None:
        """Start the inner transport (no-op for sim substrates)."""
        start = getattr(self.inner, "start", None)
        if start is not None:
            await start()

    async def stop(self) -> None:
        """Stop the inner transport (no-op for sim substrates)."""
        stop = getattr(self.inner, "stop", None)
        if stop is not None:
            await stop()

    async def wait_for(self, event) -> Any:
        return await self.inner.wait_for(event)

    # -- link faults: send-time state, on any inner substrate --------------

    def partition(self, group) -> None:
        """Drop every message crossing ``group``'s boundary until healed."""
        self._cut.append(frozenset(group))

    def heal(self) -> None:
        self._cut = []

    def set_drop_probability(self, probability: float) -> None:
        """Open (``probability > 0``) or close a drop window; while open,
        each link loses ``max(link.drop, probability)``."""
        _check_probability("drop probability", probability)
        self._window_drop = probability

    # -- the chaotic send path ---------------------------------------------

    def send(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int = 0
    ) -> None:
        metrics = self.inner.metrics
        for group in self._cut:
            if (src in group) != (dst in group):
                self.stats.partition_dropped += 1
                self._count_killed(metrics, size)
                return
        link = self.policy.default
        window = self._window_drop
        if link.quiet and not window:
            self._forward(src, dst, payload, size)
            return
        drop_p = max(link.drop, window)
        if drop_p > 0.0 and self._rng.random() < drop_p:
            if window > link.drop:
                self.stats.window_dropped += 1
            else:
                self.stats.dropped += 1
            self._count_killed(metrics, size)
            return
        if link.corrupt > 0.0 and self._rng.random() < link.corrupt:
            self._corrupt(src, dst, payload, size, metrics)
            return
        self._forward(src, dst, payload, size)
        if link.duplicate > 0.0 and self._rng.random() < link.duplicate:
            self.stats.duplicated += 1
            self._forward(src, dst, payload, size)

    # -- fault mechanics ---------------------------------------------------

    def _forward(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int
    ) -> None:
        self.stats.forwarded += 1
        self.inner.send(src, dst, payload, size)

    def _count_killed(self, metrics: Any, size: int) -> None:
        """Account a message the chaos layer consumed.

        Mirrors the sim network's bookkeeping: every send counts as a
        message, and a chaos kill counts as a drop, so global totals
        stay comparable whether faults are injected by the fair-loss
        network or by this wrapper.
        """
        if metrics is not None:
            metrics.count_message(size)
            metrics.count_drop()

    def _corrupt(
        self,
        src: ProcessId,
        dst: ProcessId,
        payload: Any,
        size: int,
        metrics: Any,
    ) -> None:
        """Flip one bit in the encoded frame and verify the CRC.

        The frame CRC is computed over the pristine encoding and checked
        after the flip — a single-bit flip can never preserve a CRC32,
        so the corruption is always *detected* and the frame discarded.
        Detection-then-discard is the point: fair-loss channels may lose
        but never undetectably corrupt, so transport-level rot must
        surface as an erasure (a drop the retransmission machinery
        heals), never as delivered garbage.
        """
        frame = self._encoded(src, dst, payload, size)
        pristine_crc = zlib.crc32(frame)
        flipped = bytearray(frame)
        bit = self._rng.randrange(len(flipped) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        if zlib.crc32(bytes(flipped)) == pristine_crc:  # pragma: no cover
            # Unreachable for a single-bit flip; kept as the honest
            # "undetected corruption delivers garbage" branch.
            self._forward(src, dst, payload, size)
            return
        self.stats.corrupted += 1
        self._count_killed(metrics, size)

    def _encoded(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int
    ) -> bytes:
        # Imported lazily: wire depends on repro.core.messages, which
        # would make importing this module from repro.transport circular.
        from . import wire

        try:
            return wire.encode_frame(src, dst, payload, size)
        except Exception:
            # Payloads outside the wire registry (ad-hoc test messages)
            # still get a deterministic byte image to corrupt.
            return repr(payload).encode("utf-8", "replace") or b"\x00"

    def __repr__(self) -> str:
        return (
            f"ChaosTransport(inner={type(self.inner).__name__}, "
            f"seed={self.policy.seed}, {self.stats!r})"
        )
