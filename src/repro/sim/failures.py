"""Failure injection.

The protocol's headline claim is correctness "for all patterns of crash
failures and subsequent recoveries".  These injectors script such
patterns against a set of :class:`~repro.sim.node.Node` objects:

* :class:`ScheduledFailures` — crash/recover specific nodes at specific
  simulated times (deterministic scenarios like Figure 5);
* :class:`RandomFailures` — Poisson-ish random crash/recovery churn with
  a cap on concurrently-down nodes (keeping a live quorum available);
* :class:`MessageCountTrigger` — crash a node after it has sent a given
  number of messages, the precise way to cut a coordinator mid-protocol
  (e.g. "crash after the first Write reaches only 4 replicas");
* :class:`CorruptionInjector` — deterministic at-rest damage to stable
  storage: silent bit flips in stored fragments (latent sector errors)
  and torn journal tails (a crash landing mid-append).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..types import ProcessId
from .kernel import Environment
from .network import Network
from .node import Node

__all__ = [
    "FailureEvent",
    "ScheduledFailures",
    "RandomFailures",
    "MessageCountTrigger",
    "CorruptionInjector",
]


@dataclass(frozen=True)
class FailureEvent:
    """One scripted lifecycle change: crash or recover ``node`` at ``time``."""

    time: float
    process_id: ProcessId
    action: str  # "crash" | "recover"

    def __post_init__(self) -> None:
        if self.action not in ("crash", "recover"):
            raise ValueError(f"action must be crash|recover, got {self.action}")


class ScheduledFailures:
    """Apply a deterministic list of :class:`FailureEvent` at their times."""

    def __init__(
        self,
        env: Environment,
        nodes: Dict[ProcessId, Node],
        events: Sequence[FailureEvent],
    ) -> None:
        self.env = env
        self.nodes = nodes
        self.events = sorted(events, key=lambda e: e.time)
        self.applied: List[FailureEvent] = []
        for event in self.events:
            timer = env.timeout(max(0.0, event.time - env.now))
            timer._add_callback(lambda _t, e=event: self._apply(e))

    def _apply(self, event: FailureEvent) -> None:
        node = self.nodes.get(event.process_id)
        if node is None:
            return
        if event.action == "crash":
            node.crash()
        else:
            node.recover()
        self.applied.append(event)


class RandomFailures:
    """Random crash/recovery churn with bounded concurrent failures.

    Every ``check_interval`` time units, each up node crashes with
    probability ``crash_probability`` (unless ``max_down`` nodes are
    already down), and each down node recovers with probability
    ``recovery_probability``.

    Reaching ``horizon`` (or calling :meth:`stop`) *drains* the
    injector: every node this injector crashed and which is still down
    is recovered, so a campaign never ends with nodes silently stuck
    down forever.  Nodes crashed by other actors are left alone.

    Args:
        max_down: cap on simultaneously crashed nodes.  Set to the
            quorum system's ``f`` to guarantee liveness; set higher to
            stress safety under quorum loss.
        horizon: stop injecting (and drain) after this simulated time.
    """

    def __init__(
        self,
        env: Environment,
        nodes: Dict[ProcessId, Node],
        max_down: int,
        crash_probability: float = 0.1,
        recovery_probability: float = 0.5,
        check_interval: float = 10.0,
        horizon: float = 1e9,
        seed: int = 0,
    ) -> None:
        self.env = env
        self.nodes = nodes
        self.max_down = max_down
        self.crash_probability = crash_probability
        self.recovery_probability = recovery_probability
        self.check_interval = check_interval
        self.horizon = horizon
        self.crashes_injected = 0
        self.recoveries_injected = 0
        self.stopped = False
        self._rng = random.Random(seed)
        #: Nodes this injector crashed and has not yet seen recover.
        self._down_by_us: set = set()
        self._schedule_next()

    def _down_count(self) -> int:
        return sum(1 for node in self.nodes.values() if not node.is_up)

    def _schedule_next(self) -> None:
        timer = self.env.timeout(self.check_interval)
        timer._add_callback(lambda _t: self._tick())

    def _tick(self) -> None:
        if self.stopped:
            return
        if self.env.now >= self.horizon:
            self.stop()
            return
        for pid, node in self.nodes.items():
            if node.is_up:
                # A node we crashed that someone else recovered is no
                # longer ours to drain.
                self._down_by_us.discard(pid)
                # Re-check the cap for *each* crash: crashes earlier in
                # this same sweep count against it, so one sweep can
                # never overshoot max_down.
                if (
                    self._down_count() < self.max_down
                    and self._rng.random() < self.crash_probability
                ):
                    node.crash()
                    self._down_by_us.add(pid)
                    self.crashes_injected += 1
            else:
                if self._rng.random() < self.recovery_probability:
                    node.recover()
                    self._down_by_us.discard(pid)
                    self.recoveries_injected += 1
        self._schedule_next()

    def stop(self) -> None:
        """Stop injecting and recover every node this injector downed.

        Idempotent.  Called automatically when the horizon passes; call
        it explicitly to end a campaign early.
        """
        if self.stopped:
            return
        self.stopped = True
        for pid in sorted(self._down_by_us):
            node = self.nodes.get(pid)
            if node is not None and not node.is_up:
                node.recover()
                self.recoveries_injected += 1
        self._down_by_us.clear()


#: The stable-store key of a register's persisted log, as named by
#: :meth:`repro.core.replica.Replica.log_key` (this layer sits below
#: the replica and sees only nodes).
_LOG_KEY = "logj:{}"


class CorruptionInjector:
    """Inject silent at-rest corruption into node stable stores.

    Works directly on the :class:`~repro.sim.node.StableStore` layer —
    below checksum verification — so the damage is exactly what a
    latent sector error or torn write leaves behind.  All injection is
    deterministic: the same ``(pid, register, seed)`` always flips the
    same bit.

    Args:
        nodes: process id -> node map (a crashed node's store is still
            injectable; the damage surfaces at its next read).
        on_corrupt: callback ``(pid, register_id)`` run after a
            successful bit flip — the campaign engine uses it to drop
            the replica's volatile mirror (so the damage is not masked
            by caching) and to inform the invariant monitor.
    """

    def __init__(
        self,
        nodes: Dict[ProcessId, Node],
        on_corrupt: Optional[Callable[[ProcessId, int], None]] = None,
    ) -> None:
        self.nodes = nodes
        self.on_corrupt = on_corrupt
        self.corruptions_injected = 0
        self.torn_injected = 0

    def corrupt(self, pid: ProcessId, register_id: int, seed: int = 0) -> bool:
        """Flip one bit in ``register_id``'s stored log on brick ``pid``.

        Returns True iff a bit was flipped (the register has persistent
        state on that brick with flippable payload).
        """
        node = self.nodes.get(pid)
        if node is None:
            return False
        if node.stable.corrupt(_LOG_KEY.format(register_id), seed):
            self.corruptions_injected += 1
            if self.on_corrupt is not None:
                self.on_corrupt(pid, register_id)
            return True
        return False

    def tear(self, pid: ProcessId, register_id: int) -> bool:
        """Leave a torn (half-written) tail on the register's journal.

        Models a crash mid-append: the record was never acknowledged,
        and recovery truncates it by framing.  Returns True iff a torn
        tail was placed (the register has a journal on that brick).
        """
        node = self.nodes.get(pid)
        if node is None:
            return False
        if node.stable.tear_journal(_LOG_KEY.format(register_id)):
            self.torn_injected += 1
            return True
        return False


class _TriggerDispatch:
    """The single send-path wrapper shared by all triggers on a network.

    The seed implementation had every trigger capture ``network.send``
    at install time and chain-wrap it, so uninstalling triggers in any
    order other than strict reverse restored a stale wrapper — silently
    reviving a removed trigger or dropping a live one.  One dispatcher
    per network with an explicit trigger list makes install/uninstall
    order-independent, and lets the send path revert to the unwrapped
    original as soon as the last trigger is gone (no wrapper cost after
    ``fired``).
    """

    ATTR = "_message_count_dispatch"

    def __init__(self, network: Network) -> None:
        self.network = network
        self.original_send = network.send
        self.triggers: List["MessageCountTrigger"] = []
        network.send = self._send  # type: ignore[assignment]
        setattr(network, self.ATTR, self)

    @classmethod
    def acquire(cls, network: Network) -> "_TriggerDispatch":
        dispatch = getattr(network, cls.ATTR, None)
        if dispatch is None:
            dispatch = cls(network)
        return dispatch

    def add(self, trigger: "MessageCountTrigger") -> None:
        self.triggers.append(trigger)

    def remove(self, trigger: "MessageCountTrigger") -> None:
        try:
            self.triggers.remove(trigger)
        except ValueError:
            return
        if not self.triggers:
            # Last trigger gone: restore the unwrapped send path.
            self.network.send = self.original_send  # type: ignore[assignment]
            if getattr(self.network, self.ATTR, None) is self:
                delattr(self.network, self.ATTR)

    def _send(self, src, dst, payload, size=0):
        fired = None
        for trigger in list(self.triggers):
            if trigger._observe(src, payload):
                fired = trigger if fired is None else fired
                self.remove(trigger)
        # Deliver this last message, then crash — a trigger cuts the
        # sender *between* two protocol messages, not mid-message.
        self.original_send(src, dst, payload, size)
        if fired is not None:
            fired.node.crash()

    def __contains__(self, trigger: "MessageCountTrigger") -> bool:
        return trigger in self.triggers


class MessageCountTrigger:
    """Crash a node after it sends its ``count``-th message.

    Wraps the network's send path (via a per-network dispatcher shared
    by all concurrently installed triggers), so the crash lands between
    two protocol messages — the exact mechanism for constructing partial
    writes ("coordinator crashed after updating 4 of 6 replicas").

    Triggers may be stacked freely and uninstalled in any order; a fired
    trigger removes itself, and once no trigger remains the network's
    send path reverts to the original unwrapped method.

    Args:
        network: the network whose ``send`` is instrumented.
        node: node to crash.
        count: crash immediately after this many messages from the node.
        payload_type: if given, count only payloads of this type.
    """

    def __init__(
        self,
        network: Network,
        node: Node,
        count: int,
        payload_type: Optional[type] = None,
    ) -> None:
        self.node = node
        self.count = count
        self.payload_type = payload_type
        self.fired = False
        self._seen = 0
        self._network = network
        self._dispatch = _TriggerDispatch.acquire(network)
        self._dispatch.add(self)

    def _observe(self, src, payload) -> bool:
        """Count one send; True iff this send fires the trigger."""
        if (
            self.fired
            or src != self.node.process_id
            or (self.payload_type is not None
                and not isinstance(payload, self.payload_type))
        ):
            return False
        self._seen += 1
        if self._seen >= self.count:
            self.fired = True
            return True
        return False

    @property
    def installed(self) -> bool:
        """True while the trigger is armed on the network's send path."""
        return self in self._dispatch

    def uninstall(self) -> None:
        """Remove this trigger; safe in any order, idempotent."""
        self._dispatch.remove(self)
