"""The fault plan: explicit, serializable, shrinkable — and its applier.

Every fault is a :class:`FaultEvent` in a :class:`CampaignSchedule`,
generated up front from a seed (:func:`generate_schedule`) or built by
hand, and injected by one applier (:func:`apply_schedule`,
:func:`apply_event`) on the cluster's transport — so one plan means the
same faults in virtual time and in wall time.  That makes three things
possible:

* determinism: the same seed always yields the same schedule, and the
  same schedule always yields the same run;
* serialization: a schedule (the whole failure pattern) round-trips
  through JSON, so a violating run's artifact *is* its reproducer;
* shrinking: the delta-debugging shrinker re-runs the campaign with
  subsets of the event list — only possible because the events are
  explicit data, not callbacks buried in an injector.

Generated paired events (crash/recover, partition/heal, drop window
start/stop) withdraw everything they inject by the end of the
schedule; an unpaired one stays in force for the rest of the run.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "FaultEvent",
    "CampaignSchedule",
    "generate_schedule",
    "apply_schedule",
    "apply_event",
]

#: Recognized fault-event kinds.
KINDS = (
    "crash",
    "recover",
    "partition",
    "heal",
    "drop_start",
    "drop_stop",
    "corrupt",
    "torn_write",
)

#: The stable-store key of a register's persisted log, as named by
#: :meth:`repro.core.replica.Replica.log_key` (store faults land below
#: the replica and see only nodes).
_LOG_KEY = "logj:{}"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action.

    Attributes:
        time: transport time the event fires.
        kind: one of :data:`KINDS`.
        targets: ``crash`` / ``recover``: the bricks; ``partition``: the
            group cut off from everyone else.  Empty for ``heal`` (heals
            everything) and drop-window events.  ``corrupt`` /
            ``torn_write``: ``(pid, register_id)``.
        value: the drop probability for ``drop_start``; the
            deterministic bit-flip seed for ``corrupt``; unused
            otherwise.
        after: ``crash`` only, optional ``(message type name, k)``: from
            ``time`` on, crash the one target right after its k-th send
            of that type — the way to cut a coordinator mid-protocol.
    """

    time: float
    kind: str
    targets: Tuple[int, ...] = ()
    value: float = 0.0
    after: Optional[Tuple[str, int]] = None

    def __post_init__(self) -> None:
        kind, targets = self.kind, self.targets
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; want one of {KINDS}"
            )
        if kind in ("corrupt", "torn_write"):
            want = "(pid >= 1, register >= 0)"
            ok = len(targets) == 2 and targets[0] >= 1 and targets[1] >= 0
        elif kind in ("crash", "recover", "partition"):
            want = "at least one pid, each >= 1"
            ok = bool(targets) and min(targets) >= 1
        else:
            want, ok = "no targets", not targets
        if not ok:
            raise ConfigurationError(
                f"{kind} wants targets {want}, got {targets!r}"
            )
        if kind == "drop_start" and not 0.0 <= self.value < 1.0:
            raise ConfigurationError(
                f"drop_start probability must be in [0, 1), got {self.value}"
            )
        if self.after is not None and not (
            kind == "crash" and len(targets) == 1
            and self.after[0] and self.after[1] >= 1
        ):
            raise ConfigurationError(
                f"after= needs a one-target crash and (type name, k >= 1), "
                f"got {kind} {targets!r} after={self.after!r}"
            )

    def to_dict(self) -> Dict:
        data = {
            "time": self.time,
            "kind": self.kind,
            "targets": list(self.targets),
            "value": self.value,
        }
        if self.after is not None:
            data["after"] = list(self.after)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultEvent":
        try:
            fields = dict(
                time=float(data["time"]),
                kind=str(data["kind"]),
                targets=tuple(int(t) for t in data.get("targets", ())),
                value=float(data.get("value", 0.0)),
            )
            if data.get("after") is not None:
                name, count = data["after"]
                fields["after"] = (str(name), int(count))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed fault event {data!r}: {exc!r}"
            ) from None
        return cls(**fields)


@dataclass
class CampaignSchedule:
    """A complete failure pattern for one run.

    Attributes:
        events: time-ordered fault events.
        clock_skews: per-process clock skew (applied at cluster build —
            skew is a static property of a run, not a timed event).
        seed: the seed that generated this schedule (0 for hand-built
            schedules; informational only).
    """

    events: List[FaultEvent] = field(default_factory=list)
    clock_skews: Dict[int, float] = field(default_factory=dict)
    seed: int = 0

    def sorted_events(self) -> List[FaultEvent]:
        """Events in application order (time, then list position)."""
        return sorted(
            self.events, key=lambda e: e.time
        )  # sort is stable: same-time events keep list order

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "clock_skews": {str(pid): s for pid, s in self.clock_skews.items()},
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSchedule":
        return cls(
            events=[FaultEvent.from_dict(e) for e in data.get("events", ())],
            clock_skews={
                int(pid): float(s)
                for pid, s in data.get("clock_skews", {}).items()
            },
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSchedule":
        return cls.from_dict(json.loads(text))

    def subset(self, events: Sequence[FaultEvent]) -> "CampaignSchedule":
        """A copy of this schedule carrying only ``events`` (for shrinking)."""
        return CampaignSchedule(
            events=list(events),
            clock_skews=dict(self.clock_skews),
            seed=self.seed,
        )


# -- the applier ---------------------------------------------------------------

#: ``on_event(event, took_effect)``, run after each event takes effect.
EventHook = Callable[[FaultEvent, bool], None]


def apply_event(
    cluster, event: FaultEvent, on_event: Optional[EventHook] = None
) -> bool:
    """Apply ``event`` to ``cluster`` (anything with ``transport`` and
    ``nodes``) now.

    Crash/recover go through the endpoints, link events through the
    transport's ``partition`` / ``heal`` / ``set_drop_probability``,
    corrupt/torn_write to the brick's stable store.  A crash with
    ``after`` is only armed here, and reaches ``on_event`` when it
    fires.  Returns whether the event took effect: False for an armed
    crash, or a store fault that found nothing to damage.  Raises
    :class:`ConfigurationError` on a pid outside the cluster.
    """
    _check_targets(cluster, event)
    if event.after is not None:
        def fire() -> None:
            cluster.nodes[event.targets[0]].crash()
            if on_event is not None:
                on_event(event, True)

        _arm_send_trigger(cluster.nodes[event.targets[0]], event.after, fire)
        return False
    kind, targets, transport = event.kind, event.targets, cluster.transport
    took_effect = True
    if kind == "crash":
        for pid in targets:
            cluster.nodes[pid].crash()
    elif kind == "recover":
        for pid in targets:
            cluster.nodes[pid].recover()
    elif kind == "partition":
        transport.partition(set(targets))
    elif kind == "heal":
        transport.heal()
    elif kind in ("drop_start", "drop_stop"):
        transport.set_drop_probability(
            event.value if kind == "drop_start" else 0.0
        )
    else:
        pid, register_id = targets
        store, key = cluster.nodes[pid].stable, _LOG_KEY.format(register_id)
        if kind == "corrupt":
            took_effect = store.corrupt(key, int(event.value))
        else:
            took_effect = store.tear_journal(key)
    if on_event is not None:
        on_event(event, took_effect)
    return took_effect


def apply_schedule(
    cluster, schedule: CampaignSchedule, on_event: Optional[EventHook] = None
) -> Counter:
    """Arm every event of ``schedule`` on ``cluster``'s transport timers.

    Events fire at their ``time`` (same-time events in list order) via
    :func:`apply_event`; ``on_event`` runs after each.  Every target is
    checked against the cluster before anything is armed.  Returns a
    live :class:`~collections.Counter` of events that took effect, by
    kind (``applied["corrupt"]`` counts the bits actually flipped).
    """
    applied: Counter = Counter()

    def note(event: FaultEvent, took_effect: bool) -> None:
        applied[event.kind] += took_effect
        if on_event is not None:
            on_event(event, took_effect)

    events = schedule.sorted_events()
    for event in events:
        _check_targets(cluster, event)
    transport = cluster.transport
    for event in events:
        transport.set_timer(
            max(0.0, event.time - transport.now()),
            lambda e=event: apply_event(cluster, e, note),
        )
    return applied


def _check_targets(cluster, event: FaultEvent) -> None:
    pids = event.targets[:1] if event.kind in ("corrupt", "torn_write") \
        else event.targets
    for pid in pids:
        if pid not in cluster.nodes:
            raise ConfigurationError(
                f"{event.kind} at t={event.time} targets pid {pid}, "
                f"not in the cluster {sorted(cluster.nodes)}"
            )


def _arm_send_trigger(node, after: Tuple[str, int], fire) -> None:
    """Run ``fire`` right after ``node``'s k-th send of a message type.

    While any trigger is armed on a node its instance ``send`` is a
    counting wrapper; triggers sit in one list, so they fire in any
    order, and the last one to fire restores the class method — a node
    with nothing armed pays nothing per send.
    """
    if "send" not in vars(node):
        triggers: list = []

        def send(dst, payload, size=0) -> None:
            fired = []
            if node.is_up:
                for trigger in list(triggers):
                    if trigger[0] == type(payload).__name__:
                        trigger[1] -= 1
                        if trigger[1] == 0:
                            triggers.remove(trigger)
                            fired.append(trigger[2])
                if not triggers:
                    del node.send
            # Deliver this message, then crash: the trigger cuts the
            # sender between two protocol messages, not mid-message.
            type(node).send(node, dst, payload, size)
            for callback in fired:
                callback()

        send.triggers = triggers
        node.send = send
    node.send.triggers.append([after[0], after[1], fire])


# -- generation ----------------------------------------------------------------


#: Chance a scheduled crash also leaves a torn journal tail (when
#: corruption is enabled).
_TORN_WRITE_PROBABILITY = 0.5
#: Upper bound of a drop window's loss probability.
_DROP_MAX = 0.2
#: Ranges a partition's and a drop window's lifetime are drawn from.
_PARTITION_TIME = (20.0, 50.0)
_DROP_TIME = (10.0, 30.0)


def _within_budget(down, pid: int, corrupted, max_down: int) -> bool:
    """True iff ``pid`` joining ``down`` keeps every register's
    ``|down ∪ corrupted_ever[r]|`` within ``max_down``."""
    faulty = set(down) | {pid}
    return all(len(faulty | bricks) <= max_down for bricks in corrupted)


def generate_schedule(
    *,
    seed: int,
    n: int,
    duration: float,
    max_down: int,
    crash_weight: float = 3.0,
    partition_weight: float = 1.0,
    drop_weight: float = 1.0,
    corrupt_weight: float = 0.0,
    registers: int = 0,
    event_gap: Tuple[float, float] = (10.0, 40.0),
    down_time: Tuple[float, float] = (20.0, 60.0),
    max_clock_skew: float = 0.0,
) -> CampaignSchedule:
    """Generate a seeded fault schedule for ``n`` bricks.

    Crash events respect ``max_down`` *at generation time* (never more
    than ``max_down`` schedule-crashed nodes at once), partitions cut a
    minority group of at most ``max_down`` bricks, and every injected
    fault carries a matching withdrawal (recover / heal / drop_stop) no
    later than ``duration``.  A zero or negative weight disables that
    fault class entirely; ``partition_weight=0, drop_weight=0`` gives
    crash/recover churn only.

    ``corrupt_weight > 0`` (with ``registers > 0``) adds silent
    bit-flip events: each targets one ``(brick, register)`` pair with a
    deterministic bit seed in ``value``.  Corruption and crashes share
    one budget: at every instant, for every register r, the bricks down
    plus the bricks ever corrupted at r number at most ``max_down`` —
    a crash or corruption that would exceed it is not scheduled — so a
    sound configuration (``n >= 2f + m``) always retains a clean
    ordering quorum and recoverability.  When corruption is enabled,
    each scheduled crash is also followed (with probability
    ``_TORN_WRITE_PROBABILITY``) by a ``torn_write`` event at the same
    instant, modelling the in-flight journal append the crash cut off.
    A drop window loses each message with a probability drawn from
    ``[0.01, _DROP_MAX]``; partitions and drop windows last a time drawn
    from ``_PARTITION_TIME`` and ``_DROP_TIME``.
    """
    rng = random.Random(seed)
    events: List[FaultEvent] = []
    down_until: Dict[int, float] = {}  # pid -> scheduled recovery time
    partition_open_until = 0.0
    drop_open_until = 0.0
    #: register -> bricks ever corrupted there.
    corrupted: Dict[int, set] = {}
    corruption_on = corrupt_weight > 0 and registers > 0

    kinds: List[str] = []
    weights: List[float] = []
    for kind, weight in (
        ("crash", crash_weight),
        ("partition", partition_weight),
        ("drop", drop_weight),
        ("corrupt", corrupt_weight if corruption_on else 0.0),
    ):
        if weight > 0:
            kinds.append(kind)
            weights.append(weight)

    now = 0.0
    while kinds:
        now += rng.uniform(*event_gap)
        if now >= duration:
            break
        # Forget completed recoveries so the cap frees up.
        down_until = {p: t for p, t in down_until.items() if t > now}
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        if kind == "crash":
            candidates = [
                p for p in range(1, n + 1) if p not in down_until
                and _within_budget(down_until, p, corrupted.values(), max_down)
            ]
            if len(down_until) >= max_down or not candidates:
                continue
            pid = rng.choice(candidates)
            back = min(duration, now + rng.uniform(*down_time))
            events.append(FaultEvent(time=now, kind="crash", targets=(pid,)))
            if corruption_on and rng.random() < _TORN_WRITE_PROBABILITY:
                # The crash cut an in-flight journal append: leave a
                # torn tail at the same instant (applied after the
                # crash — same-time events keep list order).
                register = rng.randrange(registers)
                events.append(FaultEvent(
                    time=now, kind="torn_write", targets=(pid, register),
                ))
            events.append(FaultEvent(time=back, kind="recover", targets=(pid,)))
            down_until[pid] = back
        elif kind == "corrupt":
            register = rng.randrange(registers)
            bricks = corrupted.setdefault(register, set())
            candidates = [
                p for p in range(1, n + 1)
                if _within_budget(down_until, p, [bricks], max_down)
            ]
            if not candidates:
                continue
            pid = rng.choice(candidates)
            bricks.add(pid)
            events.append(FaultEvent(
                time=now, kind="corrupt", targets=(pid, register),
                value=float(rng.randrange(1 << 16)),
            ))
        elif kind == "partition":
            if now < partition_open_until or max_down < 1:
                continue
            size = rng.randint(1, max(1, max_down))
            group = tuple(sorted(rng.sample(range(1, n + 1), size)))
            heal_at = min(duration, now + rng.uniform(*_PARTITION_TIME))
            events.append(
                FaultEvent(time=now, kind="partition", targets=group)
            )
            events.append(FaultEvent(time=heal_at, kind="heal"))
            partition_open_until = heal_at
        else:  # drop window
            if now < drop_open_until:
                continue
            stop_at = min(duration, now + rng.uniform(*_DROP_TIME))
            events.append(
                FaultEvent(
                    time=now, kind="drop_start",
                    value=round(rng.uniform(0.01, _DROP_MAX), 4),
                )
            )
            events.append(FaultEvent(time=stop_at, kind="drop_stop"))
            drop_open_until = stop_at

    skews = {
        pid: round(rng.uniform(-max_clock_skew, max_clock_skew), 6)
        for pid in range(1, n + 1)
    } if max_clock_skew > 0 else {}

    events.sort(key=lambda e: e.time)
    return CampaignSchedule(events=events, clock_skews=skews, seed=seed)
