"""Fault campaigns over a sharded, LRC-coded fleet.

The campaign engine (:mod:`repro.campaign.engine`) validates one FAB
cluster.  A placement-group fleet is a *composition* of such clusters,
and the composition argument — registers never span groups, so no
protocol message crosses a group boundary — means fleet-level validity
reduces to per-group validity **under a consistent fleet-level failure
pattern**.  This module makes that argument executable:

1. one fleet-level fault schedule is generated from the master seed,
   targeting *global* brick ids (so a scheduled crash is a physical
   event: the brick dies, whichever group it serves);
2. the schedule is *projected* onto each group — crash/recover and
   partition targets are filtered to the group's members and remapped
   to group-local process ids, network-weather windows (message-drop
   probability) apply fleet-wide;
3. each group runs the standard campaign over its own registers with
   the projected schedule and a group-derived seed, checking the full
   invariant suite (timestamp sanity, strict linearizability, read
   integrity);
4. the fleet result aggregates the per-group results; the fleet passes
   iff every group passes.

Because the fleet schedule caps concurrent crashes at one group's fault
tolerance, no projection can exceed any group's bound — the fleet
campaign proves the invariants are placement-agnostic, not that groups
survive over-budget damage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from ..campaign.engine import CampaignConfig, CampaignResult, run_campaign
from ..campaign.schedule import CampaignSchedule, FaultEvent, generate_schedule
from ..erasure.registry import make_code
from ..errors import ConfigurationError
from ..quorum.theorems import max_fault_tolerance
from .groups import PlacementMap

__all__ = [
    "ShardedCampaignConfig",
    "ShardedCampaignResult",
    "project_schedule",
    "run_sharded_campaign",
]

#: Campaign clients driving each placement group.
_CLIENTS_PER_GROUP = 2


@dataclass(frozen=True)
class ShardedCampaignConfig:
    """Knobs for one sharded-fleet campaign run.

    Attributes:
        bricks / groups / spares / domains: fleet shape (spares take no
            workload — they exist so the placement matches production
            layouts; promotion is exercised by the placement tests, not
            mid-campaign).
        m / block_size / code_kind: per-group stripe geometry and code
            (default LRC — the layout this layer exists for).
        seed: master seed; the fleet schedule, per-group cluster seeds,
            and register routing all derive from it.
        registers: fleet-wide register count; ids are routed to groups
            by the placement hash, exactly as :class:`~repro.placement.
            sharded.ShardedCluster` routes them.
        ops_per_client: workload inside each group, which runs two
            campaign clients with the campaign's operation mix.
        duration / drain: schedule horizon and settle time.
        crash_weight / partition_weight / drop_weight: fleet fault mix,
            forwarded to the schedule generator.
    """

    bricks: int = 34
    groups: int = 4
    spares: int = 2
    domains: int = 1
    m: int = 4
    block_size: int = 32
    code_kind: str = "lrc"
    seed: int = 0
    registers: int = 16
    ops_per_client: int = 20
    duration: float = 300.0
    drain: float = 150.0
    crash_weight: float = 3.0
    partition_weight: float = 1.0
    drop_weight: float = 1.0


@dataclass
class ShardedCampaignResult:
    """Aggregated outcome of one fleet campaign."""

    seed: int
    group_results: List[CampaignResult] = field(default_factory=list)
    schedule: CampaignSchedule = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.group_results)

    @property
    def violations(self) -> List:
        return [
            violation
            for result in self.group_results
            for violation in result.violations
        ]

    @property
    def ops(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for result in self.group_results:
            for status, count in result.ops.items():
                totals[status] = totals.get(status, 0) + count
        return dict(sorted(totals.items()))

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "groups": [result.to_dict() for result in self.group_results],
            "ops": self.ops,
            "fleet_schedule_events": (
                len(self.schedule.events) if self.schedule else 0
            ),
        }


def project_schedule(
    fleet: CampaignSchedule, placement: PlacementMap, group: int
) -> CampaignSchedule:
    """Project a fleet-level schedule onto one placement group.

    Crash/recover/partition targets are global brick ids; events whose
    targets intersect the group's membership are kept with targets
    remapped to group-local process ids, the rest are dropped (a crash
    of another group's brick — or of an idle spare — is invisible
    here).  ``heal`` and drop-window events carry no targets and apply
    to every group: network weather is fleet-wide.
    """
    members = set(placement.members[group])
    local = {brick: placement.slot_of(brick)[1] for brick in members}
    events: List[FaultEvent] = []
    for event in fleet.sorted_events():
        if event.kind in ("crash", "recover", "partition"):
            kept = tuple(
                sorted(local[t] for t in event.targets if t in members)
            )
            if kept:
                events.append(replace(event, targets=kept))
        elif event.kind in ("heal", "drop_start", "drop_stop"):
            events.append(event)
        # corrupt / torn_write target (brick, register) pairs whose
        # register ids are fleet-scoped; the fleet generator keeps
        # corruption disabled, so projection need not translate them.
    skews = {
        local[brick]: skew
        for brick, skew in fleet.clock_skews.items()
        if brick in members
    }
    return CampaignSchedule(events=events, clock_skews=skews, seed=fleet.seed)


def run_sharded_campaign(
    config: ShardedCampaignConfig,
) -> ShardedCampaignResult:
    """Run the campaign over every placement group; fully deterministic.

    One fleet schedule, ``config.groups`` projected campaigns, one
    aggregated verdict.  Raises :class:`ConfigurationError` for
    geometries where ``m`` does not fit the group size.
    """
    placement = PlacementMap(
        config.bricks, config.groups, config.spares,
        seed=config.seed, domains=config.domains,
    )
    group_size = placement.group_size
    if config.m >= group_size:
        raise ConfigurationError(
            f"need m < group size, got m={config.m}, group size={group_size}"
        )
    tolerance = max_fault_tolerance(
        make_code(config.m, group_size, config.code_kind)
    )
    fleet_schedule = generate_schedule(
        seed=config.seed,
        n=config.bricks,
        duration=config.duration,
        # The fleet never has more bricks down at once than one group
        # tolerates, so every projection stays within its group's bound.
        max_down=max(1, tolerance),
        crash_weight=config.crash_weight,
        partition_weight=config.partition_weight,
        drop_weight=config.drop_weight,
    )
    result = ShardedCampaignResult(seed=config.seed, schedule=fleet_schedule)
    for gid in range(config.groups):
        share = placement.registers_of_group(range(config.registers), gid)
        group_config = CampaignConfig(
            m=config.m,
            n=group_size,
            block_size=config.block_size,
            code_kind=config.code_kind,
            # Same derivation ShardedCluster uses for per-group seeds.
            seed=config.seed * 8191 + gid,
            registers=max(1, len(share)),
            clients=_CLIENTS_PER_GROUP,
            ops_per_client=config.ops_per_client,
            duration=config.duration,
            drain=config.drain,
        )
        projected = project_schedule(fleet_schedule, placement, gid)
        result.group_results.append(run_campaign(group_config, projected))
    return result
