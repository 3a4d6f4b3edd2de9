"""Placement-group rebuild economics: LRC-local vs Reed-Solomon-global.

The placement layer (ROADMAP item 1) exists for one measurable reason:
when a brick dies, a local-reconstruction code rebuilds it from its
*local parity group* — ``local_group_size - 1`` fragment reads per
register — while a Reed-Solomon group must read a full ``m``-subset of
the stripe.  This experiment makes that claim a number.

For each point in a ``groups`` sweep we build **the same sharded
topology twice** — identical brick count, placement map, spare pool,
register routing, and workload; only the per-group code differs — then
kill one data brick, promote a hot spare into its slot, and rebuild.
The :class:`~repro.placement.sharded.BrickRebuildReport` counts every
fragment and byte the rebuild read, so the artifact reports the exact
read amplification of global repair over local repair per failed brick.

With the sweep's geometry (``m = 4`` of ``group_size = 8``, so the LRC
splits into two local groups of 2 data + 1 XOR parity), local repair
reads 2 fragments per register versus Reed-Solomon's 4 — a 2.0x
fragment *and* byte advantage, independent of how many placement groups
the fleet is sharded into (rebuild is group-local by construction; the
rest of the fleet neither reads nor writes a byte).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from ..placement import ShardedCluster, ShardedConfig

__all__ = [
    "RebuildCost",
    "PlacementPoint",
    "PlacementBenchResult",
    "run_placement_bench",
    "render_report",
    "to_json",
]

#: Sweep shape: placement-group counts, bricks per group (``_M`` data
#: slots each), hot spares, registers written before the failure,
#: block size and placement seed.
_GROUPS = (2, 4, 8)
_GROUP_SIZE = 8
_M = 4
_SPARES = 1
_REGISTERS = 24
_BLOCK_SIZE = 64
_SEED = 0


@dataclass
class RebuildCost:
    """What one code kind paid to rebuild one failed brick."""

    code_kind: str
    registers: int = 0
    local_repairs: int = 0
    protocol_repairs: int = 0
    fragments_read: int = 0
    bytes_read: int = 0

    @property
    def fragments_per_register(self) -> float:
        if self.registers == 0:
            return 0.0
        return self.fragments_read / self.registers

    def to_dict(self) -> Dict:
        return {
            "code_kind": self.code_kind,
            "registers": self.registers,
            "local_repairs": self.local_repairs,
            "protocol_repairs": self.protocol_repairs,
            "fragments_read": self.fragments_read,
            "bytes_read": self.bytes_read,
            "fragments_per_register": round(self.fragments_per_register, 3),
        }


@dataclass
class PlacementPoint:
    """One topology: both codes rebuilding the same failed brick."""

    groups: int
    failed_brick: int
    victim_group: int
    lrc: RebuildCost
    rs: RebuildCost

    @property
    def bricks(self) -> int:
        return self.groups * _GROUP_SIZE + _SPARES

    @property
    def fragment_ratio(self) -> float:
        """RS fragments read / LRC fragments read (>1 favors LRC)."""
        if self.lrc.fragments_read == 0:
            return 0.0
        return self.rs.fragments_read / self.lrc.fragments_read

    @property
    def byte_ratio(self) -> float:
        if self.lrc.bytes_read == 0:
            return 0.0
        return self.rs.bytes_read / self.lrc.bytes_read

    def to_dict(self) -> Dict:
        return {
            "groups": self.groups,
            "bricks": self.bricks,
            "spares": _SPARES,
            "group_size": _GROUP_SIZE,
            "m": _M,
            "failed_brick": self.failed_brick,
            "victim_group": self.victim_group,
            "lrc": self.lrc.to_dict(),
            "reed_solomon": self.rs.to_dict(),
            "fragment_ratio": round(self.fragment_ratio, 3),
            "byte_ratio": round(self.byte_ratio, 3),
        }


@dataclass
class PlacementBenchResult:
    """The full groups sweep."""

    points: List[PlacementPoint] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def min_fragment_ratio(self) -> float:
        return min((p.fragment_ratio for p in self.points), default=0.0)

    def to_dict(self) -> Dict:
        return {
            "benchmark": "placement",
            "m": _M,
            "group_size": _GROUP_SIZE,
            "registers": _REGISTERS,
            "block_size": _BLOCK_SIZE,
            "seed": _SEED,
            "groups_swept": [p.groups for p in self.points],
            "min_fragment_ratio": round(self.min_fragment_ratio, 3),
            "wall_seconds": round(self.wall_seconds, 3),
            "points": [p.to_dict() for p in self.points],
        }


def _rebuild_cost(
    code_kind: str, groups: int
) -> Tuple[RebuildCost, int, int]:
    """Load a fleet, kill a data brick, promote a spare, rebuild it.

    The victim is the data slot (local pid 1) of whichever group carries
    the most registers — deterministic given the seed, and identical for
    both code kinds because routing depends only on the placement map.
    Returns the cost, the victim brick and its group.
    """
    cluster = ShardedCluster(ShardedConfig(
        bricks=groups * _GROUP_SIZE + _SPARES,
        groups=groups,
        spares=_SPARES,
        m=_M,
        block_size=_BLOCK_SIZE,
        code_kind=code_kind,
        seed=_SEED,
    ))
    for register_id in range(_REGISTERS):
        register = cluster.register(register_id)
        stripe = [
            bytes([(register_id * _M + index) % 251 or 1]) * _BLOCK_SIZE
            for index in range(_M)
        ]
        register.write_stripe(stripe)
    counts = {
        gid: len(cluster.group_clusters[gid].register_ids())
        for gid in range(groups)
    }
    victim_group = max(sorted(counts), key=lambda gid: counts[gid])
    victim = cluster.brick_at(victim_group, 1)
    cluster.crash_brick(victim)
    spare = cluster.promote_spare(victim)
    report = cluster.rebuild_brick(spare)
    if not report.success:
        raise ConfigurationError(
            f"rebuild of brick {victim} aborted on {report.aborted} registers"
        )
    cost = RebuildCost(
        code_kind=code_kind,
        registers=report.registers,
        local_repairs=report.local_repairs,
        protocol_repairs=report.protocol_repairs,
        fragments_read=report.fragments_read,
        bytes_read=report.bytes_read,
    )
    return cost, victim, victim_group


def run_placement_bench() -> PlacementBenchResult:
    """Sweep placement-group counts; rebuild one brick under each code."""
    started = time.perf_counter()
    result = PlacementBenchResult()
    for groups in _GROUPS:
        lrc, victim, victim_group = _rebuild_cost("lrc", groups)
        rs, rs_victim, _ = _rebuild_cost("reed-solomon", groups)
        # Identical topology + routing: both codes must have killed the
        # same brick and rebuilt the same register population.
        if rs_victim != victim or lrc.registers != rs.registers:
            raise ConfigurationError(
                f"topologies diverged: victims {victim}/{rs_victim}, "
                f"registers {lrc.registers}/{rs.registers}"
            )
        result.points.append(PlacementPoint(
            groups=groups,
            failed_brick=victim,
            victim_group=victim_group,
            lrc=lrc,
            rs=rs,
        ))
    result.wall_seconds = time.perf_counter() - started
    return result


def render_report(result: PlacementBenchResult) -> str:
    """Human-readable sweep summary."""
    lines = [
        "Placement groups — rebuild cost per failed brick, "
        "LRC-local vs RS-global",
        f"geometry: m={_M} of group_size={_GROUP_SIZE}, "
        f"{_REGISTERS} registers, {_BLOCK_SIZE} B blocks, seed {_SEED}",
        "",
        f"{'groups':>7} {'bricks':>7} {'regs':>6} "
        f"{'lrc frags':>10} {'rs frags':>9} "
        f"{'lrc MiB':>9} {'rs MiB':>8} {'ratio':>6}",
    ]
    for point in result.points:
        lines.append(
            f"{point.groups:>7} {point.bricks:>7} "
            f"{point.lrc.registers:>6} "
            f"{point.lrc.fragments_read:>10} {point.rs.fragments_read:>9} "
            f"{point.lrc.bytes_read / 2**20:>9.4f} "
            f"{point.rs.bytes_read / 2**20:>8.4f} "
            f"{point.fragment_ratio:>6.2f}"
        )
    lines.append("")
    lines.append(
        "ratio = RS fragments read / LRC fragments read for the failed "
        "brick's registers; rebuild is group-local, so the advantage "
        "holds at every fleet width"
    )
    return "\n".join(lines) + "\n"


def to_json(result: PlacementBenchResult) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)
