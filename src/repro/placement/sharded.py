"""A sharded fleet: placement groups of FAB clusters plus a spare pool.

:class:`ShardedCluster` composes one :class:`~repro.core.cluster.
FabCluster` per placement group.  Registers are routed to groups by the
placement hash, every group runs its own quorum system over its own
(deterministic, per-group-seeded) simulation substrate, and a pool of
hot spares stands by for promotion.  Because a register's stripe lives
wholly inside one group, the composition is safe by construction: no
protocol message, quorum intersection, or recovery ever spans groups.

Brick failure handling closes the paper's reliability loop
(Figures 2-3):

1. ``crash_brick`` — the brick's group loses one member; the group
   quorum masks it.
2. ``promote_spare`` — a spare assumes the failed brick's slot with a
   factory-fresh (blank) disk; the global id changes, the group-local
   process id does not.
3. ``rebuild_brick`` — group-local re-protection.  With an LRC group
   code the fragment path reads only the failed brick's *local parity
   group* (``local_group_size`` fragments per register, not ``m``), and
   falls back to the protocol rebuilder (full recovery write-back)
   whenever the fast path cannot prove itself safe: source fragments
   disagreeing on version, quarantined or missing state, or a
   non-reconstructible pattern.  The fallback re-uses
   :class:`~repro.core.rebuild.Rebuilder`, whose empty-brick audit
   (see ``ScrubReport.empty``) guarantees a blank replacement is never
   mistaken for redundant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.cluster import ClusterConfig, FabCluster
from ..core.rebuild import Rebuilder
from ..core.register import StorageRegister
from ..erasure.lrc import LRCCode
from ..errors import CodingError, ConfigurationError, CorruptionDetected
from ..sim.node import StableStore
from .groups import PlacementMap

__all__ = ["ShardedConfig", "ShardedCluster", "BrickRebuildReport"]


@dataclass
class ShardedConfig:
    """Fleet-level configuration.

    Attributes:
        bricks: total fleet size including spares.
        groups: placement-group count; each group becomes one
            independent FAB cluster of ``(bricks - spares) / groups``
            bricks.
        spares: hot-spare pool size.
        m: data blocks per stripe inside each group (the group's
            cluster runs ``m``-of-``group_size``).
        block_size: stripe-unit size in bytes.
        code_kind: per-group erasure code (default ``"lrc"`` — the
            locality the layer exists for; any registered kind works).
        domains: failure domains for balanced placement.
        seed: master seed — placement, routing, and every group's
            cluster derive determinism from it.
        cluster: template for per-group cluster configuration (network,
            coordinator knobs, ...); ``m``/``n``/
            ``code_kind``/``seed`` are overridden per group.
    """

    bricks: int = 16
    groups: int = 4
    spares: int = 0
    m: int = 2
    block_size: int = 1024
    code_kind: str = "lrc"
    domains: int = 1
    seed: int = 0
    cluster: ClusterConfig = field(default_factory=ClusterConfig)


@dataclass
class BrickRebuildReport:
    """Outcome of one brick's group-local rebuild."""

    brick: int
    group: int
    registers: int = 0
    local_repairs: int = 0
    protocol_repairs: int = 0
    already_current: int = 0
    aborted: int = 0
    fragments_read: int = 0
    bytes_read: int = 0

    @property
    def success(self) -> bool:
        return self.aborted == 0


class ShardedCluster:
    """Placement groups of FAB clusters with hot-spare promotion."""

    def __init__(self, config: Optional[ShardedConfig] = None) -> None:
        self.config = config or ShardedConfig()
        cfg = self.config
        self.placement = PlacementMap(
            cfg.bricks, cfg.groups, cfg.spares, seed=cfg.seed,
            domains=cfg.domains,
        )
        group_size = self.placement.group_size
        if cfg.m >= group_size:
            raise ConfigurationError(
                f"need m < group size, got m={cfg.m}, "
                f"group size={group_size}"
            )
        self.group_clusters: List[FabCluster] = []
        for gid in range(cfg.groups):
            group_config = replace(
                cfg.cluster,
                m=cfg.m,
                n=group_size,
                block_size=cfg.block_size,
                code_kind=cfg.code_kind,
                # Distinct per-group seeds, all derived from the master.
                seed=cfg.seed * 8191 + gid,
            )
            self.group_clusters.append(FabCluster(group_config))
        # Brick-to-slot mapping is mutable: promotion retires the failed
        # global id and seats the spare in its slot.
        self._slot_of: Dict[int, Tuple[int, int]] = {
            brick: self.placement.slot_of(brick)
            for group in self.placement.members
            for brick in group
        }
        self._brick_at: Dict[Tuple[int, int], int] = {
            slot: brick for brick, slot in self._slot_of.items()
        }
        self.spare_pool: List[int] = list(self.placement.spares)
        self.retired: List[int] = []

    # -- topology -------------------------------------------------------

    def slot_of(self, brick: int) -> Tuple[int, int]:
        """Current ``(group, local_pid)`` seat of a brick."""
        slot = self._slot_of.get(brick)
        if slot is None:
            raise ConfigurationError(
                f"brick {brick} holds no slot (spare or retired)"
            )
        return slot

    def brick_at(self, group: int, local_pid: int) -> int:
        """Global brick id currently seated at a slot."""
        return self._brick_at[(group, local_pid)]

    def cluster_of_group(self, group: int) -> FabCluster:
        return self.group_clusters[group]

    def live_bricks(self) -> List[int]:
        """Global ids of seated, currently-up bricks."""
        return sorted(
            brick
            for brick, (gid, lpid) in self._slot_of.items()
            if self.group_clusters[gid].nodes[lpid].is_up
        )

    # -- register routing -----------------------------------------------

    def register(
        self, register_id: int, route: Optional[int] = None
    ) -> StorageRegister:
        """A register handle, routed to its placement group.

        With no explicit ``route``, the coordinator is the group's first
        *live* brick — any brick can coordinate (paper Section 2), and a
        fleet client should not stall because the default one is down.
        """
        gid = self.placement.group_of_register(register_id)
        cluster = self.group_clusters[gid]
        if route is None:
            live = cluster.live_processes()
            route = live[0] if live else None
        return cluster.register(register_id, route=route)

    def register_ids(self) -> List[int]:
        """Every register with state anywhere in the fleet."""
        seen: set = set()
        for cluster in self.group_clusters:
            seen.update(cluster.register_ids())
        return sorted(seen)

    # -- failure handling -----------------------------------------------

    def crash_brick(self, brick: int) -> None:
        gid, lpid = self.slot_of(brick)
        self.group_clusters[gid].crash(lpid)

    def recover_brick(self, brick: int) -> None:
        gid, lpid = self.slot_of(brick)
        self.group_clusters[gid].recover(lpid)

    def promote_spare(self, failed_brick: int) -> int:
        """Seat a hot spare in a crashed brick's slot.

        The spare takes over the slot's group-local process id (its
        network identity inside the group) with a factory-fresh stable
        store — the moral equivalent of racking a new brick at the dead
        one's address.  The failed global id is retired.  Returns the
        spare's global id.  The new brick holds *nothing* until
        :meth:`rebuild_brick` re-protects the group's registers.
        """
        if not self.spare_pool:
            raise ConfigurationError("spare pool is empty")
        gid, lpid = self.slot_of(failed_brick)
        cluster = self.group_clusters[gid]
        node = cluster.nodes[lpid]
        if node.is_up:
            raise ConfigurationError(
                f"brick {failed_brick} is up; promotion replaces failed bricks"
            )
        spare = self.spare_pool.pop(0)
        node.stable = StableStore(
            verify_checksums=node.stable.verify_checksums
        )
        del self._slot_of[failed_brick]
        self._slot_of[spare] = (gid, lpid)
        self._brick_at[(gid, lpid)] = spare
        self.retired.append(failed_brick)
        cluster.recover(lpid)
        return spare

    # -- rebuild --------------------------------------------------------

    def rebuild_brick(
        self,
        brick: int,
        register_ids: Optional[Iterable[int]] = None,
        prefer_local: bool = True,
    ) -> BrickRebuildReport:
        """Re-protect one brick's registers, group-locally.

        Only the brick's placement group participates — the rest of the
        fleet neither reads nor writes a byte.  With an LRC group code
        and ``prefer_local``, each register is repaired by reading the
        failed block's local parity group (at most ``local_group_size``
        fragments); the protocol rebuilder handles everything the fast
        path cannot prove safe.

        The fragment fast path is an *operator* path, like scrubbing:
        it assumes no client writes race the repair (the protocol
        fallback is linearization-safe regardless).
        """
        gid, lpid = self.slot_of(brick)
        cluster = self.group_clusters[gid]
        if not cluster.nodes[lpid].is_up:
            cluster.recover(lpid)
        if register_ids is None:
            register_ids = cluster.register_ids()
        ids = sorted(set(register_ids))
        report = BrickRebuildReport(brick=brick, group=gid, registers=len(ids))
        rebuilder = Rebuilder(cluster, route=self._live_route(cluster, lpid))
        for register_id in ids:
            if prefer_local and self._rebuild_fragment_local(
                cluster, lpid, register_id, report
            ):
                report.local_repairs += 1
                continue
            outcome = "aborted"
            for _attempt in range(3):
                outcome = rebuilder.rebuild_register(register_id)
                if outcome != "aborted":
                    break
            if outcome == "repaired":
                report.protocol_repairs += 1
            elif outcome == "current":
                report.already_current += 1
            else:
                report.aborted += 1
        return report

    @staticmethod
    def _live_route(cluster: FabCluster, avoid: int) -> int:
        """A live coordinator pid, preferring bricks other than ``avoid``
        (the brick under repair should not coordinate its own rebuild)."""
        live = cluster.live_processes()
        for pid in live:
            if pid != avoid:
                return pid
        return live[0] if live else 1

    def _rebuild_fragment_local(
        self,
        cluster: FabCluster,
        lpid: int,
        register_id: int,
        report: BrickRebuildReport,
    ) -> bool:
        """Try the fragment-level local repair.  True on success.

        Safe only when the local sources prove a consistent picture:
        every source fragment carries the same newest version timestamp
        and the target accepts it under its ``ord-ts`` gate.  Any doubt
        returns False and the caller falls back to protocol recovery.
        """
        code = cluster.code
        target = cluster.replicas[lpid]
        try:
            if target.has_register(register_id):
                state = target.state(register_id)
                target_ts = state.log.max_ts()
            else:
                state = None
                target_ts = None
        except CorruptionDetected:
            return False  # quarantined: the protocol repair path owns it
        available = [
            pid
            for pid in cluster.live_processes()
            if pid != lpid and cluster.replicas[pid].has_register(register_id)
        ]
        try:
            if isinstance(code, LRCCode):
                sources = code.recovery_sources(lpid, available)
            else:
                if len(available) < code.m:
                    return False
                sources = sorted(available)[: code.m]
        except CodingError:
            return False
        fragments: Dict[int, bytes] = {}
        version = None
        for pid in sources:
            try:
                source_state = cluster.replicas[pid].state(register_id)
            except CorruptionDetected:
                return False
            ts, block = source_state.log.max_block()
            if source_state.log.max_ts() != ts or not isinstance(
                block, (bytes, bytearray)
            ):
                # A ⊥ tail or nil value: the group is mid-write or
                # empty; let the protocol sort it out.
                return False
            if version is None:
                version = ts
            elif ts != version:
                return False  # sources disagree: not quiesced
            fragments[pid] = bytes(block)
            report.fragments_read += 1
            report.bytes_read += len(block)
            cluster.metrics.count_disk_read()
        if version is None:
            return False
        if target_ts is not None and target_ts >= version:
            return False  # target is not behind; scrub/protocol decides
        if version < target.ord_ts_of(register_id):
            return False  # would violate the NVRAM ordering gate
        try:
            if isinstance(code, LRCCode):
                fragment = code.reconstruct(lpid, fragments)
            else:
                data = code.decode(fragments)
                if lpid <= code.m:
                    fragment = data[lpid - 1]
                else:
                    fragment = code.encode(data)[lpid - 1]
        except CodingError:
            return False
        if state is None:
            state = target.state(register_id)
        target.persist_append(
            register_id, state.log.append(version, fragment)
        )
        cluster.metrics.count_disk_write()
        return True

    # -- diagnostics ----------------------------------------------------

    def total_disk_reads(self) -> int:
        return sum(c.metrics.total_disk_reads for c in self.group_clusters)

    def total_disk_writes(self) -> int:
        return sum(c.metrics.total_disk_writes for c in self.group_clusters)

    def total_messages(self) -> int:
        return sum(c.metrics.total_messages for c in self.group_clusters)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"ShardedCluster(bricks={cfg.bricks}, groups={cfg.groups}, "
            f"group_size={self.placement.group_size}, m={cfg.m}, "
            f"code={cfg.code_kind!r}, spares={len(self.spare_pool)})"
        )
