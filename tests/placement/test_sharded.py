"""ShardedCluster: group-sharded registers, hot spares, local rebuild."""

import pytest

from repro.core.rebuild import Scrubber
from repro.errors import ConfigurationError
from repro.placement import ShardedCluster, ShardedConfig


def stripe_of(m, size, tag):
    return [
        bytes((tag * 31 + i * 7 + j) % 251 for j in range(size))
        for i in range(m)
    ]


def loaded_fleet(registers=20, **overrides):
    defaults = dict(bricks=34, groups=4, spares=2, m=4, block_size=64, seed=7)
    defaults.update(overrides)
    cfg = ShardedConfig(**defaults)
    fleet = ShardedCluster(cfg)
    stripes = {}
    for rid in range(registers):
        stripes[rid] = stripe_of(cfg.m, cfg.block_size, rid)
        assert fleet.register(rid).write_stripe(stripes[rid]) == "OK"
    return fleet, stripes


class TestSharding:
    def test_write_read_roundtrip(self):
        fleet, stripes = loaded_fleet()
        for rid, stripe in stripes.items():
            assert fleet.register(rid).read_stripe() == stripe

    def test_registers_stay_inside_their_group(self):
        """A register's state exists only in the group it hashes to —
        the whole point of placement groups."""
        fleet, stripes = loaded_fleet(registers=12)
        pm = fleet.placement
        for rid in stripes:
            home = pm.group_of_register(rid)
            for gid, cluster in enumerate(fleet.group_clusters):
                present = rid in cluster.register_ids()
                assert present == (gid == home)

    def test_register_ids_union(self):
        fleet, stripes = loaded_fleet(registers=9)
        assert fleet.register_ids() == sorted(stripes)

    def test_group_failure_is_contained(self):
        """Crashing a brick degrades only its own group's quorum."""
        fleet, stripes = loaded_fleet(registers=16)
        victim = fleet.placement.members[1][0]
        fleet.crash_brick(victim)
        for rid, stripe in stripes.items():
            assert fleet.register(rid).read_stripe() == stripe

    def test_whole_group_loss_is_contained(self):
        """With every brick of one group down, the other groups still
        read and write: no quorum spans two groups."""
        fleet, stripes = loaded_fleet(registers=16)
        pm = fleet.placement
        for brick in pm.members[1]:
            fleet.crash_brick(brick)
        survivors = [rid for rid in stripes if pm.group_of_register(rid) != 1]
        assert survivors
        for rid in survivors:
            assert fleet.register(rid).read_stripe() == stripes[rid]
            fresh = stripe_of(fleet.config.m, fleet.config.block_size, rid + 50)
            assert fleet.register(rid).write_stripe(fresh) == "OK"
            assert fleet.register(rid).read_stripe() == fresh

    def test_traffic_stays_in_the_home_group(self):
        """Each group has its own transport: a register's ops send
        messages in its home group only."""
        fleet, stripes = loaded_fleet(registers=8)
        for rid, stripe in stripes.items():
            home = fleet.placement.group_of_register(rid)
            before = [c.metrics.total_messages for c in fleet.group_clusters]
            assert fleet.register(rid).read_stripe() == stripe
            after = [c.metrics.total_messages for c in fleet.group_clusters]
            moved = [gid for gid in range(len(before)) if after[gid] != before[gid]]
            assert moved == [home]

    def test_rejects_m_not_below_group_size(self):
        with pytest.raises(ConfigurationError):
            ShardedCluster(ShardedConfig(bricks=8, groups=4, m=2))


class TestSparePromotion:
    def test_promote_seats_spare_in_slot(self):
        fleet, _ = loaded_fleet(registers=4)
        victim = fleet.placement.members[0][2]
        gid, lpid = fleet.slot_of(victim)
        fleet.crash_brick(victim)
        spare = fleet.promote_spare(victim)
        assert spare in fleet.placement.spares
        assert fleet.slot_of(spare) == (gid, lpid)
        assert fleet.brick_at(gid, lpid) == spare
        assert victim in fleet.retired
        with pytest.raises(ConfigurationError):
            fleet.slot_of(victim)

    def test_promote_requires_crashed_brick(self):
        fleet, _ = loaded_fleet(registers=1)
        victim = fleet.placement.members[0][0]
        with pytest.raises(ConfigurationError):
            fleet.promote_spare(victim)

    def test_promote_with_empty_pool_raises(self):
        fleet, _ = loaded_fleet(registers=1, spares=0, bricks=32)
        victim = fleet.placement.members[0][0]
        fleet.crash_brick(victim)
        with pytest.raises(ConfigurationError):
            fleet.promote_spare(victim)

    def test_promoted_spare_arrives_blank(self):
        fleet, _ = loaded_fleet(registers=8)
        victim = fleet.placement.members[0][1]
        gid, lpid = fleet.slot_of(victim)
        fleet.crash_brick(victim)
        fleet.promote_spare(victim)
        cluster = fleet.cluster_of_group(gid)
        assert cluster.replicas[lpid].register_ids() == []


class TestRebuild:
    def test_rebuild_reprotects_promoted_spare(self):
        fleet, stripes = loaded_fleet()
        victim = fleet.placement.members[0][2]
        gid, lpid = fleet.slot_of(victim)
        fleet.crash_brick(victim)
        spare = fleet.promote_spare(victim)
        report = fleet.rebuild_brick(spare)
        assert report.success
        assert report.group == gid
        cluster = fleet.cluster_of_group(gid)
        scrubber = Scrubber(cluster)
        for rid in cluster.register_ids():
            audit = scrubber.scrub_register(rid)
            assert audit.fully_redundant, (rid, audit)
            assert lpid in audit.current
        for rid, stripe in stripes.items():
            assert fleet.register(rid).read_stripe() == stripe

    def test_lrc_rebuild_is_group_local(self):
        """Satellite invariant: with an LRC group code, single-brick
        rebuild reads at most ``local_group_size - 1`` fragments per
        register — never the ``m`` a global code needs."""
        fleet, _ = loaded_fleet()
        victim = fleet.placement.members[0][2]
        fleet.crash_brick(victim)
        spare = fleet.promote_spare(victim)
        gid, _ = fleet.slot_of(spare)
        code = fleet.cluster_of_group(gid).code
        report = fleet.rebuild_brick(spare)
        assert report.success
        assert report.local_repairs == report.registers > 0
        assert report.protocol_repairs == 0
        per_register = code.local_group_size - 1
        assert report.fragments_read <= report.registers * per_register
        assert report.fragments_read < report.registers * code.m

    def test_rebuild_touches_only_the_home_group(self):
        """No other group sends a message or reads a byte during a
        brick rebuild — blast radius is one group."""
        fleet, _ = loaded_fleet()
        victim = fleet.placement.members[2][0]
        gid, _ = fleet.slot_of(victim)
        fleet.crash_brick(victim)
        spare = fleet.promote_spare(victim)
        before = {
            g: (c.metrics.total_messages, c.metrics.total_disk_reads)
            for g, c in enumerate(fleet.group_clusters)
        }
        fleet.rebuild_brick(spare)
        for g, cluster in enumerate(fleet.group_clusters):
            after = (cluster.metrics.total_messages,
                     cluster.metrics.total_disk_reads)
            if g == gid:
                assert after > before[g]
            else:
                assert after == before[g]

    def test_reed_solomon_rebuild_reads_m_per_register(self):
        """The RS baseline the LRC beats: every repair is a full
        ``m``-fragment global read."""
        fleet, _ = loaded_fleet(code_kind="reed-solomon")
        victim = fleet.placement.members[0][2]
        fleet.crash_brick(victim)
        spare = fleet.promote_spare(victim)
        gid, _ = fleet.slot_of(spare)
        code = fleet.cluster_of_group(gid).code
        report = fleet.rebuild_brick(spare)
        assert report.success
        assert report.local_repairs == report.registers > 0
        assert report.fragments_read == report.registers * code.m

    def test_degraded_group_falls_back_to_protocol(self):
        """When a second brick in the failed block's local group is also
        down, the fragment fast path cannot stay local; the protocol
        rebuilder must still re-protect."""
        fleet, stripes = loaded_fleet()
        victim = fleet.placement.members[0][2]
        gid, lpid = fleet.slot_of(victim)
        cluster = fleet.cluster_of_group(gid)
        code = cluster.code
        # Take down one member of the victim's local parity group too
        # (staying inside the campaign tolerance of the group code).
        group = code.group_of(lpid)
        peers = [
            p for p in (set(code.local_groups[group])
                        | {code.local_parity_index(group)})
            if p != lpid
        ]
        other = fleet.brick_at(gid, peers[0])
        fleet.crash_brick(victim)
        spare = fleet.promote_spare(victim)
        fleet.crash_brick(other)
        report = fleet.rebuild_brick(spare)
        assert report.success
        assert report.registers == report.local_repairs + report.protocol_repairs
        for rid, stripe in stripes.items():
            assert fleet.register(rid).read_stripe() == stripe

    def test_rebuild_without_promotion_recovers_brick(self):
        """Rebuilding a crashed (but not replaced) brick first brings it
        back up, then repairs whatever went stale."""
        fleet, stripes = loaded_fleet(registers=8)
        victim = fleet.placement.members[3][1]
        gid, _ = fleet.slot_of(victim)
        fleet.crash_brick(victim)
        home = [
            rid for rid in stripes
            if fleet.placement.group_of_register(rid) == gid
        ]
        for rid in home:
            stripes[rid] = stripe_of(4, 64, tag=100 + rid)
            assert fleet.register(rid).write_stripe(stripes[rid]) == "OK"
        report = fleet.rebuild_brick(victim)
        assert report.success
        assert victim in fleet.live_bricks()
        for rid, stripe in stripes.items():
            assert fleet.register(rid).read_stripe() == stripe

    def test_corrupt_target_behind_warm_mirror_is_repaired(self):
        """Regression: the fragment path audits the target's stored
        copy, not its warm mirror.  A stale brick whose log rotted under
        a warm mirror used to take the fast-path append on top of the
        corrupt journal and stay corrupt; it now goes to the protocol
        repair, which rewrites it."""
        fleet, stripes = loaded_fleet(registers=8)
        victim = fleet.placement.members[3][1]
        gid, lpid = fleet.slot_of(victim)
        cluster = fleet.cluster_of_group(gid)
        fleet.crash_brick(victim)
        rid = next(
            r for r in stripes if fleet.placement.group_of_register(r) == gid
        )
        stripes[rid] = stripe_of(4, 64, tag=200 + rid)
        assert fleet.register(rid).write_stripe(stripes[rid]) == "OK"
        fleet.recover_brick(victim)
        replica = cluster.replicas[lpid]
        replica.state(rid)  # warm the mirror, then rot the disk under it
        assert cluster.nodes[lpid].stable.corrupt(replica.log_key(rid), seed=3)
        report = fleet.rebuild_brick(victim, [rid])
        assert report.protocol_repairs == 1 and report.local_repairs == 0
        assert cluster.nodes[lpid].stable.verify(replica.log_key(rid))
        assert Scrubber(cluster).scrub_register(rid).fully_redundant
        assert fleet.register(rid).read_stripe() == stripes[rid]
