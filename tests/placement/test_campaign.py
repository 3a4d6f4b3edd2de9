"""Sharded fault campaigns: projection, determinism, invariants."""

from repro.campaign.engine import CampaignConfig, run_campaign
from repro.campaign.schedule import generate_schedule
from repro.placement import (
    PlacementMap,
    ShardedCampaignConfig,
    project_schedule,
    run_sharded_campaign,
)


def quick_config(**overrides):
    defaults = dict(
        seed=3,
        registers=12,
        ops_per_client=12,
        duration=200.0,
        drain=120.0,
    )
    defaults.update(overrides)
    return ShardedCampaignConfig(**defaults)


class TestProjection:
    def test_targets_remap_to_local_pids(self):
        pm = PlacementMap(bricks=34, groups=4, spares=2, seed=7)
        fleet = generate_schedule(seed=7, n=34, duration=400.0, max_down=2)
        for gid in range(4):
            projected = project_schedule(fleet, pm, gid)
            for event in projected.events:
                for target in event.targets:
                    assert 1 <= target <= pm.group_size

    def test_every_crash_lands_in_exactly_one_group_or_nowhere(self):
        """A physical brick failure concerns one group (or an idle
        spare); projections must neither duplicate nor invent crashes."""
        pm = PlacementMap(bricks=34, groups=4, spares=2, seed=7)
        fleet = generate_schedule(seed=7, n=34, duration=400.0, max_down=2)
        fleet_crashes = [e for e in fleet.events if e.kind == "crash"]
        spare_hits = sum(
            1 for e in fleet_crashes if e.targets[0] in pm.spares
        )
        projected_crashes = sum(
            sum(1 for e in project_schedule(fleet, pm, gid).events
                if e.kind == "crash")
            for gid in range(4)
        )
        assert projected_crashes == len(fleet_crashes) - spare_hits

    def test_network_weather_is_fleet_wide(self):
        pm = PlacementMap(bricks=34, groups=4, spares=2, seed=7)
        fleet = generate_schedule(seed=7, n=34, duration=400.0, max_down=2)
        drops = [e for e in fleet.events if e.kind == "drop_start"]
        for gid in range(4):
            projected = project_schedule(fleet, pm, gid)
            assert [
                e.value for e in projected.events if e.kind == "drop_start"
            ] == [e.value for e in drops]


class TestShardedCampaign:
    def test_fixed_seed_campaign_passes_all_invariants(self):
        """The acceptance bar: a seeded fault campaign over a sharded,
        LRC-coded fleet upholds every online invariant."""
        result = run_sharded_campaign(quick_config())
        assert result.ok, result.violations
        assert len(result.group_results) == 4
        assert result.ops.get("ok", 0) > 0
        for group_result in result.group_results:
            assert group_result.blocks_checked >= 0
            assert group_result.samples_taken > 0

    def test_campaign_is_deterministic(self):
        a = run_sharded_campaign(quick_config())
        b = run_sharded_campaign(quick_config())
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_outcome_details(self):
        a = run_sharded_campaign(quick_config(seed=3))
        b = run_sharded_campaign(quick_config(seed=4))
        assert a.to_dict() != b.to_dict()

    def test_reed_solomon_fleet_also_passes(self):
        """The harness is code-agnostic; the MDS baseline must pass the
        same bar."""
        result = run_sharded_campaign(
            quick_config(code_kind="reed-solomon")
        )
        assert result.ok, result.violations


class TestCodeKindPassthrough:
    def test_single_cluster_campaign_over_lrc(self):
        """CampaignConfig.code_kind reaches the cluster: a plain (non-
        sharded) campaign over an LRC cluster passes unchanged."""
        result = run_campaign(CampaignConfig(
            m=4, n=8, code_kind="lrc", seed=5,
            registers=4, clients=2, ops_per_client=15,
            duration=200.0, drain=120.0,
        ))
        assert result.ok, result.violations
        assert result.ops.get("ok", 0) > 0
