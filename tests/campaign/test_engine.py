"""The campaign engine: determinism, invariants, broken-config detection."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignSchedule,
    FaultEvent,
    broken_config,
    generate_schedule,
    run_campaign,
)
from repro.errors import ConfigurationError

#: Short but non-trivial: faults fire, ops abort and crash, GC runs.
QUICK = CampaignConfig(duration=200.0, ops_per_client=12, clients=2)


class TestCorrectConfig:
    def test_zero_violations_across_seeds(self):
        for seed in range(4):
            result = run_campaign(replace(QUICK, seed=seed))
            assert result.ok, (
                f"seed {seed}: {[v.detail for v in result.violations]}"
            )

    def test_deterministic(self):
        first = run_campaign(replace(QUICK, seed=11))
        second = run_campaign(replace(QUICK, seed=11))
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
        assert first.schedule.to_dict() == second.schedule.to_dict()

    def test_campaign_exercises_faults_and_recoveries(self):
        result = run_campaign(replace(QUICK, seed=0))
        assert result.schedule_events > 0
        assert result.recoveries_checked > 0
        assert result.samples_taken > 0
        assert result.ops.get("ok", 0) > 0
        assert result.blocks_checked == QUICK.registers * QUICK.m

    def test_explicit_schedule_overrides_generation(self):
        schedule = CampaignSchedule(
            events=[
                FaultEvent(time=20.0, kind="crash", targets=(2,)),
                FaultEvent(time=60.0, kind="recover", targets=(2,)),
            ]
        )
        result = run_campaign(replace(QUICK, seed=5), schedule=schedule)
        assert result.schedule_events == 2
        assert result.recoveries_checked == 1
        assert result.ok

    def test_clock_skew_config_stays_safe(self):
        config = replace(QUICK, seed=2)
        schedule = generate_schedule(
            seed=config.seed, n=config.n, duration=config.duration,
            max_down=config.effective_max_down, registers=config.registers,
            max_clock_skew=8.0,
        )
        assert schedule.clock_skews
        result = run_campaign(config, schedule=schedule)
        assert result.ok


@pytest.mark.parametrize("bad", [
    {"registers": 0}, {"clients": 0}, {"ops_per_client": 0},
    {"clients": -2},
])
def test_empty_workloads_are_refused(bad):
    """A campaign that issues no op checks nothing: refused, not a pass;
    so is a cluster with empty blocks, instead of aborting every op."""
    with pytest.raises(ConfigurationError, match="must be >= 1"):
        CampaignConfig(**bad)
    with pytest.raises(ConfigurationError, match="block_size"):
        run_campaign(CampaignConfig(block_size=0, seed=1))


class TestCodeKindPassthrough:
    def test_single_cluster_campaign_over_lrc(self):
        """CampaignConfig.code_kind reaches the cluster: a campaign over
        an LRC cluster (one placement group's geometry) passes unchanged."""
        result = run_campaign(CampaignConfig(
            m=4, n=8, code_kind="lrc", seed=5,
            registers=4, clients=2, ops_per_client=15,
            duration=200.0, drain=120.0,
        ))
        assert result.ok, result.violations
        assert result.ops.get("ok", 0) > 0


#: One placement group's geometry (m=4 of 8 bricks); a group is its own
#: cluster and transport, so the plain engine covers a fleet's groups.
GROUP = CampaignConfig(
    m=4, n=8, registers=4, clients=2, ops_per_client=12,
    duration=200.0, drain=120.0,
)


@pytest.mark.parametrize("code_kind", ["lrc", "reed-solomon"])
class TestGroupGeometry:
    def test_passes_all_invariants(self, code_kind):
        for seed in range(3):
            result = run_campaign(replace(GROUP, code_kind=code_kind, seed=seed))
            assert result.ok, (
                f"seed {seed}: {[v.detail for v in result.violations]}"
            )
            assert result.schedule_events > 0
            assert result.ops.get("ok", 0) > 0

    def test_deterministic(self, code_kind):
        config = replace(GROUP, code_kind=code_kind, seed=3)
        first = run_campaign(config)
        second = run_campaign(config)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_broken_config_is_detected(self, code_kind):
        result = run_campaign(
            broken_config(replace(GROUP, code_kind=code_kind, seed=1))
        )
        assert not result.ok
        invariants = {v.invariant for v in result.violations}
        assert "quorum-precondition" in invariants


class TestBrokenConfig:
    def test_broken_config_is_detected(self):
        cfg = broken_config(replace(QUICK, seed=1))
        assert cfg.n < 2 * cfg.effective_f + cfg.m
        result = run_campaign(cfg)
        assert not result.ok
        invariants = {v.invariant for v in result.violations}
        assert "quorum-precondition" in invariants

    def test_precondition_fires_even_with_empty_schedule(self):
        cfg = broken_config(replace(QUICK, seed=1))
        result = run_campaign(cfg, schedule=CampaignSchedule())
        assert not result.ok
        assert result.violations[0].time == 0.0


class TestKnownFindings:
    @pytest.mark.parametrize("seed", [18, 209])
    def test_scrub_repaired_log_never_reads_nil(self, seed):
        """RS(3,5) with corrupt faults and scrub on, on the seeds' own
        schedules shrunk by ``shrink_schedule``: both read nil after
        completed writes when they were found.  They no longer reach
        that interleaving even without the log floor (a log that starts
        above LowTS answers a read below its first entry as an
        erasure), so they do not guard it; the floor is pinned seed-free
        by ``tests/core/test_replica.py::TestOrderReadHandler::
        test_bound_at_or_below_the_log_floor_is_an_erasure``."""
        schedule = CampaignSchedule.from_json(
            (Path(__file__).parent / "reproducers" / f"seed{seed}.json")
            .read_text()
        )
        config = CampaignConfig(
            seed=seed, corrupt_weight=1.0, scrub_enabled=True
        )
        result = run_campaign(config, schedule=schedule)
        assert result.ok, [v.detail for v in result.violations]

    def test_seed8010_shrunk_schedule_is_linearizable(self):
        """The 18-event schedule of ``CampaignConfig(seed=8010)``,
        shrunk to 10 events by ``shrink_schedule`` (57 runs).  It read
        v35 on register 3 block 1 after the write of v39 completed.
        Since a read whose only defect is a silent target reads around
        it instead of recovering, the run no longer reaches that
        interleaving and is linearizable.  The fresh-timestamp defect
        behind it (ROADMAP 1(a)) is still pinned, seed-free, in
        ``tests/core/test_coordinator_block.py::TestKnownFindings``."""
        schedule = CampaignSchedule.from_json(
            (Path(__file__).parent / "reproducers" / "seed8010.json")
            .read_text()
        )
        result = run_campaign(CampaignConfig(seed=8010), schedule=schedule)
        assert result.ok, [v.detail for v in result.violations]
