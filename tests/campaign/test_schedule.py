"""Schedule generation: determinism, pairing, serialization."""

import pytest

from repro.campaign import CampaignConfig
from repro.campaign.schedule import (
    CampaignSchedule,
    FaultEvent,
    generate_schedule,
)
from repro.errors import ConfigurationError


def gen(seed=0, **kwargs):
    defaults = dict(seed=seed, n=5, duration=400.0, max_down=1)
    defaults.update(kwargs)
    return generate_schedule(**defaults)


class TestGeneration:
    def test_deterministic_for_seed(self):
        assert gen(seed=3).to_dict() == gen(seed=3).to_dict()
        assert gen(seed=3).to_dict() != gen(seed=4).to_dict()

    def test_events_sorted_and_within_duration(self):
        schedule = gen(seed=1)
        times = [e.time for e in schedule.events]
        assert times == sorted(times)
        assert all(0 < t <= 400.0 for t in times)

    def test_every_fault_is_withdrawn(self):
        for seed in range(10):
            schedule = gen(seed=seed)
            down = set()
            partitioned = False
            dropping = False
            for event in schedule.sorted_events():
                if event.kind == "crash":
                    down.update(event.targets)
                elif event.kind == "recover":
                    down.difference_update(event.targets)
                elif event.kind == "partition":
                    partitioned = True
                elif event.kind == "heal":
                    partitioned = False
                elif event.kind == "drop_start":
                    dropping = True
                elif event.kind == "drop_stop":
                    dropping = False
            assert not down, f"seed {seed} leaves {down} down forever"
            assert not partitioned
            assert not dropping

    def test_max_down_respected_at_generation(self):
        for seed in range(10):
            schedule = gen(seed=seed, max_down=2, crash_weight=10.0)
            down = set()
            for event in schedule.sorted_events():
                if event.kind == "crash":
                    down.update(event.targets)
                    assert len(down) <= 2
                elif event.kind == "recover":
                    down.difference_update(event.targets)

    def test_joint_fault_budget_per_register(self):
        """Down bricks plus bricks ever corrupted on a register never
        exceed max_down, at any instant, for any register (the default
        campaign's schedules at corrupt_weight=1, seeds 0-199)."""
        config = CampaignConfig(corrupt_weight=1.0)
        max_down = config.effective_max_down
        corrupted_runs = 0
        for seed in range(200):
            schedule = gen(
                seed=seed, n=config.n, duration=config.duration,
                max_down=max_down, corrupt_weight=1.0,
                registers=config.registers,
            )
            down, corrupted = set(), {}
            for event in schedule.sorted_events():
                if event.kind == "crash":
                    down.update(event.targets)
                elif event.kind == "recover":
                    down.difference_update(event.targets)
                elif event.kind == "corrupt":
                    pid, register = event.targets
                    corrupted.setdefault(register, set()).add(pid)
                for bricks in [set()] + list(corrupted.values()):
                    assert len(down | bricks) <= max_down, (seed, event)
            corrupted_runs += bool(corrupted)
        assert corrupted_runs > 150  # the budget constrains, not disables

    def test_zero_weight_disables_fault_class(self):
        schedule = gen(seed=2, partition_weight=0.0, drop_weight=0.0)
        kinds = {e.kind for e in schedule.events}
        assert kinds <= {"crash", "recover"}

    def test_clock_skews_generated_when_enabled(self):
        assert gen(seed=1).clock_skews == {}
        skews = gen(seed=1, max_clock_skew=5.0).clock_skews
        assert set(skews) == {1, 2, 3, 4, 5}
        assert all(-5.0 <= s <= 5.0 for s in skews.values())


class TestSerialization:
    def test_json_round_trip(self):
        schedule = gen(seed=9, max_clock_skew=2.0)
        restored = CampaignSchedule.from_json(schedule.to_json())
        assert restored.to_dict() == schedule.to_dict()
        assert restored.events == schedule.events
        assert restored.clock_skews == schedule.clock_skews

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=1.0, kind="meteor")

    def test_subset_keeps_skews_and_seed(self):
        schedule = gen(seed=9, max_clock_skew=2.0)
        sub = schedule.subset(schedule.events[:2])
        assert sub.events == schedule.events[:2]
        assert sub.clock_skews == schedule.clock_skews
        assert sub.seed == schedule.seed
