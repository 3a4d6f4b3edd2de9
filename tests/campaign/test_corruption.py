"""Corruption faults in the campaign: sound configs survive, the
escape hatch demonstrates what checksums prevent."""

import functools
from dataclasses import replace

import pytest

import repro.transport.base
from repro.campaign import CampaignConfig, run_campaign
from repro.sim.node import StableStore

#: QUICK plus corruption faults; checksums on (the sound default).
CORRUPTING = CampaignConfig(
    duration=200.0, ops_per_client=12, clients=2, corrupt_weight=2.0,
)


class TestSoundConfig:
    def test_zero_violations_with_checksums_on(self):
        # The robustness headline: silent corruption plus crashes,
        # partitions and drops — and no invariant ever fires, because
        # every bad fragment is detected and masked as an erasure.
        injected = 0
        for seed in range(4):
            result = run_campaign(replace(CORRUPTING, seed=seed))
            assert result.ok, (
                f"seed {seed}: {[v.detail for v in result.violations]}"
            )
            injected += result.corruption["corruptions_injected"]
        assert injected > 0  # the schedule actually corrupted things

    def test_detection_counters_populate(self):
        result = run_campaign(replace(CORRUPTING, seed=1))
        corruption = result.corruption
        assert corruption["corruptions_injected"] > 0
        assert corruption["checksum_failures"] > 0
        assert result.reads_verified > 0

    def test_deterministic_with_corruption(self):
        import json

        first = run_campaign(replace(CORRUPTING, seed=5))
        second = run_campaign(replace(CORRUPTING, seed=5))
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_scrub_daemon_rides_along(self):
        result = run_campaign(
            replace(CORRUPTING, seed=2, scrub_enabled=True)
        )
        assert result.ok
        assert result.corruption["scrub_scans"] > 0
        # The monitor observes without loading damaged copies, so the
        # scan, not the monitor, finds what no client read.
        assert result.corruption["scrub_detections"] > 0


#: The corruption-heavy run both escape-hatch tests share.
ROTTING = replace(CORRUPTING, seed=1, corrupt_weight=4.0)


@pytest.fixture
def checksums_off(monkeypatch):
    """Every brick built while active gets a store that skips its read
    check (envelopes are still written)."""
    monkeypatch.setattr(
        repro.transport.base, "StableStore",
        functools.partial(StableStore, verify_checksums=False),
    )
    return monkeypatch


class TestEscapeHatch:
    def test_read_verification_catches_served_rot(self, checksums_off):
        # verify_checksums=False turns the store into a liar; the
        # read-verification invariant (and usually linearizability
        # too) must catch garbage reaching a client.
        result = run_campaign(ROTTING)
        assert not result.ok
        invariants = {v.invariant for v in result.violations}
        assert "read-verification" in invariants

    def test_same_schedule_is_clean_with_checksums_on(self, checksums_off):
        # The exact schedule that poisons the unprotected run is
        # harmless with verification enabled.
        poisoned = run_campaign(ROTTING)
        assert not poisoned.ok
        checksums_off.undo()
        protected = run_campaign(ROTTING, schedule=poisoned.schedule)
        assert protected.ok, [v.detail for v in protected.violations]
        assert protected.corruption["checksum_failures"] > 0
