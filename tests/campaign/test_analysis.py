"""Suite runner, report rendering, and the JSON artifact contract."""

import json

from repro.analysis.campaign import render_report, run_suite, to_json
from repro.campaign import CampaignConfig, broken_config

QUICK = CampaignConfig(duration=200.0, ops_per_client=12, clients=2)


class TestSuite:
    def test_clean_sweep(self):
        suite = run_suite(QUICK, seeds=[0, 1])
        assert suite.ok
        assert [o.result.seed for o in suite.outcomes] == [0, 1]
        report = render_report(suite)
        assert "no invariant violations" in report

    def test_artifact_is_deterministic(self):
        first = to_json(run_suite(QUICK, seeds=[0, 1]))
        second = to_json(run_suite(QUICK, seeds=[0, 1]))
        assert first == second

    def test_violating_seed_gets_reproducer(self):
        suite = run_suite(broken_config(QUICK), seeds=[0])
        assert not suite.ok
        outcome = suite.violating[0]
        assert outcome.reproducer is not None
        assert len(outcome.reproducer.events) <= 10
        payload = json.loads(to_json(suite))
        assert payload["ok"] is False
        assert payload["violating_seeds"] == [0]
        assert "reproducer" in payload["results"][0]
        report = render_report(suite)
        assert "reproducer" in report
        assert "quorum-precondition" in report

    def test_json_shape(self):
        payload = json.loads(to_json(run_suite(QUICK, seeds=[0])))
        assert payload["benchmark"] == "campaign"
        assert payload["config"]["m"] == QUICK.m
        assert payload["config"]["n"] == QUICK.n
        for key in ("corrupt_weight", "scrub_enabled"):
            assert key in payload["config"]
        result = payload["results"][0]
        for key in (
            "seed", "ok", "violations", "ops", "schedule_events",
            "recoveries_checked", "blocks_checked", "sim_time",
            "reads_verified", "corruption",
        ):
            assert key in result
        # The corruption-resilience counters are part of the artifact
        # contract even on corruption-free runs (all zeros there).
        for counter in (
            "corruptions_injected", "torn_injected", "checksum_failures",
            "degraded_reads", "scrub_repairs",
        ):
            assert counter in result["corruption"]

    def test_corrupting_sweep_counters(self):
        config = CampaignConfig(
            duration=200.0, ops_per_client=12, clients=2,
            corrupt_weight=2.0, scrub_enabled=True,
        )
        suite = run_suite(config, seeds=[0, 1])
        assert suite.ok  # checksums on: corruption never violates
        payload = json.loads(to_json(suite))
        injected = sum(
            r["corruption"]["corruptions_injected"]
            for r in payload["results"]
        )
        detected = sum(
            r["corruption"]["checksum_failures"]
            for r in payload["results"]
        )
        assert injected > 0
        assert detected > 0
        report = render_report(suite)
        assert "corruption:" in report
        assert "[scrub on]" in report
