"""Fault-campaign smoke bench.

Runs a small seed sweep of the randomized fault campaign (crash/recovery
churn + partitions + drop windows against a live mixed workload) and
asserts the paper's headline safety claim held online: zero invariant
violations on a correct (m, n, f) configuration, across every seed.
Also runs the deliberately broken ``n < 2f + m`` configuration and
asserts the harness catches it and shrinks the schedule to a small
reproducer — i.e. the detector itself is alive, not vacuously green.

Artifact: ``benchmarks/out/campaign_smoke.txt`` (sweep report).
"""

import json

from repro.analysis import campaign as campaign_analysis
from repro.campaign.engine import CampaignConfig, broken_config

from .conftest import write_artifact

#: Small but representative: a few seeds, full fault mix, short horizon.
SMOKE_SEEDS = range(5)
SMOKE_CONFIG = CampaignConfig(duration=300.0, ops_per_client=20)


def run_smoke():
    return campaign_analysis.run_suite(SMOKE_CONFIG, seeds=SMOKE_SEEDS)


def test_bench_campaign(benchmark):
    suite = benchmark.pedantic(run_smoke, rounds=1, iterations=1)
    write_artifact("campaign_smoke", campaign_analysis.render_report(suite))

    # The headline: every seed ran its whole schedule with faults
    # injected and recovered, and no invariant was violated.
    assert suite.ok, f"violating seeds: {[o.result.seed for o in suite.violating]}"
    for outcome in suite.outcomes:
        result = outcome.result
        assert result.schedule_events > 0  # faults actually happened
        assert result.recoveries_checked > 0  # crashes actually recovered
        assert result.ops.get("ok", 0) > 0  # the workload made progress

    payload = json.loads(campaign_analysis.to_json(suite))
    assert payload["benchmark"] == "campaign"
    assert payload["ok"] is True
    assert len(payload["results"]) == len(list(SMOKE_SEEDS))


def test_bench_campaign_broken_config_is_caught():
    suite = campaign_analysis.run_suite(
        broken_config(SMOKE_CONFIG), seeds=[0]
    )
    assert not suite.ok, "broken n < 2f + m config went undetected"
    outcome = suite.violating[0]
    invariants = {v.invariant for v in outcome.result.violations}
    assert "quorum-precondition" in invariants
    assert outcome.reproducer is not None
    assert len(outcome.reproducer.events) <= 10
