"""Scrub bench: detection latency, repair throughput, overhead.

Runs the scrub experiment at two corruption rates plus the paired
corruption-free baseline/scrub-on runs, and asserts the robustness
headline numbers:

* every injected bit flip is detected (by a client's degraded read or
  by the background scan) and repaired — the cluster ends fully clean;
* the scrubber finds damage in *cold* registers (ones no client
  touches), with finite detection latency;
* no client read ever returns wrong data while all this is happening;
* the scrub daemon costs a corruption-free workload < 15% ops/s.

It also checks that fixed-seed corruption campaigns stay bit-identical
with the scrub daemon running.

Artifacts: ``benchmarks/out/scrub_daemon.txt`` (report) and
``benchmarks/out/BENCH_scrub.json`` (detection latency and repair
throughput at each corruption rate).
"""

import json

from repro.analysis import scrub as scrub_analysis
from repro.campaign.engine import CampaignConfig, run_campaign

from .conftest import OUT_DIR, write_artifact

#: Two corruption rates (per client op), as the acceptance bar requires.
RATES = (0.05, 0.15)
OPS = 300


def run_experiment():
    return scrub_analysis.run_scrub_experiment(ops=OPS, corrupt_rates=RATES)


def test_bench_scrub(benchmark):
    experiment = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    write_artifact("scrub_daemon", scrub_analysis.render_report(experiment))
    json_path = OUT_DIR / "BENCH_scrub.json"
    json_path.write_text(scrub_analysis.to_json(experiment) + "\n")

    for run in experiment.runs:
        assert run.injected > 0  # corruption actually happened
        assert run.checksum_failures > 0  # ...and was detected
        assert run.scrub_detections > 0  # ...some of it by the scan
        assert run.scrub_repairs > 0  # ...and repaired in background
        assert run.detection_latencies  # cold-register latency measured
        assert run.clean_after  # every brick verified clean at the end
        assert run.read_mismatches == 0  # no wrong data ever served

    # Scrubbing a corruption-free workload must cost < 15% ops/s.
    assert experiment.overhead_percent < 15.0, (
        f"scrub overhead {experiment.overhead_percent:.1f}% >= 15%"
    )

    payload = json.loads(json_path.read_text())
    assert payload["benchmark"] == "scrub"
    assert len(payload["runs"]) == len(RATES)
    for entry in payload["runs"]:
        assert entry["mean_detection_latency"] > 0
        assert entry["repair_throughput"] > 0


def test_scrub_campaigns_deterministic():
    """Fixed-seed corruption campaigns are bit-identical with the scrub
    daemon running."""
    config = CampaignConfig(
        seed=7,
        registers=6,
        clients=2,
        ops_per_client=15,
        duration=250.0,
        corrupt_weight=2.0,
        scrub_enabled=True,
    )
    first = run_campaign(config)
    second = run_campaign(config)
    assert first.to_dict() == second.to_dict()
    assert first.corruption["scrub_scans"] > 0
    assert first.ok, first.violations
