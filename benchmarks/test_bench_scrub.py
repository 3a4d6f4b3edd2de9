"""Scrub bench: detection latency, repair throughput, sampling economics.

Runs the scrub experiment at two corruption rates plus the paired
corruption-free baseline/scrub-on runs, and asserts the robustness
headline numbers:

* every injected bit flip is detected (by a client's degraded read or
  by the background scan) and repaired — the cluster ends fully clean;
* the scrubber finds damage in *cold* registers (ones no client
  touches), with finite detection latency;
* no client read ever returns wrong data while all this is happening;
* the scrub daemon costs a corruption-free workload < 15% ops/s.

The sampling sweep then measures the scheduler's economics at fleet
scale (1000 registers), asserting >= 95% per-cycle detection confidence
at <= 25% of the full-sweep scan cost — and that fixed-seed corruption
campaigns stay bit-identical with the seeded sampler running.

Artifacts: ``benchmarks/out/scrub_daemon.txt`` (report) and
``benchmarks/out/BENCH_scrub.json`` (detection latency and repair
throughput at each corruption rate, plus the
detection-latency-vs-sample-rate curves under ``"sampling"``).
"""

import json

from repro.analysis import scrub as scrub_analysis
from repro.campaign.engine import CampaignConfig, run_campaign

from .conftest import OUT_DIR, write_artifact

#: Two corruption rates (per client op), as the acceptance bar requires.
RATES = (0.05, 0.15)
OPS = 300
#: The sampled scheduler must reach this per-cycle detection
#: confidence at no more than MAX_COST_FRACTION of the full sweep.
TARGET_CONFIDENCE = 0.95
MAX_COST_FRACTION = 0.25


def run_experiment():
    experiment = scrub_analysis.run_scrub_experiment(
        ops=OPS, corrupt_rates=RATES
    )
    return experiment, scrub_analysis.run_sampling_sweep()


def test_bench_scrub(benchmark):
    experiment, sampling = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    write_artifact(
        "scrub_daemon",
        scrub_analysis.render_report(experiment)
        + "\n"
        + scrub_analysis.render_sampling_report(sampling),
    )
    json_path = OUT_DIR / "BENCH_scrub.json"
    json_path.write_text(
        scrub_analysis.to_json(experiment, sampling=sampling) + "\n"
    )

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

    # -- sampling economics: the detection-latency-vs-sample-rate axes.
    axes = payload["sampling"]
    assert axes["registers"] >= 1000
    assert axes["curves"], "sampling sweep produced no curve points"
    for point in axes["curves"]:
        for key in (
            "sample_rate", "scan_budget", "detection_confidence",
            "predicted_confidence", "mean_detection_cycles",
            "mean_detection_latency",
        ):
            assert key in point, f"curve point missing {key}"
    # Headline: >= 95% per-cycle detection confidence at <= 25% of the
    # full-sweep scan cost.
    confident_cheap = [
        point for point in axes["curves"]
        if point["sample_rate"] <= MAX_COST_FRACTION
        and point["detection_confidence"] >= TARGET_CONFIDENCE
    ]
    assert confident_cheap, (
        f"no sample rate <= {MAX_COST_FRACTION} reached "
        f"{TARGET_CONFIDENCE:.0%} detection confidence: {axes['curves']}"
    )
    # Latency degrades gracefully: the full sweep is never *faster*
    # (in cycles) than the confident sampled point.
    full = max(axes["curves"], key=lambda p: p["sample_rate"])
    assert min(
        p["mean_detection_cycles"] for p in confident_cheap
    ) <= full["mean_detection_cycles"] * 1.5 + 1e-9


def test_sampling_campaigns_deterministic():
    """Fixed-seed corruption campaigns are bit-identical with the seeded
    scrub sampler running."""
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
