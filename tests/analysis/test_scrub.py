"""The scrub experiment: one full pass per wake-up, runs-only reports."""

import json

from repro.analysis.scrub import (
    _RUN_SCRUB_INTERVAL,
    ScrubExperiment,
    render_report,
    run_scrub_run,
    to_json,
)

#: 8 registers on 5 bricks.
PAIRS = 40


def test_scrub_off_run_scans_nothing():
    result = run_scrub_run(ops=30, scrub_enabled=False)
    assert result.scrub_scans == 0
    assert result.clean_after and result.read_mismatches == 0


def test_each_wake_up_audits_every_pair():
    # The daemon starts before the registers are populated and wakes
    # every interval until the drain ends; each wake-up scans them all.
    result = run_scrub_run(ops=60)
    wake_ups = int(result.sim_time // _RUN_SCRUB_INTERVAL)
    assert wake_ups >= 2
    assert result.scrub_scans == wake_ups * PAIRS
    assert result.scrub_detections == 0
    assert result.clean_after


def test_report_and_json_carry_runs_only():
    clean = run_scrub_run(ops=20, scrub_enabled=False)
    corrupting = run_scrub_run(ops=60, corrupt_rate=0.15)
    experiment = ScrubExperiment(
        baseline=clean, scrub_clean=clean, runs=[corrupting], pairs=1,
    )
    payload = json.loads(to_json(experiment))
    assert "sampling" not in payload
    assert [run["corrupt_rate"] for run in payload["runs"]] == [0.15]
    report = render_report(experiment)
    assert "Sampled" not in report
    assert "client reads returning wrong data across all runs: " \
        f"{corrupting.read_mismatches}" in report
