"""Percentiles, the ten-samples-beyond rule, and run summaries."""

import statistics

from benchmarks.e2e.metrics import (
    END_TO_END,
    is_worse,
    percentile,
    summarize,
    supported_percentile,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) == 0.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert supported_percentile(19) is None
    assert supported_percentile(20) == 0.50
    assert supported_percentile(199) == 0.90
    assert supported_percentile(200) == 0.95  # exactly ten beyond p95
    assert supported_percentile(999) == 0.95
    assert supported_percentile(1000) == 0.99


def test_summary_uses_the_contracts_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    summary = summarize(values)
    q1, _median, q3 = statistics.quantiles(values, n=4)
    assert (summary["q1"], summary["q3"]) == (q1, q3)
    assert summary["median"] == statistics.median(values)
    assert summary["n"] == 7
    assert summarize([2.0])["q1"] == summarize([2.0])["q3"] == 2.0


def test_worse_respects_direction_and_bound():
    by_name = {metric.name: metric for metric in END_TO_END}
    throughput, setup = by_name["ops_per_s"], by_name["setup_s"]
    assert not is_worse(throughput, 100.0, 76.0)
    assert is_worse(throughput, 100.0, 74.0)
    assert not is_worse(throughput, 100.0, 150.0)
    assert is_worse(setup, 1.0, 1.3)
    assert not is_worse(setup, 1.0, 0.5)
