"""Metric definitions and the small statistics the harness reports with.

Three tables name every number the benchmark prints:

* :data:`END_TO_END` — reported by every workload in the untraced pass
  and gated by ``BENCHMARK.json`` (a self-test keeps the two equal);
* :data:`REPORTED` — end-to-end numbers only some workloads have
  (latency needs a wall-clock substrate, ``space_amp`` a reachable
  cluster, ``seeds_per_s`` the campaign), printed, stored in ``--json``
  artifacts and judged by :mod:`benchmarks.e2e.compare`, but not in
  ``BENCHMARK.json`` because its contract wants every gated metric from
  every workload;
* :data:`PER_LAYER` — the traced pass's table.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Metric",
    "END_TO_END",
    "REPORTED",
    "PER_LAYER",
    "percentile",
    "supported_percentile",
    "summarize",
    "is_worse",
]


@dataclass(frozen=True)
class Metric:
    """One named number: unit, which direction is better, regression bound.

    ``exact`` marks the ISSUE's dagger: on the sim workloads and the
    campaign the value is a pure function of the seed, so two runs must
    agree bit for bit and a count-based claim may rest on it.
    """

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    exact: bool = False


#: The two speed metrics carry the widest bound the contract allows:
#: on the shared 2-core VMs this runs on, ten same-commit runs spread
#: 4-11% between their quartiles (README, "Repeatability"), and a bound
#: must clear the spread of the noisiest workload.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "ops/s", "higher", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.10),
]

REPORTED: List[Metric] = [
    Metric("read_p50_ms", "ms", "lower", 0.10),
    Metric("write_p50_ms", "ms", "lower", 0.10),
    Metric("read_p95_ms", "ms", "lower", 0.10),
    Metric("write_p95_ms", "ms", "lower", 0.10),
    Metric("seeds_per_s", "seeds/s", "higher", 0.10),
    Metric("space_amp", "ratio", "lower", 0.02),
]


def _layer(prefix: str, *rows) -> List[Metric]:
    return [
        Metric(f"{prefix}.{name}", unit, better, exact=exact)
        for name, unit, better, exact in rows
    ]


PER_LAYER: List[Metric] = (
    _layer(
        "core.session",
        ("self_s", "s", "lower", False),
        ("queue_wait_ms_p50", "ms", "lower", False),
        ("retries_per_op", "count/op", "lower", True),
        ("failovers_per_op", "count/op", "lower", True),
        ("peak_inflight", "count", "higher", False),
    )
    + _layer(
        "core.coordinator",
        ("self_s", "s", "lower", False),
        ("share", "share", "lower", False),
        ("phases_per_op", "count/op", "lower", True),
        ("msgs_per_op", "count/op", "lower", True),
        ("retx_per_op", "count/op", "lower", False),
        ("slow_path_share", "share", "lower", True),
        ("abort_share", "share", "lower", True),
    )
    + _layer(
        "core.replica",
        ("self_s", "s", "lower", False),
        ("share", "share", "lower", False),
        ("handler_calls_per_op", "count/op", "lower", True),
    )
    + _layer(
        "erasure",
        ("encode_calls", "count", "lower", True),
        ("encode_s", "s", "lower", False),
        ("encode_mib_per_s", "MiB/s", "higher", False),
        ("decode_calls", "count", "lower", True),
        ("decode_s", "s", "lower", False),
        ("decode_mib_per_s", "MiB/s", "higher", False),
        ("modify_calls", "count", "lower", True),
        ("modify_s", "s", "lower", False),
        ("modify_mib_per_s", "MiB/s", "higher", False),
        ("share", "share", "lower", False),
    )
    + _layer(
        "sim.node",
        ("store_calls_per_op", "count/op", "lower", True),
        ("store_s", "s", "lower", False),
        ("share", "share", "lower", False),
        ("write_amp", "ratio", "lower", True),
        ("space_amp", "ratio", "lower", True),
    )
    + _layer(
        "sim.kernel",
        ("events_per_op", "count/op", "lower", True),
        ("heap_pushes_per_op", "count/op", "lower", True),
        ("events_per_s", "1/s", "higher", False),
        ("self_s", "s", "lower", False),
    )
    + _layer("sim.network", ("send_s", "s", "lower", False))
    + _layer(
        "transport.aio",
        ("send_s", "s", "lower", False),
        ("frames_per_op", "count/op", "lower", False),
        ("pump_lag_ms_p50", "ms", "lower", False),
        ("pump_lag_ms_p95", "ms", "lower", False),
        ("outbox_drops", "count", "lower", False),
        ("reconnects", "count", "lower", False),
        ("loop_other_s", "s", "lower", False),
        ("idle_s", "s", "higher", False),
    )
    + _layer(
        "transport.wire",
        ("encode_s", "s", "lower", False),
        ("decode_s", "s", "lower", False),
        ("share", "share", "lower", False),
        ("bytes_per_user_byte", "ratio", "lower", False),
    )
    + _layer(
        "campaign",
        ("self_s", "s", "lower", False),
        ("run_s_per_seed", "s", "lower", False),
        ("ops_per_seed", "count", "higher", True),
        ("violations", "count", "lower", True),
        ("seeds_per_s", "seeds/s", "higher", False),
    )
    + _layer(
        "verify",
        ("check_s_per_seed", "s", "lower", False),
        ("share", "share", "lower", False),
    )
    + _layer(
        "loadgen",
        ("late_ms_p95", "ms", "lower", False),
        ("offered_ops_per_s", "ops/s", "higher", False),
        ("over_50ms_share", "share", "lower", False),
        ("read_p50_ms", "ms", "lower", False),
        ("write_p50_ms", "ms", "lower", False),
        ("read_p95_ms", "ms", "lower", False),
        ("write_p95_ms", "ms", "lower", False),
        ("self_s", "s", "lower", False),
    )
    + _layer(
        "trace",
        ("overhead", "ratio", "lower", False),
        ("unattributed_share", "share", "lower", False),
        ("other_s", "s", "lower", False),
    )
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in ``[0, 1]``; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


#: Percentiles the harness will print, lowest first.
_LADDER = (0.50, 0.90, 0.95, 0.99, 0.999)


def supported_percentile(samples: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    A tail percentile is only as good as the handful of samples past
    it; below ten the number moves run to run on its own.  Returns None
    when not even the median qualifies (fewer than 20 samples).
    """
    best = None
    for q in _LADDER:
        if samples * (1.0 - q) >= 10.0:
            best = q
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and the samples."""
    values = [float(v) for v in values]
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0, "values": []}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _mid, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def is_worse(metric: Metric, base: float, new: float) -> bool:
    """Whether ``new`` is worse than ``base`` by more than the bound."""
    if metric.bound is None or base == 0:
        return False
    change = (new - base) / abs(base)
    if metric.better == "higher":
        change = -change
    return change > metric.bound
