"""Table 1: protocol costs — analytic formulas versus measured runs.

For every operation variant the paper tabulates (stripe/block x
read/write x fast/slow, plus the LS97 baseline) this bench runs the
operation on the simulator, extracts the measured latency (in δ),
message count, disk I/Os, and network bytes, and lines them up against
the paper's analytic formulas.

Fast-path rows must match the formulas *exactly* — the simulator and
the paper count the same events.  The one formula that is not the
paper's printed value is block-write/F bandwidth: the protocol ships
the Section 5.2 (b) Modify, (k + 2)B instead of (2n + 1)B (see
:func:`repro.analysis.costs.our_costs`).  Slow-path rows depend on which
replicas participate in the recovery; the paper "pessimistically
assumes all replicas are involved" and charges the block-write slow
path for a failed Modify round we abort before sending, so measured
values may sit at or below the analytic ones (never above).  The
artifact records both, and EXPERIMENTS.md discusses each deviation.
"""

import pytest

from repro.analysis.compare import MEASURED_TO_ANALYTIC, compare_table1
from repro.analysis.costs import ls97_costs, our_costs
from repro.baselines.ls97 import Ls97Cluster, Ls97Config
from repro.core.messages import WriteReq
from tests.conftest import block_of, crash_after, make_cluster, stripe_of

from .conftest import write_artifact

N, M, B = 5, 3, 1024
K = N - M


def run_fast_paths():
    """One failure-free run exercising every fast path."""
    cluster = make_cluster(m=M, n=N, block_size=B)
    register = cluster.register(0)
    register.write_stripe(stripe_of(M, B, tag=1))
    register.read_stripe()
    register.read_block(2)
    register.write_block(2, block_of(B, tag=2))
    return cluster.metrics.summary()


def run_slow_reads():
    """Partial write (coordinator crash), then stripe and block reads."""
    cluster = make_cluster(m=M, n=N, block_size=B)
    seed_register = cluster.register(0, route=2)
    seed_register.write_stripe(stripe_of(M, B, tag=1))
    crash_after(cluster, 1, WriteReq, 4)
    coordinator = cluster.coordinators[1]
    cluster.nodes[1].spawn(coordinator.write_stripe(0, stripe_of(M, B, tag=2)))
    cluster.env.run()
    cluster.recover(1)
    seed_register.read_stripe()  # slow: rolls the partial write forward
    # A second partial write so the block read also recovers.
    crash_after(cluster, 1, WriteReq, 4)
    cluster.nodes[1].spawn(coordinator.write_stripe(0, stripe_of(M, B, tag=3)))
    cluster.env.run()
    cluster.recover(1)
    seed_register.read_block(2)
    return cluster.metrics.summary()


def run_slow_block_write():
    """Block write forced onto the slow path (p_j crashed)."""
    cluster = make_cluster(m=M, n=N, block_size=B)
    register = cluster.register(0)
    register.write_stripe(stripe_of(M, B, tag=1))
    cluster.crash(2)
    register.write_block(2, block_of(B, tag=9))
    return cluster.metrics.summary()


def run_ls97():
    cluster = Ls97Cluster(Ls97Config(n=N, block_size=B))
    cluster.write(0, b"w" * B)
    cluster.read(0)
    return cluster.metrics.summary()


def collect_all():
    merged = {}
    merged.update(run_fast_paths())
    for label, row in run_slow_reads().items():
        if label.endswith("/slow"):
            merged[label] = row
    for label, row in run_slow_block_write().items():
        if label == "write-block/slow":
            merged[label] = row
    merged.update(run_ls97())
    return merged


METRICS = ["latency_delta", "messages", "disk_reads", "disk_writes", "bytes"]


def render(measured, analytic_ours, analytic_ls97) -> str:
    lines = [
        f"Table 1 — analytic vs measured (n={N}, m={M}, k={K}, B={B})",
        f"{'operation':18s}{'metric':14s}{'analytic':>12s}{'measured':>12s}",
    ]
    analytic_all = dict(analytic_ours)
    analytic_all.update(analytic_ls97)
    for label in sorted(measured):
        key = MEASURED_TO_ANALYTIC.get(label)
        if key is None or key not in analytic_all:
            continue
        cost = analytic_all[key]
        attribute = {
            "latency_delta": "latency_delta", "messages": "messages",
            "disk_reads": "disk_reads", "disk_writes": "disk_writes",
            "bytes": "bandwidth",
        }
        for metric in METRICS:
            lines.append(
                f"{key:18s}{metric:14s}"
                f"{getattr(cost, attribute[metric]):>12.0f}"
                f"{measured[label][metric]:>12.0f}"
            )
    return "\n".join(lines) + "\n"


def test_bench_table1(benchmark):
    measured = benchmark.pedantic(collect_all, rounds=3, iterations=1)
    analytic = our_costs(N, M, B)
    baseline = ls97_costs(N, B)
    write_artifact("table1_costs", render(measured, analytic, baseline))

    # Fast paths: exact agreement with the paper's formulas.
    fast_rows = compare_table1(analytic, {
        label: row for label, row in measured.items()
        if label.endswith("/fast") and not label.startswith("ls97")
    })
    assert fast_rows
    for row in fast_rows:
        assert row.deviation == 0.0, str(row)

    # LS97 baseline: exact agreement with its formulas, except disk
    # writes on reads (our replicas skip redundant write-backs; the
    # paper charges n).
    ls97_rows = compare_table1(baseline, {
        label: row for label, row in measured.items()
        if label.startswith("ls97")
    })
    for row in ls97_rows:
        if row.operation == "read" and row.metric == "disk_writes":
            assert row.measured <= row.analytic
        else:
            assert row.deviation == 0.0, str(row)

    # Slow paths: recovery adds exactly two more round trips (6δ total
    # for reads), and measured costs never exceed the paper's
    # pessimistic accounting.
    assert measured["read-stripe/slow"]["latency_delta"] == 6
    assert measured["read-block/slow"]["latency_delta"] == 6
    assert measured["write-block/slow"]["latency_delta"] >= 6
    slow_analytic = {
        "read-stripe/slow": "stripe-read/S",
        "read-block/slow": "block-read/S",
        "write-block/slow": "block-write/S",
    }
    attribute = {
        "messages": "messages", "disk_reads": "disk_reads",
        "disk_writes": "disk_writes", "bytes": "bandwidth",
    }
    for label, key in slow_analytic.items():
        for metric, attr in attribute.items():
            assert measured[label][metric] <= getattr(analytic[key], attr), (
                label, metric,
            )

    # The paper's headline: our fast read halves LS97's read latency.
    assert measured["read-stripe/fast"]["latency_delta"] == 2
    assert measured["ls97-read/fast"]["latency_delta"] == 4
