"""Graceful degradation under failures (paper Section 1 claim).

"Our algorithm ... is efficient in the common case and degrades
gracefully under failure."  This bench measures the fast-path fraction
and mean operation latency (in δ) across increasingly hostile
environments: clean network, lossy network, one brick down, and
continuous crash/recovery churn.  Everything must still complete and
return correct data; latency should rise smoothly, not fall off a
cliff.
"""

import pytest

from repro import LogicalVolume
from repro.campaign.schedule import apply_schedule, generate_schedule
from repro.types import ABORT
from repro.workloads import TraceReplayer, synthesize_trace
from tests.conftest import make_cluster

from .conftest import write_artifact

M, N, B = 3, 5, 256
OPS = 120


def run_environment(name, drop=0.0, crashed=(), churn=False, seed=13):
    cluster = make_cluster(
        m=M, n=N, block_size=B, seed=seed, drop=drop,
        min_latency=0.5, max_latency=1.0,
    )
    for pid in crashed:
        cluster.crash(pid)
    if churn:
        apply_schedule(cluster, generate_schedule(
            seed=seed, n=N, duration=1000.0,
            max_down=cluster.quorum_system.f,
            partition_weight=0.0, drop_weight=0.0,
            event_gap=(10.0, 90.0), down_time=(20.0, 60.0),
        ))
    volume = LogicalVolume(cluster, num_stripes=12)
    trace = synthesize_trace(OPS, volume.num_blocks, read_fraction=0.7,
                             mean_interarrival=4.0, seed=seed)
    stats = TraceReplayer(volume).replay(trace)

    summary = cluster.metrics.summary()
    fast = sum(r["count"] for label, r in summary.items()
               if label.endswith("/fast"))
    weighted_latency = sum(
        r["latency_delta"] * r["count"] for r in summary.values()
    )
    count = sum(r["count"] for r in summary.values())
    return {
        "name": name,
        "aborts": stats.aborts,
        "abort_rate": stats.abort_rate,
        "fast_fraction": fast / count if count else 0.0,
        "mean_latency_delta": weighted_latency / count if count else 0.0,
        "retransmissions": cluster.metrics.dropped_messages,
    }


def run_all():
    return [
        run_environment("clean"),
        run_environment("loss-10%", drop=0.10),
        run_environment("loss-25%", drop=0.25),
        run_environment("one-brick-down", crashed=(5,)),
        run_environment("crash-churn", churn=True),
        run_environment("churn+loss", drop=0.10, churn=True),
    ]


def render(rows) -> str:
    lines = ["Degradation under failures (m=3, n=5, 120 trace ops)"]
    lines.append(
        f"{'environment':16s}{'fast-path':>10s}{'mean δ':>8s}"
        f"{'aborts':>8s}{'drops':>8s}"
    )
    for row in rows:
        lines.append(
            f"{row['name']:16s}{row['fast_fraction']:>10.2f}"
            f"{row['mean_latency_delta']:>8.2f}{row['aborts']:>8d}"
            f"{row['retransmissions']:>8d}"
        )
    return "\n".join(lines) + "\n"


def test_bench_failure_degradation(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_artifact("failure_degradation", render(rows))
    by_name = {row["name"]: row for row in rows}

    clean = by_name["clean"]
    # Common case: fast path dominates (the only slow ops are the very
    # first write touching each virgin stripe, which must materialize
    # the zero stripe), 2-4δ ops, no aborts.
    assert clean["fast_fraction"] >= 0.85
    assert clean["aborts"] == 0
    assert clean["mean_latency_delta"] <= 4.0

    # Failure environments: still functional (every op completed —
    # replay would have hung otherwise), bounded abort rates, and the
    # fast path still carries most operations.
    for name in ("loss-10%", "loss-25%", "one-brick-down", "crash-churn",
                 "churn+loss"):
        row = by_name[name]
        assert row["fast_fraction"] > 0.5, name
        assert row["abort_rate"] < 0.25, name

    # Graceful: latency under heavy loss stays within ~3x of clean.
    assert (
        by_name["loss-25%"]["mean_latency_delta"]
        < 3 * clean["mean_latency_delta"] + 2
    )
    # A statically down brick barely matters (quorums route around it).
    assert by_name["one-brick-down"]["mean_latency_delta"] <= (
        clean["mean_latency_delta"] + 2
    )
