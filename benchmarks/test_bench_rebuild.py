"""Distributed rebuild cost (backs the reliability model's repair rate).

Figures 2-3 assume a dead brick's data is re-protected within hours via
distributed rebuild.  This bench measures what that costs in protocol
terms: after a brick misses a batch of writes, how many messages, bytes
and simulated time does it take to restore full redundancy — and does
redundancy actually recover (scrub before/after).
"""

import pytest

from repro.core.rebuild import Rebuilder, Scrubber
from tests.conftest import make_cluster, stripe_of

from .conftest import write_artifact

M, N, B = 3, 5, 1024


def run_rebuild(num_registers):
    cluster = make_cluster(m=M, n=N, block_size=B)
    for register_id in range(num_registers):
        cluster.register(register_id).write_stripe(
            stripe_of(M, B, tag=register_id)
        )
    cluster.crash(4)
    for register_id in range(num_registers):
        cluster.register(register_id).write_stripe(
            stripe_of(M, B, tag=1000 + register_id)
        )
    cluster.recover(4)

    scrubber = Scrubber(cluster)
    stale_before = len(scrubber.stale_registers(range(num_registers)))
    messages_before = cluster.metrics.total_messages
    bytes_before = cluster.metrics.total_bytes
    t_before = cluster.env.now

    report = Rebuilder(cluster).rebuild(range(num_registers))

    stale_after = len(scrubber.stale_registers(range(num_registers)))
    return {
        "registers": num_registers,
        "stale_before": stale_before,
        "stale_after": stale_after,
        "repaired": report.repaired,
        "aborted": report.aborted,
        "messages": cluster.metrics.total_messages - messages_before,
        "bytes": cluster.metrics.total_bytes - bytes_before,
        "sim_time": cluster.env.now - t_before,
    }


def run_all():
    return [run_rebuild(count) for count in (4, 16, 64)]


def render(rows) -> str:
    lines = [f"Distributed rebuild of one brick (m={M}, n={N}, B={B})"]
    lines.append(
        f"{'registers':>10s}{'stale pre':>10s}{'stale post':>11s}"
        f"{'messages':>10s}{'bytes':>12s}{'msgs/reg':>10s}{'B/reg':>10s}"
    )
    for row in rows:
        lines.append(
            f"{row['registers']:>10d}{row['stale_before']:>10d}"
            f"{row['stale_after']:>11d}{row['messages']:>10d}"
            f"{row['bytes']:>12d}"
            f"{row['messages'] / row['registers']:>10.1f}"
            f"{row['bytes'] / row['registers']:>10.0f}"
        )
    return "\n".join(lines) + "\n"


def test_bench_rebuild(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_artifact("rebuild_costs", render(rows))
    for row in rows:
        # Every stale register detected and repaired.
        assert row["stale_before"] == row["registers"]
        assert row["stale_after"] == 0
        assert row["repaired"] == row["registers"]
        assert row["aborted"] == 0
        # Cost scales linearly: one recovery per register
        # (Order&Read + full-coverage Write ≈ 4n messages + ~2nB).
        assert row["messages"] / row["registers"] <= 5 * N
        assert row["bytes"] / row["registers"] <= 3 * N * B
