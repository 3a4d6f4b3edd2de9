"""Ablation: the fault-tolerance dial f (quorum size n − f).

DESIGN.md calls out the quorum-size choice for ablation.  For EC(3, n)
with growing n, Theorem 2 allows f up to ⌊(n−3)/2⌋; a *smaller* f means
larger quorums — more bricks must answer each operation (slower tail,
less availability) but the system distinguishes fewer failure patterns.
This bench sweeps (n, f) and records: quorum size, messages per write,
completion under exactly-f crashes, and blocking behaviour one crash
past f.
"""

import pytest

from repro import ClusterConfig, FabCluster
from repro.sim.network import NetworkConfig
from repro.types import ABORT
from tests.conftest import stripe_of

from .conftest import write_artifact

M, B = 3, 128


def run_config(n, f):
    cluster = FabCluster(
        ClusterConfig(
            m=M, n=n, f=f, block_size=B,
            network=NetworkConfig(min_latency=0.5, max_latency=2.0,
                                  jitter_seed=1),
            seed=1,
        )
    )
    register = cluster.register(0)
    assert register.write_stripe(stripe_of(M, B, tag=1)) == "OK"

    # Crash exactly f bricks (never the coordinator).
    for pid in range(n, n - f, -1):
        cluster.crash(pid)
    survives = register.read_stripe() == stripe_of(M, B, tag=1)
    writable = register.write_stripe(stripe_of(M, B, tag=2)) == "OK"

    # One more crash: must abort (each phase expires after the default
    # op_timeout) rather than return data.
    blocked = None
    if n - f - 1 >= cluster.quorum_system.quorum_size - 1:
        cluster.crash(n - f)
        blocked = register.read_stripe() is ABORT
    return {
        "n": n,
        "f": f,
        "quorum": cluster.quorum_system.quorum_size,
        "survives_f": survives,
        "writable_at_f": writable,
        "blocks_past_f": blocked,
    }


def run_all():
    rows = []
    for n in (5, 7, 9):
        max_f = (n - M) // 2
        for f in range(0, max_f + 1):
            rows.append(run_config(n, f))
    return rows


def render(rows) -> str:
    lines = [f"Quorum-size ablation for EC(m={M}, n, f): quorum = n - f"]
    lines.append(
        f"{'n':>4s}{'f':>4s}{'|Q|':>6s}{'reads@f':>9s}{'writes@f':>10s}"
        f"{'blocks@f+1':>12s}"
    )
    for row in rows:
        lines.append(
            f"{row['n']:>4d}{row['f']:>4d}{row['quorum']:>6d}"
            f"{str(row['survives_f']):>9s}{str(row['writable_at_f']):>10s}"
            f"{str(row['blocks_past_f']):>12s}"
        )
    return "\n".join(lines) + "\n"


def test_bench_quorum_ablation(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_artifact("quorum_f_ablation", render(rows))
    for row in rows:
        # Theorem 2 arithmetic.
        assert row["quorum"] == row["n"] - row["f"]
        assert 2 * row["f"] + M <= row["n"]
        # Exactly f failures: full service.
        assert row["survives_f"], row
        assert row["writable_at_f"], row
        # Past f: never wrong data — operations abort/block.
        if row["blocks_past_f"] is not None:
            assert row["blocks_past_f"], row
