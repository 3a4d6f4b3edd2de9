"""Ablations of the two central design choices (DESIGN.md §5).

1. **Optimistic fast read vs always-recover.**  Disabling the fast
   path is still correct but every read pays the full recovery price
   (6δ, state-mutating write-back).  Quantifies the paper's "efficient
   single-round read operation in the common case".

2. **Two-phase write vs naive one-phase.**  Skipping the Order phase
   makes partial writes undetectable: the Figure 5 scenario then
   *violates* strict linearizability — the rolled-back value resurfaces
   after the crashed brick recovers, and the Appendix-B checker flags
   the history.  This is the negative control proving both that the
   Order phase is load-bearing and that our checker can see the
   difference.
"""

import pytest

from repro import ClusterConfig, FabCluster
from repro.core.coordinator import CoordinatorConfig
from repro.sim.network import NetworkConfig
from repro.types import OpKind
from repro.verify import HistoryRecorder, check_strict_linearizability
from tests.conftest import fault, make_cluster, stripe_of

from .conftest import write_artifact

M, N, B = 3, 5, 256


def measure_read_paths():
    results = {}
    for label, disable in (("fast-read", False), ("always-recover", True)):
        cluster = make_cluster(m=M, n=N, block_size=B, disable_fast_read=disable)
        register = cluster.register(0)
        register.write_stripe(stripe_of(M, B, tag=1))
        for _ in range(5):
            register.read_stripe()
        summary = cluster.metrics.summary()
        row = summary.get("read-stripe/fast") or summary["read-stripe/slow"]
        results[label] = {
            "latency_delta": row["latency_delta"],
            "messages": row["messages"],
            "disk_writes": row["disk_writes"],
        }
    return results


V1 = [b"v1oldold" * (B // 8)] * 1
V2 = [b"v2newnew" * (B // 8)] * 1


def figure5_with(one_phase: bool):
    """Run the Figure 5 scenario; return the block-1 history verdict."""
    cluster = FabCluster(
        ClusterConfig(
            m=1, n=3, block_size=B,
            network=NetworkConfig(jitter_seed=1),
            coordinator=CoordinatorConfig(unsafe_one_phase_writes=one_phase),
            seed=1,
        )
    )
    env = cluster.env
    recorder = HistoryRecorder(env)

    process = cluster.register(0, route=2).write_stripe_async(V1)
    recorder.track(process, OpKind.WRITE_STRIPE, value=V1, coordinator=2)
    env.run()

    # Partial write of V2: isolate brick 1 so only its replica stores it.
    writer = cluster.coordinators[1]
    process = cluster.nodes[1].spawn(writer.write_stripe(0, V2))
    recorder.track(process, OpKind.WRITE_STRIPE, value=V2, coordinator=1)
    # One-phase writes have no Order round: partition earlier.
    env.run(until=env.now + (0.5 if one_phase else 2.5))
    fault(cluster, "partition", 1)
    env.run(until=env.now + 2.0)
    cluster.nodes[1].crash()
    env.run(until=env.now + 1.0)
    fault(cluster, "heal")

    read2 = cluster.register(0, route=3).read_stripe_async()
    recorder.track(read2, OpKind.READ_STRIPE, coordinator=3)
    env.run()

    cluster.nodes[1].recover()
    read3 = cluster.register(0, route=3).read_stripe_async()
    recorder.track(read3, OpKind.READ_STRIPE, coordinator=3)
    env.run()

    recorder.close()
    result = check_strict_linearizability(recorder.per_block_history(1))
    return {
        "read2": read2.value[0][:2] if read2.value else None,
        "read3": read3.value[0][:2] if read3.value else None,
        "strictly_linearizable": result.ok,
        "violations": result.violations[:1],
    }


def run_all():
    return {
        "reads": measure_read_paths(),
        "two-phase": figure5_with(one_phase=False),
        "one-phase": figure5_with(one_phase=True),
    }


def render(results) -> str:
    reads = results["reads"]
    lines = ["Design-choice ablations"]
    lines.append("(1) optimistic fast read vs always-recover (5 clean reads):")
    for label, row in reads.items():
        lines.append(
            f"    {label:16s} latency={row['latency_delta']:.0f}δ "
            f"messages={row['messages']:.0f} "
            f"disk_writes={row['disk_writes']:.0f}"
        )
    lines.append("(2) two-phase vs one-phase writes under Figure 5:")
    for label in ("two-phase", "one-phase"):
        row = results[label]
        lines.append(
            f"    {label:10s} read2={row['read2']} read3={row['read3']} "
            f"strict={row['strictly_linearizable']}"
        )
    return "\n".join(lines) + "\n"


def test_bench_design_ablations(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_artifact("design_ablations", render(results))

    reads = results["reads"]
    # The fast path: one round trip and no write-back, vs recovery's
    # two rounds (Order&Read + Write) with a full write-back per read.
    assert reads["fast-read"]["latency_delta"] == 2
    assert reads["always-recover"]["latency_delta"] == 4
    assert reads["fast-read"]["disk_writes"] == 0
    assert reads["always-recover"]["disk_writes"] == N
    assert reads["always-recover"]["messages"] == 2 * reads["fast-read"]["messages"]

    # Two-phase: the scenario stays strict; one-phase: the checker
    # catches the resurfaced partial write.
    assert results["two-phase"]["strictly_linearizable"]
    assert results["two-phase"]["read3"] == b"v1"
    assert not results["one-phase"]["strictly_linearizable"]
    assert results["one-phase"]["read3"] == b"v2"  # the anomaly
