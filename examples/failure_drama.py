#!/usr/bin/env python3
"""Partial writes, crashes, and strict linearizability — live.

Recreates the paper's Figure 5 on a running cluster: a write crashes
after updating a single replica, a read rolls it back, the replica
recovers with the orphaned value in its log — and the protocol keeps
the rolled-back value from ever resurfacing.  The same scenario is then
run on the LS97-style replication baseline, where the partial write
*does* resurface, and both histories are fed to the strict-
linearizability checker.

Run:  python examples/failure_drama.py
"""

from repro import ClusterConfig, FabCluster
from repro.baselines.ls97 import Ls97Cluster, Ls97Config
from repro.campaign import FaultEvent, apply_event
from repro.types import OpKind
from repro.verify import HistoryRecorder, check_strict_linearizability

V1 = [b"v1......" * 4]
V2 = [b"v2......" * 4]


def cut_off_and_crash(cluster, pid: int) -> None:
    """Isolate ``pid`` after its Order phase, crash it, then heal."""
    env = cluster.env
    env.run(until=env.now + 2.5)
    apply_event(cluster, FaultEvent(env.now, "partition", (pid,)))
    env.run(until=env.now + 2.0)
    apply_event(cluster, FaultEvent(env.now, "crash", (pid,)))
    env.run(until=env.now + 1.0)
    apply_event(cluster, FaultEvent(env.now, "heal"))


def our_protocol() -> None:
    print("=== FAB storage register (this paper) ===")
    cluster = FabCluster(ClusterConfig(m=1, n=3, block_size=32))
    env = cluster.env
    recorder = HistoryRecorder(env)

    register = cluster.register(0, route=2)
    process = register.write_stripe_async(V1)
    recorder.track(process, OpKind.WRITE_STRIPE, value=V1, coordinator=2)
    env.run()
    print("write1(v1):", process.value)

    # write2(v2) from brick 1; isolate brick 1 after the Order phase so
    # only its own replica stores v2, then crash it.
    writer = cluster.coordinators[1]
    process = cluster.nodes[1].spawn(writer.write_stripe(0, V2))
    recorder.track(process, OpKind.WRITE_STRIPE, value=V2, coordinator=1)
    cut_off_and_crash(cluster, 1)
    print("write2(v2): coordinator crashed mid-write (partial)")

    read_process = cluster.register(0, route=3).read_stripe_async()
    recorder.track(read_process, OpKind.READ_STRIPE, coordinator=3)
    env.run()
    print("read after crash:", read_process.value[0][:8], "(rolled back)")

    cluster.nodes[1].recover()
    print("brick 1 recovered (still holds v2 in its log)")
    for pid in (2, 3, 1):
        read_process = cluster.register(0, route=pid).read_stripe_async()
        recorder.track(read_process, OpKind.READ_STRIPE, coordinator=pid)
        env.run()
        print(f"read via brick {pid}:", read_process.value[0][:8])

    recorder.close()
    result = check_strict_linearizability(recorder.per_block_history(1))
    print("strictly linearizable:", result.ok)
    assert result.ok


def ls97_baseline() -> None:
    print("\n=== LS97 replication baseline (no partial-write handling) ===")
    cluster = Ls97Cluster(Ls97Config(n=3, block_size=32))
    env = cluster.env
    cluster.write(0, V1[0], route=2)
    print("write1(v1): OK")

    writer = cluster.coordinators[1]
    cluster.nodes[1].spawn(writer.write(0, V2[0]))
    cut_off_and_crash(cluster, 1)
    print("write2(v2): coordinator crashed mid-write (partial)")

    print("read after crash:", cluster.read(0, route=3)[:8])
    cluster.nodes[1].recover()
    value = cluster.read(0, route=3)
    print("read after recovery:", value[:8],
          "<-- the crashed write RESURFACED (Figure 5 anomaly)")
    assert value == V2[0]


def main() -> None:
    our_protocol()
    ls97_baseline()
    print("\nConclusion: the two-phase write + versioned logs buy exactly")
    print("the property LS97 lacks — partial writes take effect before the")
    print("crash or never.")


if __name__ == "__main__":
    main()
