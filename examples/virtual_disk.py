#!/usr/bin/env python3
"""A virtual disk served by a FAB cluster, driven by a synthetic workload.

This is the paper's headline use case (Figure 1): clients see a logical
volume; bricks coordinate erasure-coded stripes among themselves.  The
example opens a 5-of-8 volume (the paper's favourite code) through the
:mod:`repro.api` facade, replays a read-mostly synthetic trace against
it while bricks crash and recover underneath, and reports throughput,
abort rate, and data integrity — the final readback runs pipelined
through a :class:`~repro.core.session.VolumeSession`.  It asserts that
every trace operation ran and that the readback has no mismatch.

Run:  python examples/virtual_disk.py
"""

from repro import open_volume
from repro.campaign import apply_schedule, generate_schedule
from repro.workloads import TraceReplayer, ZipfPattern, synthesize_trace


def main() -> None:
    volume = open_volume(
        m=5, n=8,
        stripes=40,
        block_size=512,
        min_latency=0.5, max_latency=2.0,
        drop_probability=0.02,
        gc_enabled=True,
        seed=42,
    )
    cluster = volume.cluster
    print(f"volume: {volume}")
    print(f"cluster: {cluster}  (tolerates f={cluster.quorum_system.f} faults)")

    # Background failure churn — a crash-only fault plan: at most f
    # bricks down at once, so the volume stays available throughout.
    churn = apply_schedule(cluster, generate_schedule(
        seed=7,
        n=8,
        duration=3000.0,
        max_down=cluster.quorum_system.f,
        partition_weight=0.0,
        drop_weight=0.0,
        event_gap=(10.0, 115.0),
        down_time=(25.0, 75.0),
    ))

    trace = synthesize_trace(
        num_ops=400,
        num_blocks=volume.num_blocks,
        read_fraction=0.8,            # a web-server-ish mix
        mean_interarrival=5.0,
        pattern=ZipfPattern(exponent=1.1, seed=3),
        seed=11,
    )
    print(f"replaying {len(trace)} trace operations with failure churn...")
    stats = TraceReplayer(volume).replay(trace)

    print(f"  operations : {stats.operations} "
          f"({stats.reads} reads, {stats.writes} writes)")
    print(f"  aborts     : {stats.aborts} (rate {stats.abort_rate:.4f})")
    print(f"  throughput : {stats.throughput:.3f} ops per time unit")
    print(f"  crashes injected   : {churn['crash']}")
    print(f"  recoveries injected: {churn['recover']}")
    assert stats.operations == len(trace) and churn["crash"] > 0

    # Verify integrity with a pipelined bulk readback: the last write
    # to each block must be visible.  The session keeps many reads in
    # flight and retries/fails over on its own.
    last_writes = {}
    replayer = TraceReplayer(volume)
    for op in trace:
        if op.op == "write":
            last_writes[op.block] = replayer._payload(op)
    with volume.session(max_inflight=16) as session:
        for block in sorted(last_writes):
            session.submit_read(block)
    readback = {op.blocks[0]: op.result for op in session.ops}
    mismatches = sum(
        1 for block, payload in last_writes.items()
        if readback[block] != payload
    )
    print(f"  integrity check    : {len(last_writes) - mismatches}/"
          f"{len(last_writes)} blocks verified, {mismatches} mismatches "
          f"(pipelined, peak inflight {session.stats.peak_inflight}, "
          f"{session.stats.retries} retries, "
          f"{session.stats.failovers} failovers)")
    assert mismatches == 0 and all(op.ok for op in session.ops)

    paths = {"fast": 0, "retarget": 0, "slow": 0}
    for label, row in cluster.metrics.summary().items():
        paths[label.rsplit("/", 1)[1]] += row["count"]
    print(f"  fast-path ops      : {paths['fast']}, read around a down "
          f"brick: {paths['retarget']}, slow-path (recovery) ops: "
          f"{paths['slow']}")


if __name__ == "__main__":
    main()
