#!/usr/bin/env python3
"""Quickstart: an erasure-coded virtual disk in four lines.

Opens a 3-of-5 volume through the :mod:`repro.api` facade, round-trips
a block through a session, kills a brick to show the data survives, then drops down to
the register layer and prints the measured protocol costs, which match
Table 1 of the paper.  Every claim it prints is also asserted.

Run:  python examples/quickstart.py
"""

from repro import open_volume
from repro.analysis.compare import MEASURED_TO_ANALYTIC
from repro.analysis.costs import our_costs

BLOCK = 1024


def main() -> None:
    # The whole API: open a volume, open its client, write, read.
    volume = open_volume(m=3, n=5, blocks=12, block_size=BLOCK)
    client = volume.session()
    written = client.write(0, b"alpha--!" * 128)
    print("write:", written)
    matches = client.read(0) == b"alpha--!" * 128
    print("read matches:", matches)
    assert written == "OK" and matches

    print("\ncrashing brick 5 (an m-quorum of 4 remains)...")
    volume.cluster.crash(5)
    matches = client.read(0) == b"alpha--!" * 128
    print("read still matches:", matches)
    assert matches

    print("\npipelining a batch through a session...")
    payloads = [bytes([i]) * BLOCK for i in range(volume.num_blocks)]
    with volume.session(max_inflight=8) as session:
        session.submit_write_range(0, payloads)
    stats = session.stats
    print(f"  {stats.ops_completed} ops, peak inflight {stats.peak_inflight}, "
          f"{stats.coalesced_writes} writes coalesced into stripe ops")
    assert all(op.ok for op in session.ops)

    # Under the facade sits the storage register itself.  Per-op
    # counters are exact only for an op that ran alone (Metrics charges
    # every count to the op that began last), so the Table 1 rows come
    # from these sequential ops, not from the pipelined batch above.
    cluster = volume.cluster
    cluster.recover(5)
    first = len(cluster.metrics.operations)
    register = cluster.register(100)
    stripe = [b"bravo--!" * 128, b"charlie!" * 128, b"delta--!" * 128]
    written = register.write_stripe(stripe)
    print("\nbrick 5 recovered; write-stripe:", written)
    matches = register.read_stripe() == stripe
    print("read-stripe matches:", matches)
    assert written == "OK" and matches
    written = register.write_block(1, b"echo---!" * 128)
    matches = register.read_block(1) == b"echo---!" * 128
    print("write-block:", written, "/ read-block matches:", matches)
    assert written == "OK" and matches

    print("\nmeasured protocol costs (cf. paper Table 1, n=5 m=3 k=2):")
    analytic = our_costs(n=5, m=3, block_size=BLOCK)
    for op in list(cluster.metrics.operations)[first:]:
        label = f"{op.kind}/{op.path}"
        print(
            f"  {label:22s} latency={op.latency_in_delta}δ "
            f"messages={op.messages} "
            f"disk R/W={op.disk_reads}/{op.disk_writes} "
            f"bytes={op.bytes_sent}"
        )
        row = analytic[MEASURED_TO_ANALYTIC[label]]
        assert (
            op.latency_in_delta, op.messages, op.disk_reads, op.disk_writes,
            op.bytes_sent,
        ) == (
            row.latency_delta, row.messages, row.disk_reads, row.disk_writes,
            row.bandwidth,
        ), (label, row)


if __name__ == "__main__":
    main()
