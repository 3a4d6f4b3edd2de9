#!/usr/bin/env python3
"""Quickstart: an erasure-coded virtual disk in four lines.

Opens a 3-of-5 volume through the :mod:`repro.api` facade, round-trips
a block through a session, kills a brick to show the data survives, then drops down to
the register layer and prints the measured protocol costs, which match
Table 1 of the paper.

Run:  python examples/quickstart.py
"""

from repro import open_volume

BLOCK = 1024


def main() -> None:
    # The whole API: open a volume, open its client, write, read.
    volume = open_volume(m=3, n=5, blocks=12, block_size=BLOCK)
    client = volume.session()
    print("write:", client.write(0, b"alpha--!" * 128))
    print("read matches:", client.read(0) == b"alpha--!" * 128)

    print("\ncrashing brick 5 (an m-quorum of 4 remains)...")
    volume.cluster.crash(5)
    print("read still matches:", client.read(0) == b"alpha--!" * 128)

    print("\npipelining a batch through a session...")
    payloads = [bytes([i]) * BLOCK for i in range(volume.num_blocks)]
    with volume.session(max_inflight=8) as session:
        session.submit_write_range(0, payloads)
    stats = session.stats
    print(f"  {stats.ops_completed} ops, peak inflight {stats.peak_inflight}, "
          f"{stats.coalesced_writes} writes coalesced into stripe ops")

    # Under the facade sits the storage register itself:
    cluster = volume.cluster
    register = cluster.register(100)
    stripe = [b"bravo--!" * 128, b"charlie!" * 128, b"delta--!" * 128]
    print("\nwrite-stripe:", register.write_stripe(stripe))
    print("read-stripe matches:", register.read_stripe() == stripe)

    print("\nmeasured protocol costs (cf. paper Table 1, n=5 m=3 k=2):")
    for label, row in sorted(cluster.metrics.summary().items()):
        print(
            f"  {label:22s} latency={row['latency_delta']:.0f}δ "
            f"messages={row['messages']:.0f} "
            f"disk R/W={row['disk_reads']:.0f}/{row['disk_writes']:.0f} "
            f"bytes={row['bytes']:.0f}"
        )


if __name__ == "__main__":
    main()
