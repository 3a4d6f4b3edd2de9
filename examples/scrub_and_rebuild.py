#!/usr/bin/env python3
"""Operating a FAB: scrub, lose a brick, rebuild, verify.

The reliability numbers of the paper's Figures 2-3 hinge on repair:
data on a dead brick must be re-protected quickly (we model ~6 hours
for a distributed rebuild).  This example walks the operational loop:

1. fill a volume;
2. lose a brick and keep serving writes (redundancy silently degrades);
3. scrub — see exactly which stripes run with a reduced failure margin;
4. rebuild — recovery-with-full-coverage per stripe;
5. verify the margin is back by failing a *different* brick.

Each step asserts what it prints.

Run:  python examples/scrub_and_rebuild.py
"""

from repro import ClusterConfig, FabCluster, LogicalVolume, VolumeSession
from repro.core.rebuild import Rebuilder, Scrubber

BLOCK = 256
STRIPES = 12


def payloads(volume: LogicalVolume, tag: str) -> list:
    return [
        (f"{tag}:{block}:".encode() * BLOCK)[:BLOCK]
        for block in range(volume.num_blocks)
    ]


def fill(session: VolumeSession, tag: str) -> None:
    """Write every block; the session coalesces them into stripe writes."""
    ops = session.submit_write_range(0, payloads(session.volume, tag))
    session.drain()
    assert all(op.result == "OK" for op in ops)


def main() -> None:
    cluster = FabCluster(ClusterConfig(m=3, n=5, block_size=BLOCK))
    volume = LogicalVolume(cluster, num_stripes=STRIPES)
    session = volume.session()
    scrubber = Scrubber(cluster)
    print(f"cluster {cluster}")

    print("\n[1] filling the volume...")
    fill(session, "gen1")
    reports = scrubber.scrub(range(STRIPES))
    redundant = sum(r.fully_redundant for r in reports)
    print(f"    scrub: {redundant}/{STRIPES} stripes fully redundant")
    assert redundant == STRIPES

    print("\n[2] brick 4 dies; writes continue...")
    cluster.crash(4)
    fill(session, "gen2")

    print("\n[3] brick 4 returns; scrubbing...")
    cluster.recover(4)
    stale = scrubber.stale_registers(range(STRIPES))
    print(f"    {len(stale)} stripes have a stale replica on brick 4")
    margins = [scrubber.scrub_register(r).redundancy for r in range(STRIPES)]
    print(f"    redundancy margin per stripe: min={min(margins)} "
          f"(healthy = {cluster.config.n})")
    assert len(stale) == STRIPES and min(margins) == cluster.config.n - 1

    print("\n[4] rebuilding...")
    report = Rebuilder(cluster).rebuild(range(STRIPES))
    print(f"    repaired={report.repaired} already-current="
          f"{report.already_current} aborted={report.aborted}")
    assert report.success
    stale = scrubber.stale_registers(range(STRIPES))
    print(f"    stale stripes after rebuild: {len(stale)}")
    assert not stale

    print("\n[5] proving the margin: failing brick 5 instead...")
    cluster.crash(5)
    reads = session.submit_read_range(0, volume.num_blocks)
    session.drain()
    values = {
        block: value for op in reads for block, value in zip(op.blocks, op.result)
    }
    ok = values == dict(enumerate(payloads(volume, "gen2")))
    print(f"    all {volume.num_blocks} blocks readable with brick 5 down: {ok}")
    assert ok
    print("\ndone: the rebuilt brick 4 carries the load brick 5 left behind.")


if __name__ == "__main__":
    main()
