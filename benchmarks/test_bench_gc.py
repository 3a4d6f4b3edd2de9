"""Garbage collection (Section 5.1): log growth with and without GC.

The correctness argument lets each replica keep only the newest
complete write; the asynchronous GC notice after each full-quorum write
— a stripe write or a fast-path ``Modify`` — realizes that.  This bench
writes a long stream of stripes, then of single blocks, and tracks the
high-water mark of replica log sizes with GC off and on, plus the
stable-storage footprint.
"""

import pytest

from tests.conftest import make_cluster, stripe_of

from .conftest import write_artifact

M, N, B = 3, 5, 256
WRITES = 40


def run(gc_enabled, kind):
    """``WRITES`` writes of ``kind`` ("stripe" or "block"); returns the
    per-write log high-water marks and the stable-store footprint."""
    cluster = make_cluster(m=M, n=N, block_size=B, gc_enabled=gc_enabled)
    register = cluster.register(0)
    expected = stripe_of(M, B, 0)
    if kind == "block":
        register.write_stripe(expected)  # the base a Modify updates
    high_water = []
    for tag in range(WRITES):
        if kind == "stripe":
            expected = stripe_of(M, B, tag)
            assert register.write_stripe(expected) == "OK"
        else:
            j = 1 + tag % M
            expected[j - 1] = bytes([tag]) * B
            assert register.write_block(j, expected[j - 1]) == "OK"
        cluster.run(until=cluster.env.now + 10)  # let GC notices land
        high_water.append(cluster.max_log_entries(0))
    footprint = sum(
        node.stable.size_bytes() for node in cluster.nodes.values()
    )
    assert cluster.register(0, route=2).read_stripe() == expected
    return high_water, footprint


KINDS = ("stripe", "block")


def run_all():
    return {
        (kind, gc): run(gc, kind) for kind in KINDS for gc in (False, True)
    }


def render(results) -> str:
    lines = [f"Log growth over {WRITES} writes (m={M}, n={N}, B={B})"]
    header = f"{'write#':>8s}"
    for kind in KINDS:
        header += f"{kind + ' GC off':>16s}{kind + ' GC on':>16s}"
    lines.append(header)
    rows = [(f"{i:>8d}", i) for i in range(0, WRITES, 5)]
    rows.append((f"{'final':>8s}", -1))
    for label, index in rows:
        line = label
        for kind in KINDS:
            for gc in (False, True):
                line += f"{results[kind, gc][0][index]:>16d}"
        lines.append(line)
    for kind in KINDS:
        off, on = results[kind, False][1], results[kind, True][1]
        lines.append(
            f"stable-store bytes, {kind} writes: GC off = {off}, GC on = {on}"
        )
    return "\n".join(lines) + "\n"


def test_bench_gc(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_artifact("gc_log_growth", render(results))
    for kind in KINDS:
        off_curve, off_bytes = results[kind, False]
        on_curve, on_bytes = results[kind, True]
        # Without GC, logs grow linearly with the write count.
        assert off_curve[-1] >= WRITES
        # With GC — after a stripe write and after a fast-path Modify
        # alike — logs stay O(1): the newest complete version, plus, on
        # a ts-only data brick, the value entry its ⊥ refers to.
        assert max(on_curve) <= 3
        # And the storage footprint shrinks accordingly.  With GC on,
        # each trim resets a replica's journal to one snapshot of its
        # trimmed log (about one block), plus the ord-ts cell, against
        # one append record per write without GC — a gap of 10x or
        # more at these parameters, so off/5 holds with 2x slack.
        assert on_bytes < off_bytes / 5
