"""Section 5.2 optimizations: network bandwidth of block writes.

The paper lists two straightforward bandwidth reductions for
block-level writes: (a) ship blocks only to p_j and the parity
processes, and (b) send a single coded delta to each parity process
instead of the old and new block values.  The protocol's Modify is that
shape for every code: the new block to p_j, one delta per parity,
``ts`` only to the other data processes.  A fast block write therefore
moves exactly (n - m + 2)B — b_j back from p_j, the new block to p_j,
k deltas — against the (2n + 1)B the paper's Table 1 prints for the
unoptimised message.  This bench measures it per code kind and stripe
geometry.
"""

from tests.conftest import block_of, make_cluster, stripe_of

from .conftest import write_artifact

B = 1024
#: (code kind, m, n): every erasure.registry kind, with the geometries
#: the paper's examples use where the kind allows them.
CASES = [
    ("reed-solomon", 3, 6),
    ("reed-solomon", 5, 8),
    ("reed-solomon", 5, 9),
    ("lrc", 5, 8),
    ("parity", 5, 6),
    ("replication", 1, 3),
]


def measure(kind, m, n):
    cluster = make_cluster(m=m, n=n, block_size=B, code_kind=kind)
    register = cluster.register(0)
    register.write_stripe(stripe_of(m, B, tag=1))
    register.write_block(min(2, m), block_of(B, tag=2))
    return cluster.metrics.summary()["write-block/fast"]["bytes"]


def run_all():
    return {(kind, m, n): measure(kind, m, n) for kind, m, n in CASES}


def render(results) -> str:
    lines = [
        "Section 5.2(b): fast block-write bytes, per-destination Modify",
        f"{'code':>14s}{'geometry':>10s}{'(2n+1)B paper':>15s}"
        f"{'measured B':>12s}{'saving':>9s}",
    ]
    for (kind, m, n), measured in results.items():
        paper = (2 * n + 1) * B
        lines.append(
            f"{kind:>14s}{f'({m},{n})':>10s}{paper:>15d}"
            f"{measured:>12.0f}{1 - measured / paper:>9.1%}"
        )
    return "\n".join(lines) + "\n"


def test_bench_modify_bandwidth(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_artifact("section52_delta_bandwidth", render(results))
    for (_kind, m, n), measured in results.items():
        assert measured == (n - m + 2) * B
    assert results[("reed-solomon", 5, 8)] == 5120  # paper prints 17,408
