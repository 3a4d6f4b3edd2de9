"""Erasure-coding primitive throughput.

Not a paper table, but the substrate the whole system stands on:
encode / decode / modify throughput for the Reed-Solomon, XOR-parity,
and replication codes at realistic block sizes.  pytest-benchmark's
timing is the artifact here; assertions pin correctness and the
expected performance ordering (XOR beats field arithmetic).

The block-size sweep times the two implementations inside
:mod:`repro.erasure.kernels` (``translate`` and ``gather``) against each
other from 64 B to 64 KiB, which is how ``kernels.CROSSOVER_BYTES`` is
derived: it writes ``benchmarks/out/erasure_kernels.txt`` and pins the
reason both exist — translate wins on the paper's small blocks, gather
on large ones.
"""

import time

import pytest

from repro.erasure import kernels, make_code

from .conftest import write_artifact

BLOCK = 64 * 1024  # 64 KiB stripe units


def make_stripe(m, size=BLOCK, seed=1):
    return [bytes((seed + i * 37 + j) % 256 for j in range(size))
            for i in range(m)]


@pytest.mark.parametrize(
    "kind,m,n",
    [
        ("reed-solomon", 5, 8),
        ("cauchy", 5, 8),
        ("parity", 4, 5),
        ("replication", 1, 3),
    ],
)
def test_bench_encode(benchmark, kind, m, n):
    code = make_code(m, n, kind)
    stripe = make_stripe(m)
    encoded = benchmark(code.encode, stripe)
    assert len(encoded) == n
    assert encoded[:m] == stripe


@pytest.mark.parametrize(
    "kind,m,n",
    [("reed-solomon", 5, 8), ("cauchy", 5, 8), ("parity", 4, 5)],
)
def test_bench_decode_worst_case(benchmark, kind, m, n):
    """Decode with the maximum number of data blocks missing."""
    code = make_code(m, n, kind)
    stripe = make_stripe(m)
    encoded = code.encode(stripe)
    lost = n - m  # every parity pressed into service
    survivors = {
        i: encoded[i - 1] for i in range(lost + 1, n + 1)
    }
    decoded = benchmark(code.decode, survivors)
    assert decoded == stripe


def test_bench_modify(benchmark):
    code = make_code(5, 8, "reed-solomon")
    stripe = make_stripe(5)
    encoded = code.encode(stripe)
    new_block = bytes(BLOCK)

    result = benchmark(code.modify, 2, 6, stripe[1], new_block, encoded[5])
    expected = code.encode([stripe[0], new_block] + stripe[2:])[5]
    assert result == expected


def test_bench_delta_apply(benchmark):
    code = make_code(5, 8, "reed-solomon")
    stripe = make_stripe(5)
    encoded = code.encode(stripe)
    delta = code.encode_delta(2, stripe[1], bytes(BLOCK))

    result = benchmark(code.apply_delta, 2, 6, delta, encoded[5])
    expected = code.modify(2, 6, stripe[1], bytes(BLOCK), encoded[5])
    assert result == expected


#: ``CROSSOVER_BYTES`` values that force one implementation everywhere.
IMPLEMENTATIONS = {"translate": 1 << 62, "gather": 0}
SWEEP_PAIRS = [(2, 4), (4, 8), (8, 16)]
SWEEP_SIZES = [64, 256, 512, 1024, 2048, 4096, 16384, 65536]


def us_per_call(fn):
    """Best-of-nine microseconds per call of ``fn`` (~20 ms samples)."""
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    reps = max(3, int(0.02 / once))
    best = float("inf")
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - start) / reps)
    return best * 1e6


def sweep_point(m, n, size):
    """(encode, decode with one data block lost, modify) µs per call."""
    code = make_code(m, n, "reed-solomon")
    stripe = make_stripe(m, size)
    encoded = code.encode(stripe)
    survivors = {i: encoded[i - 1] for i in range(2, m + 2)}
    assert code.decode(survivors) == stripe
    new_block = bytes(size)
    return (
        us_per_call(lambda: code.encode(stripe)),
        us_per_call(lambda: code.decode(survivors)),
        us_per_call(
            lambda: code.modify(1, m + 1, stripe[0], new_block, encoded[m])
        ),
    )


def run_block_size_sweep(monkeypatch):
    """{(m, n, size): {implementation: (encode, decode, modify) µs}}."""
    results = {}
    for m, n in SWEEP_PAIRS:
        for size in SWEEP_SIZES:
            point = results[(m, n, size)] = {}
            for name, forced in IMPLEMENTATIONS.items():
                monkeypatch.setattr(kernels, "CROSSOVER_BYTES", forced)
                point[name] = sweep_point(m, n, size)
    return results


def render_sweep(results, crossover):
    lines = [
        "Erasure-kernel block-size sweep - us per call, translate / gather",
        "(Reed-Solomon; decode reconstructs with one data block lost;",
        f" kernels.CROSSOVER_BYTES = {crossover}: shorter blocks take"
        " translate, the rest gather)",
        "",
        f"{'(m,n)':>7} {'block':>6}  {'encode':>19}  {'decode':>19}"
        f"  {'modify':>19}",
    ]
    for (m, n, size), point in results.items():
        cells = []
        for op in range(3):
            translate, gather = point["translate"][op], point["gather"][op]
            mark = "t" if translate < gather else "g"
            cells.append(f"{translate:8.1f} /{gather:8.1f} {mark}")
        lines.append(
            f"{f'({m},{n})':>7} {size:>6}  " + "  ".join(cells)
        )
    return "\n".join(lines) + "\n"


def test_bench_kernel_block_size_sweep(benchmark, monkeypatch):
    """The sweep ``kernels.CROSSOVER_BYTES`` is set from."""
    crossover = kernels.CROSSOVER_BYTES
    results = benchmark.pedantic(
        run_block_size_sweep, args=(monkeypatch,), rounds=1, iterations=1
    )
    write_artifact("erasure_kernels", render_sweep(results, crossover))
    # Why both implementations stay: each wins an end of the range.
    for m, n in SWEEP_PAIRS:
        small = results[(m, n, SWEEP_SIZES[0])]
        large = results[(m, n, SWEEP_SIZES[-1])]
        assert small["translate"][0] < small["gather"][0], (m, n, small)
        assert large["gather"][0] < large["translate"][0], (m, n, large)
