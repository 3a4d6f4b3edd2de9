"""Erasure-coding primitive throughput.

Not a paper table, but the substrate the whole system stands on:
encode / decode / modify throughput for the Reed-Solomon, XOR-parity,
and replication codes at realistic block sizes.  pytest-benchmark's
timing is the artifact here; assertions pin correctness and the
expected performance ordering (XOR beats field arithmetic).

The block-size sweep times the three implementations inside
:mod:`repro.erasure.kernels` (``translate``, ``word`` and ``gather``)
against each other from 64 B to 64 KiB, which is how
``kernels.CROSSOVER_BYTES`` and the word/gather op-count rule are
derived: it writes ``benchmarks/out/erasure_kernels.txt`` and pins the
reason all three exist — translate wins on the paper's small blocks,
word on large stripes, and gather on single dense rows (one decode row,
a modify's one coefficient) of a few KiB.
"""

import time

import numpy as np
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


#: (``CROSSOVER_BYTES``, word rule) that force one implementation on
#: every row; a rule of ``None`` never runs (translate takes all).
IMPLEMENTATIONS = {
    "translate": (1 << 62, None),
    "word": (0, True),
    "gather": (0, False),
}
SWEEP_PAIRS = [(2, 4), (4, 8), (8, 16)]
SWEEP_SIZES = [64, 256, 512, 1024, 2048, 4096, 16384, 65536]
OPS = ("encode", "decode-1", "decode-p", "modify")


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
    """µs per call of each of :data:`OPS`.

    ``decode-1`` reconstructs with one data block lost (one dense
    decode row), ``decode-p`` with every parity pressed into service
    (with ``n - m >= m`` no data block survives: every row is dense).
    """
    code = make_code(m, n, "reed-solomon")
    stripe = make_stripe(m, size)
    encoded = code.encode(stripe)
    one_lost = {i: encoded[i - 1] for i in range(2, m + 2)}
    all_parity = {i: encoded[i - 1] for i in range(n - m + 1, n + 1)}
    assert code.decode(one_lost) == code.decode(all_parity) == stripe
    new_block = bytes(size)
    return (
        us_per_call(lambda: code.encode(stripe)),
        us_per_call(lambda: code.decode(one_lost)),
        us_per_call(lambda: code.decode(all_parity)),
        us_per_call(
            lambda: code.modify(1, m + 1, stripe[0], new_block, encoded[m])
        ),
    )


def run_block_size_sweep(monkeypatch):
    """{(m, n, size): {implementation: µs per op, in OPS order}}."""
    results = {}
    for m, n in SWEEP_PAIRS:
        for size in SWEEP_SIZES:
            point = results[(m, n, size)] = {}
            for name, (crossover, word) in IMPLEMENTATIONS.items():
                monkeypatch.setattr(kernels, "CROSSOVER_BYTES", crossover)
                monkeypatch.setattr(
                    kernels, "_word_is_cheaper",
                    lambda row, width, word=word: word,
                )
                point[name] = sweep_point(m, n, size)
    return results


def render_sweep(results, crossover):
    lines = [
        "Erasure-kernel block-size sweep - us per call, "
        "translate / word / gather",
        "(Reed-Solomon; decode-1 reconstructs with one data block lost,",
        " decode-p with every parity block in use;",
        f" kernels.CROSSOVER_BYTES = {crossover}: shorter blocks take"
        " translate, the rest word or gather by row)",
        "",
        f"{'(m,n)':>7} {'block':>6}"
        + "".join(f"  {op:>26}" for op in OPS),
    ]
    for (m, n, size), point in results.items():
        cells = []
        for op in range(len(OPS)):
            times = [point[name][op] for name in IMPLEMENTATIONS]
            mark = "twg"[times.index(min(times))]
            cells.append(
                "/".join(f"{t:7.1f}" for t in times) + f" {mark}"
            )
        lines.append(
            f"{f'({m},{n})':>7} {size:>6}  " + "  ".join(cells)
        )
    return "\n".join(lines) + "\n"


PRIMITIVE_SIZES = [2048, 4096, 16384, 65536]


def run_primitive_sweep():
    """{size: (µs per word operation, µs per take)}.

    What the word/gather rule's weights are fitted to: one in-place
    ``uint64`` XOR stands for a word operation (an xtime is six), and
    one ``np.take`` as the gather row issues it.
    """
    results = {}
    for size in PRIMITIVE_SIZES:
        words = np.frombuffer(make_stripe(1, size)[0], dtype=np.uint64)
        accum = words.copy()
        table = kernels._MUL[27]
        results[size] = (
            us_per_call(lambda: np.bitwise_xor(accum, words, out=accum)),
            us_per_call(lambda: np.take(
                table, words.view(np.uint8), out=accum.view(np.uint8),
                mode="wrap",
            )),
        )
    return results


def render_primitives(results):
    lines = [
        "",
        "Primitives the word/gather rule is fitted to - us per call",
        f"{'block':>6} {'word op':>8} {'take':>8} {'take/op':>8}"
        f" {'rule':>8}",
    ]
    for size, (word, take) in results.items():
        rule = (
            kernels._GATHER_CALL_BYTES + kernels._GATHER_SLOWDOWN * size
        ) / (kernels._CALL_BYTES + size)
        lines.append(
            f"{size:>6} {word:8.2f} {take:8.2f} {take / word:8.1f}"
            f" {rule:8.1f}"
        )
    return "\n".join(lines) + "\n"


def test_bench_kernel_block_size_sweep(benchmark, monkeypatch):
    """The sweep ``kernels.CROSSOVER_BYTES`` and the word rule are set
    from."""
    crossover = kernels.CROSSOVER_BYTES
    results = benchmark.pedantic(
        run_block_size_sweep, args=(monkeypatch,), rounds=1, iterations=1
    )
    write_artifact(
        "erasure_kernels",
        render_sweep(results, crossover)
        + render_primitives(run_primitive_sweep()),
    )
    # Why all three implementations stay: each wins its own range —
    # translate small blocks, word large stripes, and gather a single
    # dense coefficient (RS(4,8) and RS(8,16) modify) at 4 KiB.
    encode, modify = OPS.index("encode"), OPS.index("modify")
    for m, n in SWEEP_PAIRS:
        small = results[(m, n, SWEEP_SIZES[0])]
        large = results[(m, n, SWEEP_SIZES[-1])]
        for other in ("word", "gather"):
            assert small["translate"][encode] < small[other][encode], (
                m, n, small)
        for other in ("translate", "gather"):
            assert large["word"][encode] < large[other][encode], (
                m, n, large)
    for m, n in SWEEP_PAIRS[1:]:
        dense = results[(m, n, 4096)]
        for other in ("translate", "word"):
            assert dense["gather"][modify] < dense[other][modify], (
                m, n, dense)
