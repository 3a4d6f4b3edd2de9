"""GF(2^8) bulk kernels: primitives and coders against the masked oracle.

The three implementations behind :mod:`repro.erasure.kernels` are only
allowed to differ in speed — on either side of the length crossover,
and with either the word or the gather implementation forced on every
row above it, every operation of every registered coder must be
bit-for-bit identical to the masked reference in
:mod:`tests.erasure.oracle`.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import kernels, make_code
from repro.erasure.kernels import CROSSOVER_BYTES
from repro.errors import CodingError
from tests.erasure import oracle

#: Every registered coder kind at a representative geometry, and
#: Reed-Solomon at the section 5.2 geometry too.
CODER_GEOMETRIES = [
    ("reed-solomon", 3, 6),
    ("reed-solomon", 5, 8),
    ("lrc", 4, 8),
    ("parity", 3, 4),
    ("replication", 1, 3),
]

#: Block lengths around the dispatch boundary.
BOUNDARY_WIDTHS = [
    1, CROSSOVER_BYTES - 1, CROSSOVER_BYTES, CROSSOVER_BYTES + 1,
    4 * CROSSOVER_BYTES,
]


def tolerated_erasures(kind: str, m: int, n: int) -> int:
    """Worst-case erasures every coder guarantees to decode.

    MDS codes tolerate any ``n - m`` losses; the LRC is non-MDS and
    only guarantees the campaign bound ``(n - m) // 2``.
    """
    return (n - m) // 2 if kind == "lrc" else n - m


#: Lengths the wide implementations are checked at: the crossover, tails
#: of one and seven bytes past a word, several words, and 64 KiB.
WIDE_WIDTHS = [
    CROSSOVER_BYTES, CROSSOVER_BYTES + 1, CROSSOVER_BYTES + 7,
    4 * CROSSOVER_BYTES, 64 * 1024,
]


@pytest.fixture(params=["word", "gather"])
def forced_row_kernel(request, monkeypatch):
    """Every row at or above the crossover takes one implementation."""
    monkeypatch.setattr(
        kernels, "_word_is_cheaper",
        lambda row, width, word=request.param == "word": word,
    )
    return request.param


def oracle_kernels():
    """Context manager: the coders' kernel calls go to the oracle."""
    return mock.patch.multiple(
        kernels, **{name: getattr(oracle, name) for name in oracle.FUNCTIONS}
    )


class TestKernelPrimitives:
    """matmul/scale/addmul/xor agree with the oracle on random inputs."""

    def _random_blocks(self, rng, count, width):
        return [rng.randbytes(width) for _ in range(count)]

    def test_matmul_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = rng.randrange(0, 5)
            cols = rng.randrange(1, 5)
            width = rng.choice([7, 64, 257] + BOUNDARY_WIDTHS)
            coeffs = [
                [rng.randrange(256) for _ in range(cols)]
                for _ in range(rows)
            ]
            blocks = self._random_blocks(rng, cols, width)
            assert kernels.matmul(coeffs, blocks) == oracle.matmul(
                coeffs, blocks
            )

    @pytest.mark.parametrize("width", [64, 113] + BOUNDARY_WIDTHS)
    def test_scale_addmul_xor_match_oracle(self, width):
        rng = random.Random(11)
        for scalar in [0, 1, 2, 255] + [rng.randrange(256) for _ in range(8)]:
            a, b = self._random_blocks(rng, 2, width)
            assert kernels.scale(scalar, a) == oracle.scale(scalar, a)
            assert kernels.addmul(a, scalar, b) == oracle.addmul(a, scalar, b)
            assert kernels.xor(a, b) == oracle.xor(a, b)
        blocks = self._random_blocks(rng, 5, width)
        assert kernels.xor_all(blocks) == oracle.xor_all(blocks)
        assert kernels.xor_all(blocks[:1]) == blocks[0]

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(CodingError):
            kernels.matmul([[1, 2]], [b"xy"])

    def test_matmul_zero_rows(self):
        assert kernels.matmul([], [b"xy", b"ab"]) == []

    @pytest.mark.parametrize("width", [2, CROSSOVER_BYTES])
    def test_matmul_zero_row_output_is_zero(self, width):
        blocks = [b"x" * width, b"a" * width]
        assert kernels.matmul([[0, 0]], blocks) == [bytes(width)]


class TestUnequalLengths:
    """Every entry point refuses empty input and unequal lengths."""

    @pytest.mark.parametrize(
        "width", [CROSSOVER_BYTES - 1, CROSSOVER_BYTES + 1]
    )
    @pytest.mark.parametrize("short_first", [True, False])
    def test_kernels_refuse_unequal_lengths(self, width, short_first):
        long, short = b"\x03" * width, b"\x05" * (width - 1)
        a, b = (short, long) if short_first else (long, short)
        for call in (
            lambda: kernels.matmul([[1, 7]], [a, b]),
            lambda: kernels.addmul(a, 7, b),
            lambda: kernels.addmul(a, 1, b),
            lambda: kernels.xor(a, b),
            lambda: kernels.xor_all([a, a, b]),
        ):
            with pytest.raises(CodingError):
                call()

    def test_kernels_refuse_empty_input(self):
        with pytest.raises(CodingError):
            kernels.xor_all([])
        with pytest.raises(CodingError):
            kernels.matmul([[]], [])

    @pytest.mark.parametrize(
        "width", [CROSSOVER_BYTES - 1, CROSSOVER_BYTES + 1]
    )
    @pytest.mark.parametrize("geometry", CODER_GEOMETRIES)
    def test_coders_refuse_a_short_delta(self, geometry, width):
        kind, m, n = geometry
        code = make_code(m, n, kind)
        long, short = b"\x03" * width, b"\x05" * (width - 1)
        for delta, parity in ((short, long), (long, short)):
            with pytest.raises(CodingError):
                code.apply_delta(1, m + 1, delta, parity)
        with pytest.raises(CodingError):
            code.encode_delta(1, long, short)


class TestWideKernels:
    """Word and gather, each forced on every row, equal the oracle."""

    @pytest.mark.parametrize("width", WIDE_WIDTHS)
    def test_matmul_rows_match_oracle(self, forced_row_kernel, width):
        rng = random.Random(width)
        blocks = [rng.randbytes(width) for _ in range(4)]
        coeffs = [
            [0, 27, 0, 200],        # zero coefficients
            [1, 1, 1, 1],           # coefficient 1 only
            [0xFF] * 4,             # every bit of every coefficient
            [1, 0, 0, 0],           # identity rows
            [0, 0, 0, 1],
            [0, 0, 0, 0],           # all-zero row
            [rng.randrange(256) for _ in range(4)],
        ]
        assert kernels.matmul(coeffs, blocks) == oracle.matmul(
            coeffs, blocks
        )

    @pytest.mark.parametrize("width", WIDE_WIDTHS)
    def test_addmul_matches_oracle(self, forced_row_kernel, width):
        rng = random.Random(width + 1)
        a, b = rng.randbytes(width), rng.randbytes(width)
        for scalar in (0, 1, 2, 27, 0x80, 0xFF):
            assert kernels.addmul(a, scalar, b) == oracle.addmul(
                a, scalar, b
            )

    @pytest.mark.parametrize("width", WIDE_WIDTHS)
    @pytest.mark.parametrize("geometry", CODER_GEOMETRIES)
    def test_every_coder_matches_oracle(
        self, forced_row_kernel, geometry, width
    ):
        kind, m, n = geometry
        rng = random.Random(width * 31 + m)
        code = make_code(m, n, kind)
        stripe = [rng.randbytes(width) for _ in range(m)]
        lost = tolerated_erasures(kind, m, n)
        survivor_sets = [
            # One data block lost.
            [i for i in range(1, n + 1) if i != 1],
            # As many data blocks lost as the code tolerates, so every
            # parity it can use is pressed into service.
            [i for i in range(1, n + 1) if i > min(lost, m)],
        ]
        new_block = rng.randbytes(width)

        def run():
            encoded = code.encode(stripe)
            decoded = [
                code.decode({i: encoded[i - 1] for i in survivors})
                for survivors in survivor_sets
            ]
            delta = code.encode_delta(1, stripe[0], new_block)
            modified = [
                code.apply_delta(1, j, delta, encoded[j - 1])
                for j in range(m + 1, n + 1)
            ]
            return encoded, decoded, modified

        result = run()
        with oracle_kernels():
            expected = run()
        assert result == expected
        assert all(decoded == stripe for decoded in result[1])


class TestCodersMatchOracle:
    """Every coder, on both sides of the crossover, equals the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        geometry=st.sampled_from(CODER_GEOMETRIES),
        width=st.sampled_from(BOUNDARY_WIDTHS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_every_operation_is_byte_identical(self, geometry, width, seed):
        kind, m, n = geometry
        rng = random.Random(seed)
        code = make_code(m, n, kind)
        stripe = [rng.randbytes(width) for _ in range(m)]
        new_block = rng.randbytes(width)
        index = rng.randrange(1, m + 1)
        erasures = rng.randrange(tolerated_erasures(kind, m, n) + 1)
        survivors = rng.sample(range(1, n + 1), n - erasures)

        def run():
            encoded = code.encode(stripe)
            decoded = code.decode({i: encoded[i - 1] for i in survivors})
            modified, via_delta = [], []
            for j in range(m + 1, n + 1):
                modified.append(code.modify(
                    index, j, stripe[index - 1], new_block, encoded[j - 1]
                ))
                delta = code.encode_delta(index, stripe[index - 1], new_block)
                via_delta.append(
                    code.apply_delta(index, j, delta, encoded[j - 1])
                )
            return encoded, decoded, modified, via_delta

        result = run()
        with oracle_kernels():
            expected = run()
        assert result == expected
        assert result[1] == stripe
        assert result[3] == result[2]
