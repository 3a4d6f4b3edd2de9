"""Reed-Solomon code: encode/decode round-trips, erasures, modify."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.kernels import CROSSOVER_BYTES
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.errors import CodingError


def make_stripe(m, size, seed=0):
    return [bytes((seed * 31 + i * 7 + j) % 256 for j in range(size)) for i in range(m)]


class TestConstruction:
    def test_basic_properties(self):
        code = ReedSolomonCode(3, 5)
        assert code.m == 3
        assert code.n == 5
        assert code.parity_count == 2
        assert code.storage_overhead == pytest.approx(5 / 3)

    def test_rejects_bad_params(self):
        with pytest.raises(CodingError):
            ReedSolomonCode(0, 5)
        with pytest.raises(CodingError):
            ReedSolomonCode(6, 5)
        with pytest.raises(CodingError):
            ReedSolomonCode(2, 257)

    def test_generator_is_systematic(self):
        import numpy as np

        code = ReedSolomonCode(4, 7)
        gen = code.generator_matrix
        assert np.array_equal(gen[:4], np.eye(4, dtype=np.uint8))

    def test_coefficient_accessor(self):
        code = ReedSolomonCode(2, 4)
        gen = code.generator_matrix
        assert code.coefficient(1, 3) == int(gen[2, 0])
        with pytest.raises(CodingError):
            code.coefficient(0, 1)
        with pytest.raises(CodingError):
            code.coefficient(1, 5)

    def test_repr(self):
        assert "m=3" in repr(ReedSolomonCode(3, 5))


class TestEncodeDecode:
    def test_encode_prefix_is_data(self):
        code = ReedSolomonCode(3, 6)
        stripe = make_stripe(3, 16)
        encoded = code.encode(stripe)
        assert len(encoded) == 6
        assert encoded[:3] == stripe

    def test_encode_wrong_arity(self):
        code = ReedSolomonCode(3, 5)
        with pytest.raises(CodingError):
            code.encode(make_stripe(2, 16))

    def test_encode_mismatched_sizes(self):
        code = ReedSolomonCode(2, 3)
        with pytest.raises(CodingError):
            code.encode([b"aa", b"bbb"])
        # The kernels pick an implementation from the first block's
        # length, which is sound only because stripes straddling the
        # crossover never reach them.
        short, long = bytes(CROSSOVER_BYTES - 1), bytes(CROSSOVER_BYTES + 1)
        with pytest.raises(CodingError):
            code.encode([short, long])
        with pytest.raises(CodingError):
            code.decode({1: short, 3: long})

    def test_decode_from_data_blocks(self):
        code = ReedSolomonCode(3, 5)
        stripe = make_stripe(3, 8)
        encoded = code.encode(stripe)
        assert code.decode({1: encoded[0], 2: encoded[1], 3: encoded[2]}) == stripe

    def test_decode_every_survivor_pattern(self):
        code = ReedSolomonCode(3, 6)
        stripe = make_stripe(3, 8, seed=5)
        encoded = code.encode(stripe)
        for survivors in itertools.combinations(range(1, 7), 3):
            blocks = {i: encoded[i - 1] for i in survivors}
            assert code.decode(blocks) == stripe, survivors

    def test_decode_with_extra_blocks(self):
        code = ReedSolomonCode(2, 4)
        stripe = make_stripe(2, 4)
        encoded = code.encode(stripe)
        blocks = {i: encoded[i - 1] for i in range(1, 5)}
        assert code.decode(blocks) == stripe

    def test_decode_too_few_raises(self):
        code = ReedSolomonCode(3, 5)
        encoded = code.encode(make_stripe(3, 4))
        with pytest.raises(CodingError):
            code.decode({1: encoded[0], 2: encoded[1]})

    def test_decode_bad_index_raises(self):
        code = ReedSolomonCode(2, 3)
        encoded = code.encode(make_stripe(2, 4))
        with pytest.raises(CodingError):
            code.decode({0: encoded[0], 2: encoded[1]})

    def test_decode_caches_matrices(self):
        code = ReedSolomonCode(2, 4)
        stripe = make_stripe(2, 4)
        encoded = code.encode(stripe)
        blocks = {2: encoded[1], 4: encoded[3]}
        code.decode(blocks)
        assert len(code._decode_cache) == 1
        code.decode(blocks)
        assert len(code._decode_cache) == 1

    def test_decode_cache_is_lru_bounded(self):
        import random

        code = ReedSolomonCode(4, 12)
        code.DECODE_CACHE_SIZE = 8
        stripe = make_stripe(4, 4)
        encoded = code.encode(stripe)
        all_data = frozenset(range(1, 5))  # pass-through, never cached
        seen = []
        rng = random.Random(5)
        while len(seen) < 20:
            survivors = frozenset(rng.sample(range(1, 13), 4))
            if survivors in seen or survivors == all_data:
                continue
            seen.append(survivors)
            blocks = {i: encoded[i - 1] for i in survivors}
            assert code.decode(blocks) == stripe
            assert len(code._decode_cache) <= 8
        # The most recent distinct survivor sets are the ones retained.
        assert set(code._decode_cache) == set(seen[-8:])

    def test_decode_cache_lru_refreshes_on_hit(self):
        code = ReedSolomonCode(2, 6)
        code.DECODE_CACHE_SIZE = 2
        stripe = make_stripe(2, 4)
        encoded = code.encode(stripe)
        first = {1: encoded[0], 3: encoded[2]}
        second = {2: encoded[1], 4: encoded[3]}
        third = {5: encoded[4], 6: encoded[5]}
        code.decode(first)
        code.decode(second)
        code.decode(first)  # refresh: first is now most recent
        code.decode(third)  # evicts second, not first
        assert set(code._decode_cache) == {
            frozenset({1, 3}), frozenset({5, 6})
        }

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=64),
        st.randoms(use_true_random=False),
    )
    def test_roundtrip_random(self, m, extra, size, rng):
        n = m + extra
        code = ReedSolomonCode(m, n)
        stripe = [
            bytes(rng.randrange(256) for _ in range(size)) for _ in range(m)
        ]
        encoded = code.encode(stripe)
        survivors = rng.sample(range(1, n + 1), m)
        assert code.decode({i: encoded[i - 1] for i in survivors}) == stripe


class TestModify:
    def test_modify_matches_reencode(self):
        code = ReedSolomonCode(3, 6)
        stripe = make_stripe(3, 8)
        encoded = code.encode(stripe)
        new_block = bytes(range(8))
        new_stripe = [new_block, stripe[1], stripe[2]]
        reencoded = code.encode(new_stripe)
        for j in range(4, 7):
            modified = code.modify(1, j, stripe[0], new_block, encoded[j - 1])
            assert modified == reencoded[j - 1]

    def test_modify_each_data_index(self):
        code = ReedSolomonCode(3, 5)
        stripe = make_stripe(3, 8, seed=2)
        encoded = code.encode(stripe)
        for i in range(1, 4):
            new_block = bytes((x + i) % 256 for x in range(8))
            new_stripe = list(stripe)
            new_stripe[i - 1] = new_block
            reencoded = code.encode(new_stripe)
            for j in range(4, 6):
                modified = code.modify(i, j, stripe[i - 1], new_block, encoded[j - 1])
                assert modified == reencoded[j - 1]

    def test_modify_noop_when_unchanged(self):
        code = ReedSolomonCode(2, 4)
        stripe = make_stripe(2, 4)
        encoded = code.encode(stripe)
        assert code.modify(1, 3, stripe[0], stripe[0], encoded[2]) == encoded[2]

    def test_modify_validates_indices(self):
        code = ReedSolomonCode(2, 4)
        with pytest.raises(CodingError):
            code.modify(3, 4, b"a", b"b", b"c")
        with pytest.raises(CodingError):
            code.modify(1, 2, b"a", b"b", b"c")

    def test_modify_validates_sizes(self):
        code = ReedSolomonCode(2, 4)
        with pytest.raises(CodingError):
            code.modify(1, 3, b"aa", b"b", b"cc")
        short, long = bytes(CROSSOVER_BYTES - 1), bytes(CROSSOVER_BYTES + 1)
        with pytest.raises(CodingError):
            code.modify(1, 3, short, short, long)


class TestDeltaOptimization:
    def test_delta_equivalent_to_modify(self):
        code = ReedSolomonCode(3, 6)
        stripe = make_stripe(3, 16)
        encoded = code.encode(stripe)
        new_block = bytes(reversed(range(16)))
        delta = code.encode_delta(2, stripe[1], new_block)
        for j in range(4, 7):
            via_modify = code.modify(2, j, stripe[1], new_block, encoded[j - 1])
            via_delta = code.apply_delta(2, j, delta, encoded[j - 1])
            assert via_modify == via_delta

    def test_delta_is_xor(self):
        code = ReedSolomonCode(2, 3)
        assert code.encode_delta(1, b"\x0f", b"\xf0") == b"\xff"

    def test_delta_validates(self):
        code = ReedSolomonCode(2, 4)
        with pytest.raises(CodingError):
            code.encode_delta(3, b"a", b"b")
        with pytest.raises(CodingError):
            code.encode_delta(1, b"aa", b"b")
        with pytest.raises(CodingError):
            code.apply_delta(1, 2, b"a", b"b")
