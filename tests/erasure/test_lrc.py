"""LRCCode: topology, decodability, locality, and repair planning.

The locality contract under test: a single lost block repairs from its
local group alone — at most ``local_group_size`` reads, never ``m``
fleet-wide — while any failure pattern within the campaign tolerance
``(n - m) // 2`` still decodes through the global parities.
"""

import itertools
import random

import pytest

from repro.erasure import LRCCode, make_code, split_parity
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.errors import CodingError


def stripe_for(code, width=32, seed=3):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(width)) for _ in range(code.m)]


class TestConstruction:
    def test_default_split(self):
        assert split_parity(4) == (2, 2)
        assert split_parity(5) == (3, 2)
        assert split_parity(1) == (1, 0)
        with pytest.raises(CodingError):
            split_parity(0)

    def test_factory_registration(self):
        code = make_code(4, 8, "lrc")
        assert isinstance(code, LRCCode)
        assert code.local_group_count == 2
        assert code.global_parity_count == 2

    def test_balanced_groups(self):
        code = LRCCode(7, 12, local_groups=3, global_parities=2)
        assert code.local_groups == ((1, 2, 3), (4, 5), (6, 7))
        assert code.local_group_size == 4  # largest group + its parity

    def test_group_layout_accessors(self):
        code = LRCCode(4, 8, local_groups=2, global_parities=2)
        assert code.local_groups == ((1, 2), (3, 4))
        assert code.local_parity_index(0) == 5
        assert code.local_parity_index(1) == 6
        assert code.group_of(1) == 0 and code.group_of(4) == 1
        assert code.group_of(5) == 0 and code.group_of(6) == 1
        assert code.group_of(7) is None and code.group_of(8) is None
        with pytest.raises(CodingError):
            code.group_of(9)
        with pytest.raises(CodingError):
            code.local_parity_index(2)

    def test_invalid_splits_rejected(self):
        with pytest.raises(CodingError):
            LRCCode(4, 8, local_groups=0, global_parities=4)
        with pytest.raises(CodingError):
            LRCCode(4, 8, local_groups=1, global_parities=1)  # L+g != n-m
        with pytest.raises(CodingError):
            LRCCode(2, 8, local_groups=3, global_parities=3)  # L > m

    def test_systematic_encode(self):
        code = LRCCode(4, 8)
        stripe = stripe_for(code)
        encoded = code.encode(stripe)
        assert encoded[: code.m] == stripe
        # Local parities are the XOR of their group.
        for gid, members in enumerate(code.local_groups):
            expected = bytes(len(stripe[0]))
            for index in members:
                expected = bytes(a ^ b for a, b in zip(expected, stripe[index - 1]))
            assert encoded[code.m + gid] == expected


class TestDecode:
    def test_all_tolerated_patterns_decode(self):
        code = LRCCode(4, 8)
        # Every 3 erasures decode, and some 4 do not.
        assert code.min_distance == 4
        stripe = stripe_for(code)
        encoded = code.encode(stripe)
        indices = range(1, code.n + 1)
        for count in (1, 2):
            for lost in itertools.combinations(indices, count):
                blocks = {
                    i: encoded[i - 1] for i in indices if i not in lost
                }
                assert code.decode(blocks) == stripe, lost

    def test_intolerant_layout_detected(self):
        # No global parity: two losses in one group are unrecoverable.
        code = LRCCode(4, 6, local_groups=2, global_parities=0)
        assert code.min_distance == 2
        stripe = stripe_for(code)
        encoded = code.encode(stripe)
        blocks = {i: encoded[i - 1] for i in (3, 4, 5, 6)}  # lost group 0 data
        with pytest.raises(CodingError):
            code.decode(blocks)

    def test_single_data_loss_prefers_local_parity(self):
        code = LRCCode(4, 8)
        chosen, _ = code._decode_plan(frozenset(range(2, code.n + 1)))
        globals_start = code.m + code.local_group_count + 1
        assert all(index < globals_start for index in chosen)
        assert code.local_parity_index(0) in chosen

    def test_group_wipe_falls_back_to_globals(self):
        code = LRCCode(4, 8)
        survivors = frozenset({3, 4, 6, 7, 8})  # group 0 data + parity gone
        chosen, _ = code._decode_plan(survivors)
        assert any(index > code.m + code.local_group_count for index in chosen)
        stripe = stripe_for(code)
        encoded = code.encode(stripe)
        assert code.decode({i: encoded[i - 1] for i in survivors}) == stripe


class TestDecodable:
    def test_mds_default_counts_valid_indices(self):
        code = ReedSolomonCode(3, 5)
        assert code.is_decodable({1, 2, 3})
        assert code.is_decodable({2, 4, 5})
        assert not code.is_decodable({1, 2})
        assert not code.is_decodable({1, 2, 99})  # out of range ignored

    def test_lrc_rejects_rank_deficient_subsets(self):
        code = LRCCode(4, 8)  # L=2 (groups {1,2}, {3,4}), g=2
        # The fast-read bug set: a group's data plus its own parity plus
        # one global — rank 3.
        assert not code.is_decodable({3, 4, 6, 7})
        assert not code.is_decodable({1, 2, 5, 7})
        assert code.is_decodable({1, 2, 3, 4})
        assert code.is_decodable({1, 3, 6, 7})
        assert not code.is_decodable({1, 2, 3})  # too few

    def test_lrc_decodable_sets_actually_decode(self):
        code = LRCCode(4, 8)
        stripe = [bytes([10 + i] * 16) for i in range(4)]
        encoded = code.encode(stripe)
        for subset in itertools.combinations(range(1, 9), 4):
            blocks = {i: encoded[i - 1] for i in subset}
            if code.is_decodable(subset):
                assert code.decode(blocks) == stripe
            else:
                with pytest.raises(CodingError):
                    code.decode(blocks)


class TestReconstruct:
    @pytest.mark.parametrize("m,n,L,g", [(4, 8, 2, 2), (6, 10, 2, 2), (6, 12, 3, 3)])
    def test_single_failure_repairs_locally(self, m, n, L, g):
        """Property: one lost brick reads <= local_group_size fragments."""
        code = LRCCode(m, n, local_groups=L, global_parities=g)
        stripe = stripe_for(code)
        encoded = code.encode(stripe)
        for failed in range(1, code.n + 1):
            sources = code.recovery_sources(failed)
            globals_start = code.m + code.local_group_count
            if failed <= globals_start:
                assert len(sources) <= code.local_group_size - 1
            else:
                assert len(sources) <= code.m  # global parity needs the data
            rebuilt = code.reconstruct(
                failed, {i: encoded[i - 1] for i in sources}
            )
            assert rebuilt == encoded[failed - 1], failed

    def test_degraded_local_group_falls_back(self):
        code = LRCCode(4, 8)
        stripe = stripe_for(code)
        encoded = code.encode(stripe)
        # Block 1 failed and its local parity (5) is also down.
        available = set(range(1, 9)) - {1, 5}
        sources = code.recovery_sources(1, available)
        assert set(sources) <= available
        rebuilt = code.reconstruct(1, {i: encoded[i - 1] for i in sources})
        assert rebuilt == encoded[0]

    def test_reconstruct_rejects_failed_source(self):
        code = LRCCode(4, 8)
        with pytest.raises(CodingError):
            code.reconstruct(1, {1: b"x", 2: b"y"})


class TestModify:
    def test_modify_matches_reencode(self):
        code = LRCCode(4, 8)
        stripe = stripe_for(code)
        encoded = code.encode(stripe)
        new_block = bytes(b ^ 0x5A for b in stripe[1])
        new_stripe = list(stripe)
        new_stripe[1] = new_block
        reencoded = code.encode(new_stripe)
        for j in range(code.m + 1, code.n + 1):
            modified = code.modify(2, j, stripe[1], new_block, encoded[j - 1])
            assert modified == reencoded[j - 1], j
            delta = code.encode_delta(2, stripe[1], new_block)
            assert code.apply_delta(2, j, delta, encoded[j - 1]) == reencoded[j - 1]
