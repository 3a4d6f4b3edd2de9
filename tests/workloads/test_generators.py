"""Workload generators."""

import random
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.workloads.generators import (
    ConflictSchedule,
    UniformPattern,
    ZipfPattern,
)


class TestPatterns:
    def test_uniform_in_range(self):
        pattern = UniformPattern()
        rng = random.Random(0)
        assert all(0 <= pattern.next_block(rng, 10) < 10 for _ in range(200))

    def test_uniform_covers_space(self):
        pattern = UniformPattern()
        rng = random.Random(1)
        seen = {pattern.next_block(rng, 8) for _ in range(400)}
        assert seen == set(range(8))

    def test_zipf_is_skewed(self):
        pattern = ZipfPattern(exponent=1.2, seed=0)
        rng = random.Random(2)
        counts = Counter(pattern.next_block(rng, 50) for _ in range(3000))
        top_share = sum(c for _b, c in counts.most_common(5)) / 3000
        assert top_share > 0.35

    def test_zipf_in_range(self):
        pattern = ZipfPattern(exponent=2.0, seed=3)
        rng = random.Random(4)
        assert all(0 <= pattern.next_block(rng, 20) < 20 for _ in range(500))

    def test_zipf_hot_set_fixed_by_pattern_seed(self):
        """The popularity ranking belongs to the pattern, not to the
        caller's rng: two rngs agree on the hottest block."""
        def hottest(pattern_seed, rng_seed):
            pattern = ZipfPattern(exponent=1.5, seed=pattern_seed)
            rng = random.Random(rng_seed)
            counts = Counter(pattern.next_block(rng, 40) for _ in range(2000))
            return counts.most_common(1)[0][0]

        assert hottest(0, 1) == hottest(0, 2)
        assert len({hottest(seed, 1) for seed in range(6)}) > 1

    def test_zipf_follows_a_changed_block_count(self):
        pattern = ZipfPattern(seed=1)
        rng = random.Random(5)
        assert all(pattern.next_block(rng, 50) < 50 for _ in range(100))
        assert {pattern.next_block(rng, 3) for _ in range(300)} == {0, 1, 2}

    def test_zipf_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfPattern(exponent=0)


class TestConflictSchedule:
    def test_full_conflict_targets_shared_register(self):
        schedule = ConflictSchedule(
            num_registers=10, writers=3, conflict_probability=1.0, seed=0
        )
        for round_ops in schedule.rounds(20):
            registers = {register for register, _offset in round_ops}
            assert len(registers) == 1
            assert len(round_ops) == 3

    def test_zero_conflict_targets_distinct_registers(self):
        schedule = ConflictSchedule(
            num_registers=10, writers=3, conflict_probability=0.0, seed=0
        )
        for round_ops in schedule.rounds(20):
            registers = [register for register, _offset in round_ops]
            assert len(set(registers)) == len(registers)

    def test_deterministic_by_seed(self):
        def rounds(seed):
            return ConflictSchedule(
                num_registers=8, writers=3, conflict_probability=0.5, seed=seed
            ).rounds(15)

        assert rounds(7) == rounds(7)
        assert rounds(7) != rounds(8)

    def test_writers_beyond_registers_share_them(self):
        schedule = ConflictSchedule(
            num_registers=2, writers=3, conflict_probability=0.0, seed=2
        )
        for round_ops in schedule.rounds(10):
            assert len(round_ops) == 3
            assert {register for register, _offset in round_ops} == {0, 1}

    def test_offsets_within_spread(self):
        schedule = ConflictSchedule(num_registers=5, spread=2.5, seed=1)
        for round_ops in schedule.rounds(10):
            assert all(0 <= offset <= 2.5 for _register, offset in round_ops)
