"""Brute-force checker, and cross-validation against the graph checker."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.types import OpKind, OpStatus
from repro.verify.linearizability import check_strict_linearizability
from tests.verify.wing_gong import brute_force_linearizable
from tests.verify.test_linearizability import read, write


class TestBruteForce:
    def test_sequential_ok(self):
        history = [write(b"a", 0, 1), read(b"a", 2, 3)]
        assert brute_force_linearizable(history) is True

    def test_stale_read_rejected(self):
        history = [
            write(b"a", 0, 1),
            write(b"b", 2, 3),
            read(b"a", 4, 5),
        ]
        assert brute_force_linearizable(history) is False

    def test_crashed_write_optional(self):
        base = [
            write(b"a", 0, 1),
            write(b"b", 2, 3, status=OpStatus.CRASHED),
        ]
        assert brute_force_linearizable(base + [read(b"a", 4, 5)]) is True
        assert brute_force_linearizable(base + [read(b"b", 4, 5)]) is True

    def test_figure5_rejected(self):
        history = [
            write(b"v", 0, 1),
            write(b"w", 2, 3, status=OpStatus.CRASHED),
            read(b"v", 4, 5),
            read(b"w", 6, 7),
        ]
        assert brute_force_linearizable(history) is False

    def test_size_cap(self):
        history = [write(bytes([i]), 2 * i, 2 * i + 1) for i in range(1, 20)]
        assert brute_force_linearizable(history, max_ops=10) is None


def random_history(rng: random.Random, length: int):
    """A random (not necessarily valid) small history."""
    history = []
    values = [bytes([v]) for v in range(1, 6)]
    now = 0.0
    active = []
    for index in range(length):
        now += rng.uniform(0.1, 2.0)
        duration = rng.uniform(0.1, 3.0)
        status = rng.choice(
            [OpStatus.OK, OpStatus.OK, OpStatus.OK, OpStatus.CRASHED]
        )
        if rng.random() < 0.5:
            value = bytes([index + 1])  # unique write values
            history.append(write(value, now, now + duration, status))
        else:
            value = rng.choice(values + [None])
            history.append(read(value, now, now + duration, status))
    return history


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(40))
    def test_checkers_agree_on_random_histories(self, seed):
        rng = random.Random(seed)
        history = random_history(rng, rng.randint(2, 7))
        graph = check_strict_linearizability(history)
        brute = brute_force_linearizable(history)
        assert brute is not None
        if graph.ok != brute:
            # The graph checker is conservative in exactly one known
            # direction: conforming total orders are sufficient, not
            # necessary.  The brute-force checker must never reject a
            # history the graph checker accepts.
            assert brute and not graph.ok, (
                f"seed={seed}: graph={graph.ok} brute={brute} "
                f"{graph.violations}"
            )

    @pytest.mark.parametrize("seed", range(40, 60))
    def test_graph_acceptance_implies_brute_acceptance(self, seed):
        rng = random.Random(seed)
        history = random_history(rng, rng.randint(2, 7))
        graph = check_strict_linearizability(history)
        if graph.ok:
            assert brute_force_linearizable(history) is True


class TestStrictVsTraditional:
    """Figure 5 separates the two correctness notions exactly."""

    FIGURE5 = None  # built lazily to reuse the helpers

    def _figure5_history(self):
        return [
            write(b"v", 0, 1),
            write(b"w", 2, 3, status=OpStatus.CRASHED),  # partial
            read(b"v", 4, 5),   # rolled back...
            read(b"w", 6, 7),   # ...then resurfaces
        ]

    def test_fails_strict(self):
        assert brute_force_linearizable(self._figure5_history()) is False

    def test_passes_traditional(self):
        """Under traditional linearizability the crashed write may take
        effect between read2 and read3 — the LS97 behaviour is legal
        there, which is the paper's whole point."""
        assert brute_force_linearizable(
            self._figure5_history(), strict=False
        ) is True

    def test_strict_subset_of_traditional(self):
        """Anything strictly linearizable is traditionally linearizable."""
        import random as random_module

        for seed in range(25):
            rng = random_module.Random(seed)
            history = random_history(rng, rng.randint(2, 6))
            if brute_force_linearizable(history) is True:
                assert brute_force_linearizable(history, strict=False) is True
