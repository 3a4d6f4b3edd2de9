"""The fault bound follows the code: two quorums must meet in a set
that decodes, so ``f = floor((d - 1) / 2)`` for minimum distance ``d``."""

import itertools

import pytest

from repro.core.cluster import ClusterConfig, FabCluster
from repro.core.coordinator import CoordinatorConfig
from repro.erasure.registry import available_codes, make_code
from repro.errors import ReproError
from repro.quorum.theorems import max_fault_tolerance
from repro.types import ABORT


def _codes(max_n=10):
    for kind in available_codes():
        if kind == "auto":
            continue
        for n in range(1, max_n + 1):
            for m in range(1, n + 1):
                try:
                    yield make_code(m, n, kind)
                except ReproError:
                    continue  # a geometry this code does not build


def _meet_in_decodable_sets(code, f):
    """Whether every two quorums of ``n - f`` bricks meet in a
    decodable set (each distinct intersection is checked once)."""
    quorums = [
        frozenset(quorum)
        for quorum in itertools.combinations(range(1, code.n + 1), code.n - f)
    ]
    meets = {
        first & second
        for first, second in itertools.combinations_with_replacement(quorums, 2)
    }
    return all(code.is_decodable(meet) for meet in meets)


@pytest.mark.parametrize("code", list(_codes()), ids=repr)
def test_quorums_at_the_derived_f_meet_in_decodable_sets(code):
    f = max_fault_tolerance(code)
    assert f <= (code.n - code.m) // 2
    assert _meet_in_decodable_sets(code, f)
    if f + 1 < code.n:
        # The bound is tight: one more fault admits an undecodable meet.
        assert not _meet_in_decodable_sets(code, f + 1)


A = [bytes([65 + index]) * 32 for index in range(4)]
B = [bytes([97 + index]) * 32 for index in range(4)]


def _lrc_cluster(**config):
    return FabCluster(ClusterConfig(
        m=4, n=8, block_size=32, code_kind="lrc",
        coordinator=CoordinatorConfig(gc_enabled=False, op_timeout=50.0),
        **config,
    ))


def test_lrc_write_is_lost_past_the_derived_f():
    """LRC(4,8) at Theorem 2's f = 2: the quorums {1,2,4,5,7,8} and
    {1,2,3,5,6,7} meet in {1,2,5,7}, two data blocks, their own group's
    parity and one global parity, which has rank 3.  A write
    acknowledged by the first is invisible to a read from the second,
    and that read's write-back makes the rollback permanent."""
    cluster = _lrc_cluster(f=2, allow_unsafe_f=True)
    register = cluster.register(0)
    assert register.write_stripe(A) == "OK"
    cluster.crash(3)
    cluster.crash(6)
    assert register.write_stripe(B) == "OK"
    cluster.recover(3)
    cluster.recover(6)
    cluster.crash(4)
    cluster.crash(8)
    assert register.read_stripe() == A
    cluster.recover(4)
    cluster.recover(8)
    assert cluster.register(0, route=2).read_stripe() == A


def test_lrc_write_is_not_acknowledged_at_the_derived_f():
    """At the derived f = 1 (quorums of 7), the same schedule cannot
    acknowledge B: two bricks down leave no quorum."""
    cluster = _lrc_cluster()
    assert cluster.quorum_system.f == 1
    register = cluster.register(0)
    assert register.write_stripe(A) == "OK"
    cluster.crash(3)
    cluster.crash(6)
    assert register.write_stripe(B) is ABORT
    cluster.recover(3)
    cluster.recover(6)
    assert cluster.register(0, route=2).read_stripe() == A
