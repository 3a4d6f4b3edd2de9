"""The FAB protocol over a non-MDS (LRC) stripe code.

Regression suite for the fast-read target bug: the paper's line 6
("pick m random processes") silently assumes an MDS code, where every
``m``-subset decodes.  An LRC has rank-deficient ``m``-subsets (a local
group's data plus its own parity), so the coordinator must redraw until
it holds a decodable target set.
"""

from repro import ClusterConfig, FabCluster
from repro.erasure.lrc import LRCCode
from repro.sim.network import NetworkConfig
from tests.conftest import stripe_of


def lrc_cluster(m=4, n=8, seed=0, **cluster_kwargs):
    return FabCluster(
        ClusterConfig(
            m=m,
            n=n,
            block_size=32,
            seed=seed,
            code_kind="lrc",
            network=NetworkConfig(
                min_latency=1.0, max_latency=1.0, jitter_seed=seed
            ),
            **cluster_kwargs,
        )
    )


class TestLRCCluster:
    def test_cluster_runs_lrc(self):
        cluster = lrc_cluster()
        assert isinstance(cluster.code, LRCCode)
        assert cluster.code.local_group_count == 2
        assert cluster.code.global_parity_count == 2

    def test_repeated_fast_reads_never_hit_a_singular_target_set(self):
        """Before the fix, ~1 in 7 random 4-subsets of this layout was
        rank-deficient and the read crashed with CodingError."""
        cluster = lrc_cluster()
        stripe = stripe_of(4, 32, tag=1)
        assert cluster.register(0).write_stripe(stripe) == "OK"
        for trial in range(60):
            route = 1 + trial % 8
            assert cluster.register(0, route=route).read_stripe() == stripe

    def test_degraded_reads_with_brick_down(self):
        """The recover path feeds *all* survivors to decode; the greedy
        LRC plan must handle whatever subset is live."""
        # LRC(8,14) has minimum distance 5, so it tolerates f = 2 (an
        # LRC(4,8) tolerates only 1: two of its quorums can meet in an
        # undecodable set).
        cluster = lrc_cluster(m=8, n=14)
        assert cluster.quorum_system.f == 2
        stripes = {}
        for register_id in range(4):
            stripes[register_id] = stripe_of(8, 32, tag=register_id)
            cluster.register(register_id).write_stripe(stripes[register_id])
        cluster.crash(3)  # a data block
        cluster.crash(10)  # the parity of another local group
        for register_id, stripe in stripes.items():
            assert (
                cluster.register(register_id, route=1).read_stripe() == stripe
            )

    def test_writes_after_failures_still_read_back(self):
        cluster = lrc_cluster()
        cluster.crash(2)
        stripe = stripe_of(4, 32, tag=9)
        assert cluster.register(5).write_stripe(stripe) == "OK"
        cluster.recover(2)
        cluster.crash(7)
        assert cluster.register(5, route=4).read_stripe() == stripe
