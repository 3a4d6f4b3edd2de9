"""Invariant monitors must actually catch what they claim to catch."""

from repro.campaign.invariants import CampaignMonitor
from repro.core.cluster import ClusterConfig, FabCluster
from repro.sim.network import NetworkConfig
from repro.timestamps import LOW_TS
from tests.conftest import make_cluster, stripe_of


def monitored_cluster(**cluster_kwargs):
    cluster = make_cluster(m=3, n=5, **cluster_kwargs)
    return cluster, CampaignMonitor(cluster)


class TestQuorumPrecondition:
    def test_sound_config_passes(self):
        _cluster, monitor = monitored_cluster()
        assert monitor.violations == []

    def test_unsound_config_flagged_at_time_zero(self):
        cluster = FabCluster(
            ClusterConfig(
                m=3, n=5, f=2, allow_unsafe_f=True, block_size=32,
                network=NetworkConfig(jitter_seed=0),
            )
        )
        monitor = CampaignMonitor(cluster)
        assert monitor.violations
        assert all(v.time == 0.0 for v in monitor.violations)
        assert {v.invariant for v in monitor.violations} == {
            "quorum-precondition"
        }


class TestRecoveryEquivalence:
    def test_clean_crash_recover_cycle_passes(self):
        cluster, monitor = monitored_cluster()
        register = cluster.register(0)
        register.write_stripe(stripe_of(3, 32, tag=1))
        cluster.crash(2)
        cluster.recover(2)
        assert monitor.recoveries_checked == 1
        assert monitor.violations == []

    def test_detects_stable_store_corruption(self):
        """Mutating stable state while down must be caught on recovery."""
        cluster, monitor = monitored_cluster()
        register = cluster.register(0)
        register.write_stripe(stripe_of(3, 32, tag=1))
        cluster.crash(2)
        # Simulate the bug class the GC fix closed: writing to a down
        # brick's persistent state behind the crash-recovery model's back.
        replica = cluster.replicas[2]
        state = replica.state(0)
        state.log.trim_below(state.log.max_ts())
        cluster.nodes[2].stable.reset_journal("logj:0")
        cluster.nodes[2].stable.store("log:0", tuple(state.log.to_state()))
        cluster.recover(2)
        assert any(
            v.invariant == "recovery-equivalence" for v in monitor.violations
        )


class TestTimestampMonotonicity:
    def test_normal_operation_passes(self):
        cluster, monitor = monitored_cluster()
        register = cluster.register(0)
        for tag in range(3):
            register.write_stripe(stripe_of(3, 32, tag))
            monitor.sample()
        assert monitor.violations == []
        assert monitor.samples_taken == 3

    def test_detects_timestamp_regression(self):
        cluster, monitor = monitored_cluster()
        register = cluster.register(0)
        register.write_stripe(stripe_of(3, 32, tag=1))
        monitor.sample()
        cluster.replicas[3].state(0).ord_ts = LOW_TS  # lost persistent state
        monitor.sample()
        assert any(
            v.invariant == "timestamp-monotonicity"
            for v in monitor.violations
        )
