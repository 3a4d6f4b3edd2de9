"""Invariant monitors must actually catch what they claim to catch."""

from repro.campaign.invariants import CampaignMonitor
from repro.campaign.schedule import FaultEvent, apply_event
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


def corrupt_noted(cluster, monitor, pid, register_id):
    """Flip a bit in one brick's log the way the campaign engine does."""
    event = FaultEvent(0.0, "corrupt", (pid, register_id), value=0)
    assert apply_event(cluster, event)
    cluster.replicas[pid].drop_mirror(register_id)
    monitor.note_corruption(pid, register_id)


def stored_clean(cluster, pid, register_id):
    replica = cluster.replicas[pid]
    return replica.node.stable.verify(replica.log_key(register_id))


class TestNotedCorruption:
    """The monitor observes a noted corruption without quarantining it."""

    def test_sample_leaves_the_damage_for_the_scrubber(self):
        cluster, monitor = monitored_cluster()
        cluster.register(0).write_stripe(stripe_of(3, 32, tag=1))
        monitor.sample()
        corrupt_noted(cluster, monitor, pid=2, register_id=0)
        monitor.sample()
        replica = cluster.replicas[2]
        assert 0 not in replica.quarantined
        assert not stored_clean(cluster, 2, 0)
        # The scrubber's audit is then the first to find it.
        assert not replica.audit(0)
        assert 0 in replica.quarantined
        assert monitor.violations == []

    def test_pair_is_forgotten_once_it_verifies_clean(self):
        cluster, monitor = monitored_cluster()
        stripe = stripe_of(3, 32, tag=1)
        cluster.register(0).write_stripe(stripe)
        corrupt_noted(cluster, monitor, pid=2, register_id=0)
        assert monitor._unverified == {(2, 0)}
        # A degraded read's write-back re-stores the fragment.
        assert cluster.register(0).read_stripe() == stripe
        assert stored_clean(cluster, 2, 0)
        monitor.sample()
        assert monitor._unverified == set()
        assert monitor.violations == []

    def test_clean_run_never_tracks_a_pair(self):
        cluster, monitor = monitored_cluster()
        cluster.register(0).write_stripe(stripe_of(3, 32, tag=1))
        cluster.crash(2)
        cluster.recover(2)
        monitor.sample()
        assert monitor._unverified == set()
        assert not monitor._damaged(2, 0)

    def test_crash_image_skips_the_damaged_copy(self):
        cluster, monitor = monitored_cluster()
        cluster.register(0).write_stripe(stripe_of(3, 32, tag=1))
        cluster.register(1).write_stripe(stripe_of(3, 32, tag=2))
        corrupt_noted(cluster, monitor, pid=2, register_id=0)
        cluster.crash(2)
        assert sorted(monitor._crash_images[2]) == [1]
        assert 0 not in cluster.replicas[2].quarantined

    def test_recovery_check_skips_copy_damaged_while_down(self):
        cluster, monitor = monitored_cluster()
        cluster.register(0).write_stripe(stripe_of(3, 32, tag=1))
        cluster.crash(2)
        corrupt_noted(cluster, monitor, pid=2, register_id=0)
        cluster.recover(2)
        assert monitor.recoveries_checked == 1
        assert monitor.violations == []
        assert 0 not in cluster.replicas[2].quarantined
        assert not stored_clean(cluster, 2, 0)
