"""FabCluster assembly and configuration."""

import pytest

from repro import ClusterConfig, FabCluster
from repro.erasure import ReedSolomonCode, ReplicationCode, SingleParityCode
from repro.errors import ConfigurationError
from repro.sim.network import NetworkConfig
from tests.conftest import make_cluster, stripe_of


class TestConstruction:
    def test_defaults(self):
        cluster = FabCluster()
        assert cluster.config.m == 3
        assert cluster.config.n == 5
        assert len(cluster.nodes) == 5
        assert cluster.quorum_system.quorum_size == 4

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            FabCluster(ClusterConfig(m=5, n=3))

    @pytest.mark.parametrize("bad", [
        {"m": 0}, {"m": -1}, {"block_size": 0}, {"block_size": -4},
    ])
    def test_rejects_empty_stripes(self, bad):
        with pytest.raises(ConfigurationError):
            FabCluster(ClusterConfig(**bad))

    def test_code_selection(self):
        assert isinstance(FabCluster(ClusterConfig(m=1, n=3)).code, ReplicationCode)
        assert isinstance(FabCluster(ClusterConfig(m=3, n=4)).code, SingleParityCode)
        assert isinstance(FabCluster(ClusterConfig(m=3, n=6)).code, ReedSolomonCode)

    def test_explicit_f(self):
        cluster = FabCluster(ClusterConfig(m=3, n=7, f=1))
        assert cluster.quorum_system.quorum_size == 6

    def test_clock_skews_applied(self):
        cluster = FabCluster(ClusterConfig(clock_skews={2: 50.0}))
        skewed = cluster.coordinators[2].ts_source
        normal = cluster.coordinators[1].ts_source
        assert skewed.new_ts().time > normal.new_ts().time

    def test_clusters_from_one_config_do_not_share_network_state(self):
        """A mid-run drop window on one cluster must not leak into its
        config, nor into a sibling built from the same config (sharded
        groups all derive from one ``ClusterConfig``)."""
        network = NetworkConfig()
        config = ClusterConfig(network=network)
        a, b = FabCluster(config), FabCluster(config)
        a.transport.set_drop_probability(0.5)
        assert a.transport._window_drop == 0.5
        assert b.transport._window_drop == 0.0
        assert a.transport.config.drop_probability == 0.0
        assert network.drop_probability == 0.0

    def test_live_processes(self):
        cluster = make_cluster()
        assert cluster.live_processes() == [1, 2, 3, 4, 5]
        cluster.crash(3)
        assert cluster.live_processes() == [1, 2, 4, 5]

    def test_repr(self):
        assert "m=3" in repr(make_cluster())


class TestDeterminism:
    def test_same_seed_same_history(self):
        def run(seed):
            cluster = make_cluster(m=3, n=5, seed=seed,
                                   min_latency=0.5, max_latency=3.0)
            register = cluster.register(0)
            outcomes = []
            for tag in range(5):
                outcomes.append(register.write_stripe(stripe_of(3, 32, tag)))
                outcomes.append(register.read_stripe())
            outcomes.append(cluster.metrics.total_messages)
            outcomes.append(cluster.env.now)
            return outcomes

        assert run(7) == run(7)

    def test_different_seed_different_timing(self):
        def message_total(seed):
            cluster = make_cluster(m=3, n=5, seed=seed,
                                   min_latency=0.5, max_latency=3.0, drop=0.2)
            register = cluster.register(0)
            for tag in range(3):
                register.write_stripe(stripe_of(3, 32, tag))
            return cluster.env.now

        assert message_total(1) != message_total(2)


class TestMultiRegister:
    def test_hundred_registers(self):
        cluster = make_cluster(m=2, n=4, block_size=16)
        for register_id in range(100):
            stripe = stripe_of(2, 16, register_id)
            assert cluster.register(register_id).write_stripe(stripe) == "OK"
        for register_id in range(0, 100, 7):
            assert cluster.register(register_id).read_stripe() == stripe_of(
                2, 16, register_id
            )

    def test_registers_survive_crash_independently(self):
        cluster = make_cluster(m=2, n=4, block_size=16)
        for register_id in range(10):
            cluster.register(register_id).write_stripe(stripe_of(2, 16, register_id))
        cluster.crash(4)
        for register_id in range(10):
            assert cluster.register(register_id).read_stripe() == stripe_of(
                2, 16, register_id
            )
