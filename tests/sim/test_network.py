"""The sim substrate's fair-loss channel: delivery, drops, partitions."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import Environment
from repro.sim.monitor import Metrics
from repro.sim.network import NetworkConfig
from repro.transport.chaos import ChaosPolicy
from repro.transport.sim import SimTransport


def make_net(drop=0.0, **kwargs):
    env = Environment()
    network = SimTransport(env, NetworkConfig(**kwargs), Metrics())
    network.set_drop_probability(drop)
    return env, network


class FixedDraw:
    """A jitter RNG whose every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestConfigValidation:
    def test_latency_bounds(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(min_latency=5, max_latency=1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(min_latency=-1)

    def test_drop_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            SimTransport().set_drop_probability(1.0)
        with pytest.raises(ConfigurationError):
            SimTransport().set_drop_probability(-0.1)

    def test_delta_is_max_latency(self):
        assert NetworkConfig(min_latency=1, max_latency=3).delta == 3


class TestDelivery:
    def test_basic_delivery(self):
        env, network = make_net()
        received = []
        network.register(1, lambda msg: None)
        network.register(2, received.append)
        network.send(1, 2, "hello", size=5)
        env.run()
        assert len(received) == 1
        assert received[0].payload == "hello"
        assert received[0].src == 1

    def test_latency_applied(self):
        env, network = make_net(min_latency=3.0, max_latency=3.0)
        times = []
        network.register(2, lambda msg: times.append(env.now))
        network.send(1, 2, "x")
        env.run()
        assert times == [3.0]

    def test_latency_within_bounds(self):
        env, network = make_net(min_latency=1.0, max_latency=5.0, jitter_seed=3)
        times = []
        network.register(2, lambda msg: times.append(env.now))
        for _ in range(50):
            network.send(1, 2, "x")
        env.run()
        assert all(1.0 <= t <= 5.0 for t in times)

    def test_variable_latency_reorders(self):
        env, network = make_net(min_latency=1.0, max_latency=10.0, jitter_seed=1)
        order = []
        network.register(2, lambda msg: order.append(msg.payload))
        for index in range(20):
            network.send(1, 2, index)
        env.run()
        assert sorted(order) == list(range(20))
        assert order != list(range(20))  # at least one reorder with this seed

    def test_unregistered_destination_drops(self):
        env, network = make_net()
        network.send(1, 42, "void")
        env.run()
        assert network.metrics.dropped_messages == 1

    def test_duplicate_registration_rejected(self):
        _env, network = make_net()
        network.register(1, lambda msg: None)
        with pytest.raises(SimulationError):
            network.register(1, lambda msg: None)

    def test_unregister(self):
        env, network = make_net()
        received = []
        network.register(2, received.append)
        network.unregister(2)
        network.send(1, 2, "x")
        env.run()
        assert received == []

    def test_self_send_goes_through_queue(self):
        env, network = make_net(min_latency=2.0, max_latency=2.0)
        times = []
        network.register(1, lambda msg: times.append(env.now))
        network.send(1, 1, "loop")
        env.run()
        assert times == [2.0]


class TestLossAndDuplication:
    def test_drops_are_probabilistic(self):
        env, network = make_net(drop=0.5, jitter_seed=7)
        received = []
        network.register(2, received.append)
        for _ in range(200):
            network.send(1, 2, "x")
        env.run()
        assert 40 < len(received) < 160  # ~100 expected
        assert network.metrics.dropped_messages == 200 - len(received)

    def test_fair_loss_eventual_delivery(self):
        """Retransmission beats 90% loss (the fair-loss property)."""
        env, network = make_net(drop=0.9, jitter_seed=11)
        received = []
        network.register(2, received.append)
        for _ in range(300):
            network.send(1, 2, "retry")
        env.run()
        assert len(received) >= 1

    def test_duplicates(self):
        """Duplication is a chaos link fault layered over the channel."""
        env, network = make_net()
        network.set_chaos(ChaosPolicy(seed=1, duplicate=0.5))
        received = []
        network.register(2, received.append)
        for _ in range(20):
            network.send(1, 2, "x")
        env.run()
        assert network.stats.duplicated > 0
        assert len(received) == 20 + network.stats.duplicated
        assert network.metrics.total_messages == len(received)

    def test_metrics_count_messages_and_bytes(self):
        env, network = make_net()
        network.register(2, lambda msg: None)
        network.send(1, 2, "x", size=10)
        network.send(1, 2, "y", size=32)
        assert network.metrics.total_messages == 2
        assert network.metrics.total_bytes == 42

    def test_drop_window_loss_is_a_jitter_draw(self):
        """A send is lost iff the jitter draw falls under the window."""
        env, network = make_net()
        received = []
        network.register(2, received.append)

        def lost(window, draw):
            network.set_drop_probability(window)
            network._rng = FixedDraw(draw)
            before = len(received)
            network.send(1, 2, "x")
            env.run()
            return len(received) == before

        assert lost(0.5, 0.3)
        assert not lost(0.5, 0.6)
        assert not lost(0.0, 0.0)  # closed: no loss draw at all
        assert network.stats.dropped == 1


class TestFailuresAndPartitions:
    def test_down_destination_loses_messages(self):
        env, network = make_net()
        received = []
        network.register(2, received.append)
        network.set_down(2, True)
        network.send(1, 2, "x")
        env.run()
        assert received == []
        network.set_down(2, False)
        network.send(1, 2, "y")
        env.run()
        assert len(received) == 1

    def test_down_source_cannot_send(self):
        env, network = make_net()
        received = []
        network.register(2, received.append)
        network.set_down(1, True)
        network.send(1, 2, "x")
        env.run()
        assert received == []

    def test_crash_while_in_flight(self):
        """A message in flight to a node that crashes is lost."""
        env, network = make_net(min_latency=5.0, max_latency=5.0)
        received = []
        network.register(2, received.append)
        network.send(1, 2, "x")
        env.run(until=1)
        network.set_down(2, True)
        env.run()
        assert received == []

    def test_partition_blocks_both_directions(self):
        env, network = make_net()
        received = []
        network.register(1, received.append)
        network.register(2, received.append)
        network.partition({1})
        network.send(1, 2, "a")
        network.send(2, 1, "b")
        env.run()
        assert received == []

    def test_partition_only_affects_pairs(self):
        """Only pairs across the cut-off group's boundary are cut."""
        env, network = make_net()
        received = []
        network.register(3, received.append)
        network.register(4, received.append)
        network.partition({1, 4})
        network.send(2, 3, "outside")
        network.send(1, 4, "inside")
        env.run()
        assert sorted(m.payload for m in received) == ["inside", "outside"]

    def test_partition_appearing_in_flight_drops(self):
        env, network = make_net(min_latency=5.0, max_latency=5.0)
        received = []
        network.register(2, received.append)
        network.send(1, 2, "x")
        env.run(until=1)
        network.partition({2})
        env.run()
        assert received == []

    def test_heal_partition(self):
        env, network = make_net()
        received = []
        network.register(2, received.append)
        network.partition({1})
        network.heal()
        network.send(1, 2, "x")
        env.run()
        assert len(received) == 1

    def test_heal_all(self):
        _env, network = make_net()
        network.partition({1, 2})
        network.partition({3})
        network.heal()
        assert not network.is_partitioned(1, 3)
        assert not network.is_partitioned(3, 4)

    def test_is_partitioned_symmetric(self):
        _env, network = make_net()
        network.partition({1})
        assert network.is_partitioned(1, 2)
        assert network.is_partitioned(2, 1)
        assert not network.is_partitioned(2, 3)


class TestDeliverySweeps:
    """Batched per-(time, destination) delivery sweeps.

    That sweeps deliver exactly what per-message scheduling delivered
    is pinned by the ``delivery/40-sends`` golden (tests/golden).
    """

    def test_fan_in_batches_into_one_heap_entry(self):
        env, network = make_net(min_latency=1.0, max_latency=1.0)
        received = []
        network.register(1, received.append)
        before = env.events_scheduled
        for src in range(2, 7):
            network.send(src, 1, f"reply-{src}")
        # Five same-tick messages to one destination: one heap push.
        assert env.events_scheduled - before == 1
        env.run()
        assert [m.payload for m in received] == [
            f"reply-{src}" for src in range(2, 7)
        ]

    def test_batch_order_is_send_order(self):
        env, network = make_net(min_latency=2.0, max_latency=2.0)
        received = []
        network.register(9, received.append)
        for tag in ("a", "b", "c", "a2"):
            network.send(1, 9, tag)
        env.run()
        assert [m.payload for m in received] == ["a", "b", "c", "a2"]

    def test_distinct_destinations_get_distinct_sweeps(self):
        env, network = make_net(min_latency=1.0, max_latency=1.0)
        network.register(1, lambda m: None)
        network.register(2, lambda m: None)
        before = env.events_scheduled
        network.send(3, 1, "x")
        network.send(3, 2, "y")
        network.send(4, 1, "z")  # joins destination 1's open sweep
        assert env.events_scheduled - before == 2

    def test_distinct_times_get_distinct_sweeps(self):
        env, network = make_net(min_latency=1.0, max_latency=1.0)
        times = []
        network.register(1, lambda m: times.append(env.now))
        network.send(2, 1, "early")
        env.run(until=0.5)  # now = 0.5: the next send lands at 1.5
        network.send(2, 1, "late")
        env.run()
        assert times == [1.0, 1.5]

    def test_resend_during_sweep_opens_fresh_sweep(self):
        """A handler sending with zero latency must not append to the
        sweep that is currently firing (it would never be delivered)."""
        env, network = make_net(min_latency=0.0, max_latency=0.0)
        received = []

        def echo_once(message):
            received.append(message.payload)
            if message.payload == "ping":
                network.send(1, 1, "pong")

        network.register(1, echo_once)
        network.send(1, 1, "ping")
        env.run()
        assert received == ["ping", "pong"]

    def test_crash_between_batched_messages_still_rechecked(self):
        """Down/partition state is evaluated per message at delivery."""
        env, network = make_net(min_latency=3.0, max_latency=3.0)
        received = []
        network.register(2, received.append)
        network.send(1, 2, "x")
        network.send(1, 2, "y")
        env.run(until=1)
        network.set_down(2, True)
        env.run()
        assert received == []

    def test_sweep_state_drains_after_firing(self):
        env, network = make_net(min_latency=1.0, max_latency=1.0)
        network.register(1, lambda m: None)
        network.send(2, 1, "x")
        assert len(network._sweeps) == 1
        env.run()
        assert network._sweeps == {}
