"""Property-based tests of the simulation kernel and network."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.network import NetworkConfig
from repro.transport.chaos import ChaosPolicy, LinkChaos
from repro.transport.sim import SimTransport


class TestKernelProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
    def test_timeouts_fire_in_nondecreasing_time_order(self, delays):
        env = Environment()
        fired = []
        for delay in delays:
            timer = env.timeout(delay)
            timer._add_callback(lambda _t: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.floats(min_value=0.0, max_value=50.0),
                    min_size=1, max_size=20))
    def test_clock_never_goes_backwards(self, delays):
        env = Environment()
        observations = []

        def watcher():
            previous = env.now
            for delay in delays:
                yield env.timeout(delay)
                observations.append((previous, env.now))
                previous = env.now

        env.process(watcher())
        env.run()
        assert all(before <= after for before, after in observations)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=1, max_value=20), st.integers(0, 2**31 - 1))
    def test_nested_processes_return_in_spawn_tree_order(self, count, seed):
        """A parent awaiting children sees each child's value exactly."""
        env = Environment()
        rng = random.Random(seed)
        delays = [rng.uniform(0, 10) for _ in range(count)]

        def child(tag, delay):
            yield env.timeout(delay)
            return tag

        def parent():
            children = [env.process(child(i, delays[i])) for i in range(count)]
            values = []
            for process in children:
                values.append((yield process))
            return values

        result = env.run_until_complete(env.process(parent()))
        assert result == list(range(count))

    @settings(deadline=None, max_examples=30)
    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_run_until_never_overshoots(self, until):
        env = Environment()
        for delay in (until / 3, until, until * 2):
            env.timeout(delay)
        env.run(until=until)
        assert env.now <= until


class TestNetworkProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.0, max_value=0.8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_conservation_sent_equals_delivered_plus_dropped(
        self, count, drop, seed
    ):
        env = Environment()
        network = SimTransport(
            env, NetworkConfig(drop_probability=drop, jitter_seed=seed)
        )
        received = []
        network.register(2, received.append)
        for index in range(count):
            network.send(1, 2, index)
        env.run()
        metrics = network.metrics
        assert metrics.total_messages == count
        assert len(received) + metrics.dropped_messages == count

    @settings(deadline=None, max_examples=25)
    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_delivery_times_within_latency_bounds(self, low, extra, seed):
        env = Environment()
        network = SimTransport(
            env,
            NetworkConfig(
                min_latency=low, max_latency=low + extra, jitter_seed=seed
            ),
        )
        times = []
        network.register(2, lambda msg: times.append(env.now))
        for _ in range(30):
            network.send(1, 2, "x")
        env.run()
        assert all(low <= t <= low + extra + 1e-9 for t in times)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_payloads_never_corrupted(self, seed):
        """Channels may drop or reorder but never corrupt (Section 2)."""
        env = Environment()
        network = SimTransport(
            env,
            NetworkConfig(
                min_latency=0.1, max_latency=5.0,
                drop_probability=0.2, jitter_seed=seed,
            ),
        )
        network.set_chaos(
            ChaosPolicy(seed=seed, default=LinkChaos(duplicate=0.2))
        )
        sent = [bytes([i, i ^ 0xFF]) for i in range(40)]
        received = []
        network.register(2, lambda msg: received.append(msg.payload))
        for payload in sent:
            network.send(1, 2, payload)
        env.run()
        assert set(received) <= set(sent)
