"""Concurrent operations: aborts on conflict, strict linearizability.

The paper allows conflicting concurrent operations to abort (returning
⊥) but never to violate consistency.  These tests run concurrent
coordinators against one register — with jittered networks, message
loss, and crash injection — record the operation history, and feed it
to the Appendix-B checker.
"""

import pytest

from repro.campaign.schedule import apply_schedule, generate_schedule
from repro.types import ABORT, OpKind
from repro.verify import HistoryRecorder, check_strict_linearizability
from tests.conftest import make_cluster, stripe_of
from tests.verify.wing_gong import brute_force_linearizable


def unique_stripe(m, block_size, tag):
    return stripe_of(m, block_size, tag)


class TestConcurrentWrites:
    def test_concurrent_writes_one_winner_or_aborts(self):
        cluster = make_cluster(m=3, n=5)
        s1 = unique_stripe(3, 32, 1)
        s2 = unique_stripe(3, 32, 2)
        p1 = cluster.register(0, route=1).write_stripe_async(s1)
        p2 = cluster.register(0, route=2).write_stripe_async(s2)
        cluster.env.run()
        results = {p1.value, p2.value}
        # At least the final state must be consistent with the outcomes.
        value = cluster.register(0, route=3).read_stripe()
        committed = [s for s, p in ((s1, p1), (s2, p2)) if p.value == "OK"]
        if committed:
            assert value in committed or value in (s1, s2)
        else:
            # Both aborted: the register may hold either value or nil
            # (aborts are non-deterministic), but reads must agree.
            again = cluster.register(0, route=4).read_stripe()
            assert again == value

    def test_sequential_interleaved_coordinators_never_abort(self):
        """Non-overlapping ops from different bricks: no conflicts."""
        cluster = make_cluster(m=3, n=5)
        for tag in range(10):
            pid = (tag % 5) + 1
            register = cluster.register(0, route=pid)
            assert register.write_stripe(unique_stripe(3, 32, tag)) == "OK"
            assert register.read_stripe() == unique_stripe(3, 32, tag)

    def test_concurrent_write_histories_strictly_linearizable(self):
        cluster = make_cluster(m=3, n=5, min_latency=0.5, max_latency=2.0)
        recorder = HistoryRecorder(cluster.env)
        for tag in range(6):
            pid = (tag % 3) + 1
            coordinator = cluster.coordinators[pid]
            stripe = unique_stripe(3, 32, tag)
            process = cluster.nodes[pid].spawn(
                coordinator.write_stripe(0, stripe)
            )
            recorder.track(process, OpKind.WRITE_STRIPE, value=stripe,
                           coordinator=pid)
        cluster.env.run()
        # Follow with reads from every brick.
        for pid in range(1, 6):
            coordinator = cluster.coordinators[pid]
            process = cluster.nodes[pid].spawn(coordinator.read_stripe(0))
            recorder.track(process, OpKind.READ_STRIPE, coordinator=pid)
        cluster.env.run()
        recorder.close()
        for index in (1, 2, 3):
            history = recorder.per_block_history(index)
            result = check_strict_linearizability(history)
            assert result.ok, result.violations


class TestConcurrentReadWrite:
    def test_read_during_write(self):
        cluster = make_cluster(m=3, n=5, min_latency=0.5, max_latency=2.0)
        register = cluster.register(0)
        old = unique_stripe(3, 32, 1)
        register.write_stripe(old)
        new = unique_stripe(3, 32, 2)
        write_process = cluster.register(0, route=1).write_stripe_async(new)
        read_process = cluster.register(0, route=2).read_stripe_async()
        cluster.env.run()
        read_value = read_process.value
        assert read_value in (old, new, ABORT)
        if write_process.value == "OK":
            assert cluster.register(0, route=3).read_stripe() == new

    def test_concurrent_readers_all_agree_eventually(self):
        cluster = make_cluster(m=3, n=5)
        register = cluster.register(0)
        stripe = unique_stripe(3, 32, 1)
        register.write_stripe(stripe)
        processes = [
            cluster.register(0, route=pid).read_stripe_async()
            for pid in range(1, 6)
        ]
        cluster.env.run()
        for process in processes:
            assert process.value in (stripe, ABORT)
        assert any(process.value == stripe for process in processes)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
class TestRandomizedHistories:
    """Randomized concurrent workloads + failures, checked per block."""

    def _run(self, seed, drop=0.0, with_crashes=False):
        cluster = make_cluster(
            m=2, n=4, block_size=16, seed=seed,
            min_latency=0.5, max_latency=3.0, drop=drop,
        )
        import random

        rng = random.Random(seed)
        recorder = HistoryRecorder(cluster.env)
        if with_crashes:
            apply_schedule(cluster, generate_schedule(
                seed=seed, n=4, duration=400.0, max_down=1,
                partition_weight=0.0, drop_weight=0.0,
                event_gap=(1.0, 12.0), down_time=(2.0, 10.0),
            ))
        tag = 0
        for _round in range(8):
            # Launch 1-3 concurrent ops from random live coordinators.
            for _ in range(rng.randint(1, 3)):
                pid = rng.randint(1, 4)
                if not cluster.nodes[pid].is_up:
                    continue
                coordinator = cluster.coordinators[pid]
                if rng.random() < 0.5:
                    tag += 1
                    if rng.random() < 0.5:
                        stripe = unique_stripe(2, 16, tag)
                        process = cluster.nodes[pid].spawn(
                            coordinator.write_stripe(0, stripe)
                        )
                        recorder.track(
                            process, OpKind.WRITE_STRIPE, value=stripe,
                            coordinator=pid,
                        )
                    else:
                        block = (f"b{tag}-".encode() * 16)[:16]
                        j = rng.randint(1, 2)
                        process = cluster.nodes[pid].spawn(
                            coordinator.write_block(0, j, block)
                        )
                        recorder.track(
                            process, OpKind.WRITE_BLOCK, value=block,
                            block_index=j, coordinator=pid,
                        )
                else:
                    if rng.random() < 0.5:
                        process = cluster.nodes[pid].spawn(
                            coordinator.read_stripe(0)
                        )
                        recorder.track(process, OpKind.READ_STRIPE,
                                       coordinator=pid)
                    else:
                        j = rng.randint(1, 2)
                        process = cluster.nodes[pid].spawn(
                            coordinator.read_block(0, j)
                        )
                        recorder.track(
                            process, OpKind.READ_BLOCK, block_index=j,
                            coordinator=pid,
                        )
            cluster.env.run(until=cluster.env.now + rng.uniform(1.0, 25.0))
        # Ensure everyone is up so pending ops can finish, then drain.
        for pid in range(1, 5):
            cluster.recover(pid)
        cluster.env.run(until=cluster.env.now + 2000.0)
        recorder.close()
        return recorder

    def test_clean_network(self, seed):
        recorder = self._run(seed)
        for index in (1, 2):
            result = check_strict_linearizability(
                recorder.per_block_history(index)
            )
            assert result.ok, (seed, index, result.violations)

    def test_lossy_network(self, seed):
        recorder = self._run(seed, drop=0.1)
        for index in (1, 2):
            result = check_strict_linearizability(
                recorder.per_block_history(index)
            )
            assert result.ok, (seed, index, result.violations)

    def test_with_crash_recovery_churn(self, seed):
        recorder = self._run(seed, drop=0.05, with_crashes=True)
        for index in (1, 2):
            result = check_strict_linearizability(
                recorder.per_block_history(index)
            )
            assert result.ok, (seed, index, result.violations)


class TestCheckerCrossValidation:
    """The graph checker and the brute-force checker agree."""

    def test_small_histories_agree(self):
        cluster = make_cluster(m=2, n=4, block_size=16,
                               min_latency=0.5, max_latency=2.0)
        recorder = HistoryRecorder(cluster.env)
        for tag in range(3):
            pid = tag % 4 + 1
            coordinator = cluster.coordinators[pid]
            stripe = unique_stripe(2, 16, tag)
            process = cluster.nodes[pid].spawn(coordinator.write_stripe(0, stripe))
            recorder.track(process, OpKind.WRITE_STRIPE, value=stripe,
                           coordinator=pid)
        cluster.env.run()
        for pid in (1, 2):
            process = cluster.nodes[pid].spawn(
                cluster.coordinators[pid].read_stripe(0)
            )
            recorder.track(process, OpKind.READ_STRIPE, coordinator=pid)
        cluster.env.run()
        recorder.close()
        history = recorder.per_block_history(1)
        graph_result = check_strict_linearizability(history)
        brute_result = brute_force_linearizable(history)
        assert brute_result is not None
        assert graph_result.ok == brute_result
