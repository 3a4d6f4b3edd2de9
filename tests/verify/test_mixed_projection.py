"""Per-block correctness of mixed stripe- and block-level traffic.

Appendix B reduces correctness of the full operation mix to per-block
histories.  These tests drive a live cluster with interleaved stripe
writes, block writes, multi-block writes, and reads from several
coordinators — including coordinator crashes — and check every block's
projected history with the Appendix-B checker.
"""

import random

import pytest

from repro.core.messages import ModifyReq, WriteReq
from repro.types import OpKind
from repro.verify import HistoryRecorder, check_strict_linearizability
from tests.conftest import crash_after, make_cluster

M, N, B = 3, 5, 16


def payload(tag):
    return (f"x{tag}-".encode() * B)[:B]


def stripe_payload(tag):
    return [payload(f"{tag}.{i}") for i in range(M)]


def drive(cluster, recorder, plan):
    """Run a scripted op plan; each entry is (kind, pid, args)."""
    for kind, pid, args in plan:
        coordinator = cluster.coordinators[pid]
        node = cluster.nodes[pid]
        if not node.is_up:
            continue
        if kind == "ws":
            stripe = stripe_payload(args)
            process = node.spawn(coordinator.write_stripe(0, stripe))
            recorder.track(process, OpKind.WRITE_STRIPE, value=stripe,
                           coordinator=pid)
        elif kind == "wb":
            j, tag = args
            block = payload(tag)
            process = node.spawn(coordinator.write_block(0, j, block))
            recorder.track(process, OpKind.WRITE_BLOCK, value=block,
                           block_index=j, coordinator=pid)
        elif kind == "rs":
            process = node.spawn(coordinator.read_stripe(0))
            recorder.track(process, OpKind.READ_STRIPE, coordinator=pid)
        elif kind == "rb":
            process = node.spawn(coordinator.read_block(0, args))
            recorder.track(process, OpKind.READ_BLOCK, block_index=args,
                           coordinator=pid)
        cluster.env.run()
    recorder.close()


def assert_all_blocks_strict(recorder):
    for index in range(1, M + 1):
        result = check_strict_linearizability(
            recorder.per_block_history(index)
        )
        assert result.ok, (index, result.violations)


class TestMixedProjection:
    def test_sequential_mixed_traffic(self):
        cluster = make_cluster(m=M, n=N, block_size=B)
        recorder = HistoryRecorder(cluster.env)
        plan = [
            ("ws", 1, 1),
            ("rb", 2, 2),
            ("wb", 3, (2, "a")),
            ("rs", 4, None),
            ("wb", 5, (1, "b")),
            ("rb", 1, 1),
            ("ws", 2, 2),
            ("rb", 3, 3),
            ("rs", 4, None),
        ]
        drive(cluster, recorder, plan)
        assert_all_blocks_strict(recorder)

    def test_mixed_traffic_with_mid_stream_crash(self):
        cluster = make_cluster(m=M, n=N, block_size=B)
        recorder = HistoryRecorder(cluster.env)
        # Seed, then crash coordinator 1 mid stripe-write, then keep going.
        drive(cluster, recorder, [("ws", 2, 1)])
        crash_after(cluster, 1, WriteReq, 3)
        stripe = stripe_payload(2)
        process = cluster.nodes[1].spawn(
            cluster.coordinators[1].write_stripe(0, stripe)
        )
        recorder.track(process, OpKind.WRITE_STRIPE, value=stripe,
                       coordinator=1)
        cluster.env.run()
        drive(cluster, recorder, [
            ("rs", 3, None),
            ("wb", 4, (3, "c")),
            ("rb", 5, 3),
            ("rs", 2, None),
        ])
        assert_all_blocks_strict(recorder)

    def test_block_write_crash_mid_modify(self):
        cluster = make_cluster(m=M, n=N, block_size=B)
        recorder = HistoryRecorder(cluster.env)
        drive(cluster, recorder, [("ws", 2, 1)])
        crash_after(cluster, 1, ModifyReq, 2)
        block = payload("doomed")
        process = cluster.nodes[1].spawn(
            cluster.coordinators[1].write_block(0, 2, block)
        )
        recorder.track(process, OpKind.WRITE_BLOCK, value=block,
                       block_index=2, coordinator=1)
        cluster.env.run()
        drive(cluster, recorder, [
            ("rb", 3, 2),
            ("rb", 4, 2),
            ("rs", 5, None),
        ])
        assert_all_blocks_strict(recorder)

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_randomized_plans(self, seed):
        rng = random.Random(seed)
        cluster = make_cluster(m=M, n=N, block_size=B, seed=seed,
                               min_latency=0.5, max_latency=2.0)
        recorder = HistoryRecorder(cluster.env)
        plan = []
        for step in range(20):
            pid = rng.randint(1, N)
            choice = rng.random()
            if choice < 0.3:
                plan.append(("ws", pid, f"s{seed}.{step}"))
            elif choice < 0.5:
                plan.append(("wb", pid, (rng.randint(1, M), f"b{seed}.{step}")))
            elif choice < 0.75:
                plan.append(("rs", pid, None))
            else:
                plan.append(("rb", pid, rng.randint(1, M)))
        drive(cluster, recorder, plan)
        assert_all_blocks_strict(recorder)
