"""A one-trial smoke of every workload at 1/20 size, and the deadline."""

import asyncio
import time

import pytest

from benchmarks.e2e import cli
from benchmarks.e2e.metrics import PER_LAYER
from benchmarks.e2e.worker import run_round
from benchmarks.e2e.workloads import GATED, WORKLOADS, LoopbackC1000


def smoke(name, traced=False):
    spec = {
        "workload": name, "seed": 5, "scale": 0.05, "trace": traced,
        "budget_s": 0.0, "min_trials": 1, "started_at": time.time(),
    }
    return asyncio.run(run_round(spec))


def test_cli_lists_the_same_workloads():
    assert cli.WORKLOAD_NAMES == list(WORKLOADS)
    assert cli.GATED == GATED


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke(name):
    result = smoke(name)
    assert result["failed"] == 0 and not result["timed_out"]
    assert len(result["trials"]) == 1
    assert result["trials"][0]["ops"] >= 1
    assert result["setup_s"] > 0 and result["peak_rss_mib"] > 0
    has_latency = name.startswith(("tcp-", "loopback-"))
    assert bool(result["trials"][0]["write_ms"]) == has_latency


def test_same_seed_same_inputs_and_exact_counters():
    first, second = smoke("sim-degraded", True), smoke("sim-degraded", True)
    assert first["digest"] == second["digest"]
    for metric in PER_LAYER:
        if metric.exact:
            assert first["layers"][metric.name] == second["layers"][metric.name]
    assert set(first["layers"]) == {metric.name for metric in PER_LAYER}
    assert first["layers"]["core.coordinator.slow_path_share"] > 0.05
    assert first["layers"]["erasure.decode_calls"] > 0
    assert first["layers"]["transport.wire.encode_s"] == 0.0


def test_traced_tcp_sees_the_wire_and_untraces_afterwards():
    from repro.transport import wire

    encode = wire.encode_frame
    layers = smoke("tcp-closed-c2", True)["layers"]
    assert wire.encode_frame is encode
    assert layers["transport.wire.encode_s"] > 0
    assert layers["transport.aio.frames_per_op"] > 5
    assert layers["sim.network.send_s"] == 0.0
    assert 0.0 <= layers["trace.unattributed_share"] <= 1.0


def test_ops_unfinished_at_the_deadline_count_as_failed():
    async def scenario():
        workload = LoopbackC1000(seed=5, scale=0.05)
        workload.ops_per_client = 800  # 50 clients x 40 ops: > 50 ms of work
        await workload.setup()
        try:
            plan = workload.plan("late")
            return await workload.run(plan, deadline=time.perf_counter())
        finally:
            await workload.teardown()

    trial = asyncio.run(scenario())
    assert trial.timed_out
    assert trial.failed > 0
    assert trial.ops + trial.failed == trial.attempted
