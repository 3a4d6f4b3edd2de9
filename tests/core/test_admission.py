"""Per-brick admission: a brick coordinates at most ``_MAX_ACTIVE_OPS``
client operations at once; later ones wait, unstarted, in arrival order.
"""

import inspect

from repro import VolumeSession, open_volume
from repro.core import coordinator as coordinator_module
from repro.core.cluster import ClusterConfig, FabCluster
from repro.core.rebuild import start_repair

CAP = coordinator_module._MAX_ACTIVE_OPS


def test_cap_is_the_default_session_depth():
    # One default session never waits at a brick.
    default = inspect.signature(VolumeSession).parameters["max_inflight"]
    assert CAP == default.default == 8


def _count_active(metrics):
    """Count the ops between ``begin_op`` and ``end_op`` (now and at
    peak) on a cluster whose ops one coordinator runs."""
    state = {"active": 0, "peak": 0}
    begin, end = metrics.begin_op, metrics.end_op

    def counting_begin(kind, now):
        state["active"] += 1
        state["peak"] = max(state["peak"], state["active"])
        return begin(kind, now)

    def counting_end(op, now, aborted=False):
        state["active"] -= 1
        end(op, now, aborted=aborted)

    metrics.begin_op = counting_begin
    metrics.end_op = counting_end
    return state


def test_a_pinned_deep_session_runs_at_most_the_cap():
    volume = open_volume(m=3, n=5, stripes=48, block_size=32, seed=7)
    active = _count_active(volume.cluster.metrics)
    with volume.session(max_inflight=32, route=2) as session:
        for block in range(volume.num_blocks):
            session.submit_write(block, bytes([block % 255 + 1]) * 32)
        for block in range(volume.num_blocks):
            session.submit_read(block)
    assert session.stats.peak_inflight == 32
    assert active["peak"] == CAP
    assert active["active"] == 0
    assert all(op.ok and op.coordinator == 2 for op in session.ops)
    gate = volume.cluster.coordinator(2)._admission
    assert gate.active == 0 and not gate.waiters


def test_waiters_start_in_arrival_order(monkeypatch):
    cluster = FabCluster(ClusterConfig(m=3, n=5, block_size=16, seed=1))
    node = cluster.node(1)
    first_sends = []
    send = node.send

    def recording(dst, payload, size=0):
        if payload.register_id not in first_sends:
            first_sends.append(payload.register_id)
        send(dst, payload, size)

    monkeypatch.setattr(node, "send", recording)
    reads = [cluster.register(r, 1).read_stripe_async() for r in range(12)]
    cluster.run(until=0.0)
    gate = cluster.coordinator(1)._admission
    assert gate.active == CAP and len(gate.waiters) == 12 - CAP
    assert first_sends == list(range(CAP))
    cluster.run()
    assert first_sends == list(range(12))
    assert all(read.value is None for read in reads)  # nil: never written
    assert gate.active == 0 and not gate.waiters


def test_a_crash_with_ops_queued_fails_them_over():
    volume = open_volume(m=3, n=5, stripes=48, block_size=32, seed=9)
    cluster = volume.cluster
    session = volume.session(max_inflight=32, route=2)
    for block in range(32):  # unit 1 of stripes 0..31
        session.submit_write(block, bytes([7]) * 32)
    cluster.run(until=0.0)
    old_gate = cluster.coordinator(2)._admission
    assert old_gate.active == CAP and len(old_gate.waiters) == 32 - CAP
    cluster.crash(2)
    cluster.run(until=40.0)
    cluster.recover(2)
    ops = session.drain()
    # Running and queued ops alike were interrupted and failed over.
    assert len(ops) == 32 and all(op.ok for op in ops)
    assert session.stats.failovers == 32
    assert all(op.coordinator != 2 for op in ops)
    gate = cluster.coordinator(2)._admission
    assert gate is not old_gate
    assert gate.active == 0 and not gate.waiters
    # The recovered brick admits again.
    assert cluster.register(0, 2).read_block(1) == bytes([7]) * 32
    assert gate.active == 0 and not gate.waiters


def test_repairs_bypass_the_gate():
    volume = open_volume(m=3, n=5, stripes=4, block_size=16, seed=2)
    cluster = volume.cluster
    cluster.register(0, 1).write_stripe([b"a" * 16] * 3)
    gate = cluster.coordinator(1)._admission
    gate.active = CAP  # the gate is full: a client op would wait
    repair = start_repair(cluster, 0)  # brick 1 coordinates it
    assert cluster.transport.run_until_complete(repair) == [b"a" * 16] * 3
    assert gate.active == CAP and not gate.waiters
