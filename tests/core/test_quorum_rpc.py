"""The quorum() primitive: gathering, grace, retransmission, expiry."""

import gc
import weakref

import pytest

from repro.core import coordinator
from repro.core.coordinator import CoordinatorConfig, QuorumRpc, _PendingCall
from repro.core.messages import ReadReply, ReadReq
from repro.errors import ConfigurationError
from repro.sim.kernel import Environment
from repro.transport.base import Node
from repro.transport.chaos import ChaosPolicy, LinkChaos
from repro.transport.sim import SimTransport
from tests.conftest import make_cluster, stripe_of


class EchoReplica:
    """A minimal endpoint that answers ReadReq with a canned status."""

    def __init__(self, node, status=True, delay=0.0):
        self.node = node
        self.status = status
        self.delay = delay
        node.register_handler(ReadReq, self._on_read)

    def _on_read(self, src, req):
        reply = ReadReply(
            register_id=req.register_id,
            request_id=req.request_id,
            status=self.status,
            val_ts=None,
            block=None,
        )
        if self.delay:
            timer = self.node.env.timeout(self.delay)
            timer._add_callback(lambda _t: self.node.send(src, reply))
        else:
            self.node.send(src, reply)


def build_rpc(n=4, quorum=3, config=None, delays=None, statuses=None):
    env = Environment()
    transport = SimTransport(env=env)
    nodes = {
        pid: Node(transport=transport, process_id=pid)
        for pid in range(1, n + 1)
    }
    replicas = {
        pid: EchoReplica(
            nodes[pid],
            status=(statuses or {}).get(pid, True),
            delay=(delays or {}).get(pid, 0.0),
        )
        for pid in nodes
    }
    coordinator_node = Node(transport=transport, process_id=100)
    rpc = QuorumRpc(
        coordinator_node,
        universe=list(range(1, n + 1)),
        quorum_size=quorum,
        config=config or CoordinatorConfig(),
    )
    return env, coordinator_node, rpc, nodes


def run_call(env, node, rpc, **kwargs):
    process = node.spawn(
        rpc.call(
            lambda dst, rid: ReadReq(register_id=0, request_id=rid,
                                     targets=frozenset()),
            **kwargs,
        )
    )
    return env.run_until_complete(process)


class TestGathering:
    def test_completes_at_quorum(self):
        env, node, rpc, _nodes = build_rpc(n=4, quorum=3)
        replies = run_call(env, node, rpc)
        assert len(replies) >= 3

    def test_waits_for_slow_member_without_prefer_only_to_quorum(self):
        env, node, rpc, _nodes = build_rpc(
            n=4, quorum=3, delays={4: 50.0}
        )
        replies = run_call(env, node, rpc)
        assert 4 not in replies
        assert env.now < 10

    def test_prefer_waits_within_grace(self, monkeypatch):
        monkeypatch.setattr(coordinator, "_GRACE", 5.0)
        env, node, rpc, _nodes = build_rpc(n=4, quorum=3, delays={4: 2.5})
        replies = run_call(
            env, node, rpc, prefer=lambda r: 4 in r and len(r) >= 3
        )
        assert 4 in replies

    def test_grace_expiry_returns_quorum_without_preferred(self, monkeypatch):
        monkeypatch.setattr(coordinator, "_RETRANSMIT_INTERVAL", 500.0)
        env, node, rpc, _nodes = build_rpc(n=4, quorum=3, delays={4: 100.0})
        replies = run_call(
            env, node, rpc, prefer=lambda r: 4 in r and len(r) >= 3
        )
        assert 4 not in replies
        assert len(replies) == 3

    def test_min_count_override(self):
        env, node, rpc, _nodes = build_rpc(n=4, quorum=3)
        replies = run_call(env, node, rpc, min_count=4)
        assert len(replies) == 4


class TestRetransmission:
    def test_resends_to_nonresponders_until_quorum(self, monkeypatch):
        monkeypatch.setattr(coordinator, "_RETRANSMIT_INTERVAL", 5.0)
        env, node, rpc, nodes = build_rpc(n=3, quorum=3)
        nodes[3].crash()

        process = node.spawn(
            rpc.call(lambda dst, rid: ReadReq(0, rid, frozenset()))
        )
        env.run(until=12.0)
        assert not process.triggered  # still missing node 3
        nodes[3].recover()
        env.run(until=30.0)
        assert process.triggered
        assert len(process.value) == 3

    def test_retransmission_stops_after_completion(self, monkeypatch):
        monkeypatch.setattr(coordinator, "_RETRANSMIT_INTERVAL", 3.0)
        env, node, rpc, _nodes = build_rpc(n=3, quorum=3)
        run_call(env, node, rpc)
        sent_after = node.metrics.total_messages
        env.run(until=env.now + 50)
        assert node.metrics.total_messages == sent_after

    def test_duplicate_replies_counted_once(self):
        env = Environment()
        transport = SimTransport(env=env)
        transport.set_chaos(ChaosPolicy(default=LinkChaos(duplicate=0.9)))
        nodes = {
            pid: Node(transport=transport, process_id=pid) for pid in (1, 2, 3)
        }
        for pid in nodes:
            EchoReplica(nodes[pid])
        coordinator = Node(transport=transport, process_id=100)
        rpc = QuorumRpc(coordinator, [1, 2, 3], 3, CoordinatorConfig())
        replies = env.run_until_complete(
            coordinator.spawn(
                rpc.call(lambda dst, rid: ReadReq(0, rid, frozenset()))
            )
        )
        assert len(replies) == 3
        assert transport.stats.duplicated > 0


class TestExpiry:
    def test_op_timeout_yields_none_below_quorum(self):
        env, node, rpc, nodes = build_rpc(
            n=4, quorum=3, config=CoordinatorConfig(op_timeout=20.0),
        )
        nodes[2].crash()
        nodes[3].crash()
        nodes[4].crash()
        result = run_call(env, node, rpc)
        assert result is None

    @pytest.mark.parametrize("bad", [None, 0, -1])
    def test_op_timeout_must_be_positive(self, bad):
        # No phase may wait forever: there is no "no bound" value.
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(op_timeout=bad)

    def test_default_expires_after_fifteen_rounds(self):
        env, node, rpc, nodes = build_rpc(n=4, quorum=3)
        nodes[3].crash()
        nodes[4].crash()
        start = env.now
        assert run_call(env, node, rpc) is None
        assert env.now - start == 15 * coordinator._RETRANSMIT_INTERVAL
        assert node.metrics.total_retransmissions == 14

    def test_op_timeout_ignored_when_quorum_met(self):
        env, node, rpc, _nodes = build_rpc(
            n=4, quorum=3, config=CoordinatorConfig(op_timeout=50.0),
        )
        replies = run_call(env, node, rpc)
        assert replies is not None


class TestTimerRelease:
    """A finished phase must not stay reachable through its timers."""

    def test_finished_phase_is_freed_before_its_timers_fire(self, monkeypatch):
        # Retransmit and (via prefer) grace timers both outlive the
        # phase by far; neither may pin the _PendingCall.
        monkeypatch.setattr(coordinator, "_RETRANSMIT_INTERVAL", 200.0)
        monkeypatch.setattr(coordinator, "_GRACE", 100.0)
        env, node, rpc, _nodes = build_rpc(n=4, quorum=3, delays={4: 50.0})
        process = node.spawn(
            rpc.call(
                lambda dst, rid: ReadReq(0, rid, frozenset()),
                prefer=lambda replies: len(replies) == 4,
            )
        )
        env.step()  # the coroutine starts: requests out, timers armed
        (call,) = rpc._pending.values()
        call_ref = weakref.ref(call)
        del call
        gc.collect()
        gc.disable()
        try:
            replies = env.run_until_complete(process)
            assert len(replies) == 4 and env.now < 100.0
            del process
            # Freed by reference counting: the collector stays off.
            assert call_ref() is None
        finally:
            gc.enable()
        # The tombstoned heap entries still pop, as no-ops.
        events_before = env.events_processed
        env.run()
        assert env.events_processed > events_before

    def test_cancelled_handle_holds_no_callback(self):
        _env, node, _rpc, _nodes = build_rpc()
        fired = []
        handle = node.transport.set_timer(5.0, lambda: fired.append(1))
        timer = handle._timer
        handle.cancel()
        handle.cancel()  # idempotent
        assert handle.cancelled
        assert handle._callback is None and handle._timer is None
        assert timer.callbacks == []
        node.transport.run()
        assert fired == []


class TestRequestIds:
    def test_monotonic_unique(self):
        _env, _node, rpc, _nodes = build_rpc()
        ids = [rpc.next_request_id() for _ in range(10)]
        assert ids == sorted(set(ids))
