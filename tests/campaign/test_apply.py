"""The fault-plan applier: timed events, send-count triggers, churn."""

import json
from types import SimpleNamespace

import pytest

from repro.campaign.schedule import (
    CampaignSchedule,
    FaultEvent,
    apply_event,
    apply_schedule,
    generate_schedule,
)
from repro.errors import ConfigurationError
from repro.transport.base import Node
from repro.transport.sim import SimTransport


def make_nodes(count=3):
    """A bare brick set on one sim transport: what the applier needs."""
    transport = SimTransport()
    nodes = {
        pid: Node(transport=transport, process_id=pid)
        for pid in range(1, count + 1)
    }
    return SimpleNamespace(transport=transport, nodes=nodes, env=transport.env)


def crash(time, pid, after=None):
    return FaultEvent(time=time, kind="crash", targets=(pid,), after=after)


def recover(time, pid):
    return FaultEvent(time=time, kind="recover", targets=(pid,))


def plan(*events):
    return CampaignSchedule(events=list(events))


def down(bricks):
    return sum(1 for node in bricks.nodes.values() if not node.is_up)


class TestFaultEventShape:
    @pytest.mark.parametrize("data", [
        {"time": 1, "kind": "meteor", "targets": [1]},
        {"kind": "crash", "targets": [1]},
        {"time": "soon", "kind": "crash", "targets": [1]},
        {"time": 1, "kind": "crash", "targets": []},
        {"time": 1, "kind": "recover", "targets": [0]},
        {"time": 1, "kind": "partition", "targets": ["b"]},
        {"time": 1, "kind": "heal", "targets": [2]},
        {"time": 1, "kind": "drop_stop", "targets": [1]},
        {"time": 1, "kind": "drop_start", "value": 1.0},
        {"time": 1, "kind": "drop_start", "value": -0.1},
        {"time": 1, "kind": "corrupt", "targets": [1]},
        {"time": 1, "kind": "torn_write", "targets": [1, 0, 2]},
        {"time": 1, "kind": "corrupt", "targets": [0, 3]},
        {"time": 1, "kind": "recover", "targets": [1], "after": ["X", 1]},
        {"time": 1, "kind": "crash", "targets": [1, 2], "after": ["X", 1]},
        {"time": 1, "kind": "crash", "targets": [1], "after": ["X", 0]},
        {"time": 1, "kind": "crash", "targets": [1], "after": ["X"]},
        {"time": 1, "kind": "crash", "targets": [1], "after": ["", 2]},
        ["not", "an", "event"],
    ], ids=[
        "unknown-kind", "no-time", "bad-time", "crash-no-pid",
        "recover-pid-0", "partition-bad-pid", "heal-with-target",
        "drop-stop-with-target", "drop-p-1", "drop-p-negative",
        "corrupt-one-target", "torn-three-targets", "corrupt-pid-0",
        "after-on-recover", "after-two-targets", "after-count-0",
        "after-no-count", "after-no-name", "not-a-dict",
    ])
    def test_malformed_reproducer_json_is_rejected(self, data):
        text = json.dumps({"seed": 1, "events": [data]})
        with pytest.raises(ConfigurationError):
            CampaignSchedule.from_json(text)

    def test_after_round_trips_and_is_omitted_when_unset(self):
        triggered = crash(5.0, 2, after=("WriteReq", 4))
        schedule = plan(triggered, recover(9.0, 2))
        data = json.loads(schedule.to_json())
        assert data["events"][0]["after"] == ["WriteReq", 4]
        assert "after" not in data["events"][1]
        assert CampaignSchedule.from_json(schedule.to_json()) == schedule

    def test_pid_outside_cluster_rejected_before_arming(self):
        bricks = make_nodes()
        with pytest.raises(ConfigurationError, match="pid 99"):
            apply_schedule(bricks, plan(crash(1.0, 1), crash(2.0, 99)))
        bricks.env.run()
        assert down(bricks) == 0  # nothing was armed
        with pytest.raises(ConfigurationError, match="pid 4"):
            apply_event(bricks, FaultEvent(0.0, "partition", (2, 4)))


class TestScheduledEvents:
    def test_crash_and_recover_on_schedule(self):
        bricks = make_nodes()
        apply_schedule(bricks, plan(crash(5.0, 1), recover(10.0, 1)))
        bricks.env.run(until=6)
        assert not bricks.nodes[1].is_up
        bricks.env.run(until=11)
        assert bricks.nodes[1].is_up

    def test_events_applied_in_time_order(self):
        bricks = make_nodes()
        seen = []
        applied = apply_schedule(
            bricks, plan(crash(10.0, 2), crash(5.0, 1)),
            on_event=lambda event, hit: seen.append(event.targets[0]),
        )
        bricks.env.run()
        assert seen == [1, 2]
        assert applied["crash"] == 2

    def test_same_timestamp_events_keep_list_order(self):
        """Simultaneous events apply in the order they were listed: the
        sort on time is stable and timers break ties FIFO."""
        bricks = make_nodes()
        seen = []
        apply_schedule(
            bricks, plan(crash(5.0, 1), recover(5.0, 1), crash(5.0, 2)),
            on_event=lambda event, hit: seen.append(
                (event.targets[0], event.kind)
            ),
        )
        bricks.env.run()
        assert bricks.nodes[1].is_up  # crash then recover
        assert not bricks.nodes[2].is_up
        assert seen == [(1, "crash"), (1, "recover"), (2, "crash")]

        other = make_nodes()
        other.nodes[1].crash()
        apply_schedule(other, plan(recover(5.0, 1), crash(5.0, 1)))
        other.env.run()
        assert not other.nodes[1].is_up  # recover then crash

    def test_store_faults_report_whether_they_hit(self):
        from tests.conftest import make_cluster, stripe_of

        cluster = make_cluster()
        cluster.register(0).write_stripe(stripe_of(3, 32, tag=1))
        corrupt = FaultEvent(0.0, "corrupt", (2, 0), value=7.0)
        assert apply_event(cluster, corrupt)
        assert not cluster.nodes[2].stable.verify(cluster.replicas[2].log_key(0))
        assert not apply_event(cluster, FaultEvent(0.0, "corrupt", (2, 9)))
        assert apply_event(cluster, FaultEvent(0.0, "torn_write", (3, 0)))
        assert not apply_event(cluster, FaultEvent(0.0, "torn_write", (3, 0)))


class TestCrashOnlyChurn:
    """Random crash/recover churn is a crash-only generated plan."""

    @staticmethod
    def churn(bricks, seed, max_down, duration=50.0, **kwargs):
        schedule = generate_schedule(
            seed=seed, n=len(bricks.nodes), duration=duration,
            max_down=max_down, partition_weight=0.0, drop_weight=0.0,
            **kwargs,
        )
        return apply_schedule(bricks, schedule)

    def test_respects_max_down(self):
        bricks = make_nodes(count=5)
        applied = self.churn(
            bricks, seed=1, max_down=2, event_gap=(0.5, 1.5),
            down_time=(5.0, 20.0),
        )
        max_seen = 0
        for _ in range(60):
            bricks.env.run(until=bricks.env.now + 1.0)
            max_seen = max(max_seen, down(bricks))
        assert max_seen == 2
        assert applied["crash"] >= 2

    def test_recoveries_happen(self):
        bricks = make_nodes()
        applied = self.churn(bricks, seed=2, max_down=1, duration=100.0,
                             event_gap=(1.0, 5.0), down_time=(1.0, 4.0))
        bricks.env.run(until=100)
        assert applied["recover"] > 0
        assert applied["crash"] == applied["recover"]

    def test_horizon_stops_injection(self):
        bricks = make_nodes()
        applied = self.churn(bricks, seed=3, max_down=3, duration=5.0,
                             event_gap=(0.2, 1.0))
        bricks.env.run(until=50)
        before = applied["crash"]
        assert before > 0
        bricks.env.run(until=200)
        assert applied["crash"] == before

    def test_horizon_drains_downed_nodes(self):
        """No brick stays down past the plan's horizon."""
        bricks = make_nodes(count=5)
        self.churn(bricks, seed=4, max_down=3, duration=10.0,
                   event_gap=(0.5, 1.0), down_time=(50.0, 60.0))
        bricks.env.run(until=9)
        assert down(bricks) > 0
        bricks.env.run(until=20)
        assert down(bricks) == 0

    def test_recovers_only_own_crashes(self):
        bricks = make_nodes(count=4)
        schedule = plan(crash(1.0, 1), recover(5.0, 1))
        apply_schedule(bricks, schedule)
        bricks.env.run(until=2)
        bricks.nodes[2].crash()  # another actor's crash
        bricks.env.run(until=50)
        assert bricks.nodes[1].is_up
        assert not bricks.nodes[2].is_up  # not the plan's: left alone

    def test_max_down_one_never_overshoots(self):
        bricks = make_nodes(count=10)
        self.churn(bricks, seed=6, max_down=1, duration=100.0,
                   event_gap=(0.1, 0.5))
        for _ in range(100):
            bricks.env.run(until=bricks.env.now + 1.0)
            assert down(bricks) <= 1


class TestSendCountTrigger:
    """``crash`` with ``after=(type name, k)``: crash after the k-th send."""

    def test_crashes_after_nth_message(self):
        bricks = make_nodes()
        received = []
        bricks.nodes[2].register_handler(
            str, lambda src, payload: received.append(payload)
        )
        applied = apply_schedule(bricks, plan(crash(0.0, 1, ("str", 2))))
        bricks.env.run()  # arm
        bricks.nodes[1].send(2, "one")
        bricks.nodes[1].send(2, "two")  # delivered, then node 1 crashes
        bricks.nodes[1].send(2, "three")  # node 1 is down: lost
        bricks.env.run()
        assert applied["crash"] == 1
        assert not bricks.nodes[1].is_up
        assert received == ["one", "two"]

    def test_filters_by_payload_type(self):
        bricks = make_nodes()
        apply_event(bricks, crash(0.0, 1, ("int", 1)))
        bricks.nodes[1].send(2, "string messages do not count")
        assert bricks.nodes[1].is_up
        bricks.nodes[1].send(2, 42)
        assert not bricks.nodes[1].is_up

    def test_only_counts_its_node(self):
        bricks = make_nodes()
        apply_event(bricks, crash(0.0, 1, ("str", 1)))
        bricks.nodes[2].send(3, "other sender")
        assert bricks.nodes[1].is_up and bricks.nodes[2].is_up

    def test_triggers_fire_in_any_order(self):
        """Regression: a later-armed trigger firing first must neither
        revive nor drop an earlier one on the same node."""
        bricks = make_nodes()
        fired = []
        for count in (3, 1):
            apply_event(
                bricks, crash(0.0, 1, ("str", count)),
                on_event=lambda event, hit: fired.append(event.after[1]),
            )
        bricks.nodes[1].send(2, "a")
        assert fired == [1] and not bricks.nodes[1].is_up
        bricks.nodes[1].recover()
        bricks.nodes[1].send(2, "b")
        assert bricks.nodes[1].is_up
        bricks.nodes[1].send(2, "c")
        assert fired == [1, 3] and not bricks.nodes[1].is_up

    def test_fired_trigger_stops_wrapping_send(self):
        bricks = make_nodes()
        node = bricks.nodes[1]
        apply_event(bricks, crash(0.0, 1, ("str", 1)))
        assert "send" in vars(node)
        node.send(2, "boom")
        assert not node.is_up
        # The last trigger fired: no wrapper cost on subsequent sends.
        assert "send" not in vars(node)

    def test_stacked_triggers_on_several_nodes(self):
        bricks = make_nodes(count=4)
        for pid, count in ((1, 5), (2, 2), (3, 1)):
            apply_event(bricks, crash(0.0, pid, ("str", count)))
        bricks.nodes[2].send(4, "x")
        assert bricks.nodes[2].is_up
        bricks.nodes[3].send(4, "y")
        assert not bricks.nodes[3].is_up
        assert "send" not in vars(bricks.nodes[3])
        assert "send" in vars(bricks.nodes[1])
        assert "send" in vars(bricks.nodes[2])

    def test_payload_type_filter_under_retransmissions(self):
        """Count only WriteReq sends while Order retransmits interleave."""
        from repro.core.messages import OrderReq, WriteReq

        from tests.conftest import (
            crash_after, make_cluster, stripe_of, watch_sends,
        )

        # Heavy drops force the quorum layer to retransmit Order and
        # Write requests; the trigger must count only WriteReq sends
        # (retransmissions included) from the coordinator brick.
        cluster = make_cluster(m=2, n=4, seed=3, drop=0.3)
        register = cluster.register(0)
        register.write_stripe(stripe_of(2, 32, tag=1))

        crash_after(cluster, 1, WriteReq, 3)
        sends = []
        watch_sends(
            cluster.transport,
            lambda src, _dst, payload: sends.append(type(payload))
            if src == 1 else None,
        )
        coordinator = cluster.coordinators[1]
        cluster.nodes[1].spawn(
            coordinator.write_stripe(0, stripe_of(2, 32, tag=2))
        )
        cluster.env.run()
        assert not cluster.nodes[1].is_up
        assert sends.count(WriteReq) == 3
        # Order traffic happened too and did not advance the count.
        assert OrderReq in sends
