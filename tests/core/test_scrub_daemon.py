"""Scrub daemon and degraded reads: detect, mask, repair."""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, CorruptionDetected
from repro.types import ABORT
from repro.scrub import ScrubDaemon
from repro.scrub import daemon as daemon_module
from repro.campaign.schedule import FaultEvent, apply_event
from tests.conftest import make_cluster, stripe_of

REGISTERS = 4


def populated_cluster(**kwargs):
    cluster = make_cluster(m=3, n=5, **kwargs)
    stripes = {}
    for register_id in range(REGISTERS):
        stripes[register_id] = stripe_of(3, 32, register_id)
        assert cluster.register(register_id).write_stripe(
            stripes[register_id]
        ) == "OK"
    return cluster, stripes


def corrupt_on(cluster, pid, register_id, seed=0):
    event = FaultEvent(0.0, "corrupt", (pid, register_id), value=seed)
    assert apply_event(cluster, event)
    cluster.replicas[pid].drop_mirror(register_id)


def brick_is_clean(cluster, pid, register_id):
    replica = cluster.replicas[pid]
    node = cluster.nodes[pid]
    if register_id in replica.quarantined:
        return False
    return node.stable.verify(replica.log_key(register_id))


class TestDegradedReads:
    def test_read_succeeds_past_corrupt_fragment(self):
        cluster, stripes = populated_cluster()
        corrupt_on(cluster, pid=2, register_id=0)
        assert cluster.register(0).read_stripe() == stripes[0]
        assert cluster.metrics.checksum_failures > 0
        assert cluster.metrics.degraded_reads > 0

    def test_degraded_read_write_back_repairs(self):
        cluster, stripes = populated_cluster()
        corrupt_on(cluster, pid=2, register_id=0)
        assert cluster.register(0).read_stripe() == stripes[0]
        # The recovery write-back re-stored the fragment on brick 2.
        assert brick_is_clean(cluster, 2, 0)

    def test_quarantined_state_raises_typed_error(self):
        cluster, _stripes = populated_cluster()
        corrupt_on(cluster, pid=3, register_id=1)
        with pytest.raises(CorruptionDetected):
            cluster.replicas[3].state(1)
        assert 1 in cluster.replicas[3].quarantined


class TestScrubDaemon:
    def test_sweep_detects_and_repairs_cold_damage(self):
        # Nothing ever reads register 3 — only the scrubber can find
        # the flip.
        cluster, _stripes = populated_cluster()
        corrupt_on(cluster, pid=4, register_id=3)
        daemon = ScrubDaemon(cluster)
        daemon.sweep_now()
        assert daemon.detections
        assert any(
            pid == 4 and register_id == 3
            for _t, pid, register_id in daemon.detections
        )
        cluster.run(until=cluster.env.now + 200.0)
        assert daemon.repairs_done >= 1
        assert brick_is_clean(cluster, 4, 3)
        assert cluster.metrics.scrub_detections > 0
        assert cluster.metrics.scrub_repairs > 0

    def test_clean_cluster_scans_without_detections(self):
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(cluster)
        scanned = daemon.sweep_now()
        assert scanned == REGISTERS * 5
        assert not daemon.detections
        assert cluster.metrics.scrub_scans == scanned
        assert cluster.metrics.scrub_repairs == 0

    def test_timer_driven_sweep(self):
        cluster, _stripes = populated_cluster()
        corrupt_on(cluster, pid=1, register_id=2)
        daemon = ScrubDaemon(cluster, interval=5.0)
        daemon.start()
        cluster.run(until=cluster.env.now + 300.0)
        daemon.stop()
        assert daemon.sweeps_completed >= 1
        assert daemon.repairs_done >= 1
        assert brick_is_clean(cluster, 1, 2)

    def test_skips_down_bricks(self):
        cluster, _stripes = populated_cluster()
        corrupt_on(cluster, pid=5, register_id=0)
        cluster.nodes[5].crash()
        daemon = ScrubDaemon(cluster)
        daemon.sweep_now()
        # The damaged brick is down: nothing to verify there yet.
        assert all(pid != 5 for _t, pid, _r in daemon.detections)
        cluster.nodes[5].recover()
        cluster.run(until=cluster.env.now + 50.0)
        daemon.sweep_now()
        cluster.run(until=cluster.env.now + 200.0)
        assert brick_is_clean(cluster, 5, 0)

    def test_each_wake_up_scans_every_pair_in_order(self):
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(cluster, interval=5.0)
        scans = []
        original = daemon._scan_one
        daemon._scan_one = lambda pid, rid: (
            scans.append((rid, pid)), original(pid, rid)
        )[-1]
        daemon.start()
        cluster.run(until=cluster.env.now + 12.0)  # wake-ups at 5 and 10
        daemon.stop()
        one_pass = [
            (register_id, pid)
            for register_id in range(REGISTERS)
            for pid in range(1, 6)
        ]
        assert scans == one_pass * 2
        assert daemon.sweeps_completed == 2
        assert cluster.metrics.scrub_scans == 2 * REGISTERS * 5

    def test_new_register_is_scrubbed(self):
        # Regression: the register set is resolved at every wake-up,
        # not frozen when the daemon starts.
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(cluster, interval=5.0)
        daemon.start()
        cluster.run(until=cluster.env.now + 50.0)
        new_id = REGISTERS + 5
        assert cluster.register(new_id).write_stripe(
            stripe_of(3, 32, new_id)
        ) == "OK"
        corrupt_on(cluster, pid=2, register_id=new_id)
        cluster.run(until=cluster.env.now + 300.0)
        daemon.stop()
        assert any(
            register_id == new_id
            for _t, _pid, register_id in daemon.detections
        )
        assert brick_is_clean(cluster, 2, new_id)

    def test_marks_clear_when_scan_verifies_clean(self):
        # Regression: a mark for damage a client repaired behind the
        # daemon's back must not stay in the MTTR map forever.
        cluster, stripes = populated_cluster()
        corrupt_on(cluster, pid=2, register_id=1)
        daemon = ScrubDaemon(cluster)
        # The repair cannot start (as with no live coordinator).
        daemon._start_repair = lambda register_id: False
        daemon.sweep_now()
        assert daemon.summary()["tracked_marks"] > 0
        assert daemon.repairs_done == 0
        assert cluster.register(1).read_stripe() == stripes[1]
        assert brick_is_clean(cluster, 2, 1)
        daemon.sweep_now()
        assert daemon.summary()["tracked_marks"] == 0

    def test_mark_map_is_bounded(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "_DETECTED_LIMIT", 3)
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(cluster)
        for pid in (1, 2, 3, 4, 5):
            daemon._mark_dirty(pid, 0)
            daemon._mark_dirty(pid, 1)
        assert daemon.summary()["tracked_marks"] <= 3

    def test_repairs_are_admitted_in_order_up_to_the_cap(self):
        cluster, _stripes = populated_cluster()
        extra = range(REGISTERS, REGISTERS + 2)
        for register_id in extra:
            assert cluster.register(register_id).write_stripe(
                stripe_of(3, 32, register_id)
            ) == "OK"
        for register_id in range(REGISTERS + 2):
            corrupt_on(cluster, pid=4, register_id=register_id)
        daemon = ScrubDaemon(cluster)
        daemon.sweep_now()
        # A second pass re-offers every dirty register; none doubles up.
        daemon.sweep_now()
        assert sorted(daemon._inflight) == list(range(4))
        assert list(daemon._queued) == list(extra)
        cluster.run(until=cluster.env.now + 200.0)
        assert daemon.repairs_done == REGISTERS + 2
        assert daemon.summary()["tracked_marks"] == 0
        assert all(
            brick_is_clean(cluster, 4, register_id)
            for register_id in range(REGISTERS + 2)
        )

    def test_zero_interval_is_rejected(self):
        # Re-armed at the same instant, the simulation would never
        # advance.
        cluster, _stripes = populated_cluster()
        with pytest.raises(ConfigurationError, match="interval"):
            ScrubDaemon(cluster, interval=0.0)

    @pytest.mark.parametrize("interval", [-5.0, float("nan")])
    def test_negative_or_nan_interval_is_rejected(self, interval):
        cluster, _stripes = populated_cluster()
        with pytest.raises(ConfigurationError, match="interval"):
            ScrubDaemon(cluster, interval=interval)

    def test_empty_cluster_sweep_scans_nothing(self):
        cluster = make_cluster(m=3, n=5)
        daemon = ScrubDaemon(cluster)
        assert daemon.sweep_now() == 0
        assert daemon.sweeps_completed == 0
        assert cluster.metrics.scrub_scans == 0

    def test_down_bricks_cost_no_scan(self):
        cluster, _stripes = populated_cluster()
        cluster.nodes[5].crash()
        daemon = ScrubDaemon(cluster)
        # The pass covers every pair; only live bricks are audited.
        assert daemon.sweep_now() == REGISTERS * 5
        assert cluster.metrics.scrub_scans == REGISTERS * 4

    def test_start_is_idempotent(self):
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(cluster, interval=5.0)
        daemon.start()
        daemon.start()
        cluster.run(until=cluster.env.now + 12.0)  # wake-ups at 5 and 10
        daemon.stop()
        assert daemon.sweeps_completed == 2

    def test_stop_halts_wake_ups(self):
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(cluster, interval=5.0)
        daemon.start()
        cluster.run(until=cluster.env.now + 7.0)
        daemon.stop()
        cluster.run(until=cluster.env.now + 50.0)
        assert daemon.sweeps_completed == 1
        assert not daemon.running

    def test_horizon_stops_the_daemon(self):
        cluster, _stripes = populated_cluster()
        start = cluster.env.now
        daemon = ScrubDaemon(cluster, interval=5.0, horizon=start + 12.0)
        daemon.start()
        cluster.run(until=start + 100.0)
        # Passes at +5 and +10; the +15 wake-up is past the horizon.
        assert daemon.sweeps_completed == 2
        assert not daemon.running

    def test_client_quarantined_copy_is_repaired_not_counted(self):
        # A client read found the damage first: the scan only repairs.
        cluster, _stripes = populated_cluster()
        corrupt_on(cluster, pid=3, register_id=1)
        with pytest.raises(CorruptionDetected):
            cluster.replicas[3].state(1)
        daemon = ScrubDaemon(cluster)
        daemon.sweep_now()
        assert not daemon.detections
        assert cluster.metrics.scrub_detections == 0
        cluster.run(until=cluster.env.now + 200.0)
        assert daemon.repairs_done == 1
        assert brick_is_clean(cluster, 3, 1)

    def test_failed_start_is_re_offered_by_the_next_scan(self):
        cluster, _stripes = populated_cluster()
        corrupt_on(cluster, pid=2, register_id=3)
        daemon = ScrubDaemon(cluster)
        start_repair = daemon._start_repair
        daemon._start_repair = lambda register_id: False
        daemon.sweep_now()
        # Stood down: nothing queued or in flight, the mark remains.
        assert not daemon._queued and not daemon._inflight
        assert daemon.summary()["tracked_marks"] == 1
        daemon._start_repair = start_repair
        daemon.sweep_now()
        cluster.run(until=cluster.env.now + 200.0)
        assert daemon.repairs_done == 1
        assert brick_is_clean(cluster, 2, 3)

    def test_aborted_repair_frees_its_slot(self):
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(cluster)
        started = []

        def start_repair(register_id):
            started.append(register_id)
            daemon._inflight.add(register_id)
            return True

        daemon._start_repair = start_repair
        daemon._inflight.update({0, 1, 2, 3})
        daemon._queued.append(7)
        daemon._repair_done(2, SimpleNamespace(ok=True, value=ABORT))
        assert daemon.repair_aborts == 1
        assert daemon.repairs_done == 0
        # The freed slot goes to the next queued register.
        assert started == [7]
        assert daemon._inflight == {0, 1, 3, 7}
        assert cluster.metrics.scrub_repairs == 0

    def test_repair_time_runs_from_first_detection(self):
        cluster, _stripes = populated_cluster()
        corrupt_on(cluster, pid=1, register_id=2)
        daemon = ScrubDaemon(cluster)
        start_repair = daemon._start_repair
        daemon._start_repair = lambda register_id: False
        detected = cluster.env.now
        daemon.sweep_now()
        assert daemon.detections == [(detected, 1, 2)]
        cluster.run(until=detected + 30.0)
        daemon._start_repair = start_repair
        # The second scan re-offers the repair; the mark keeps its time.
        daemon.sweep_now()
        assert len(daemon.detections) == 1
        cluster.run(until=cluster.env.now + 200.0)
        assert cluster.metrics.scrub_repairs == 1
        assert cluster.metrics.mean_time_to_repair >= 30.0
        assert daemon.summary()["tracked_marks"] == 0

    def test_summary_shape(self):
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(cluster)
        daemon.sweep_now()
        summary = daemon.summary()
        for key in (
            "sweeps_completed", "detections", "repairs_done",
            "repair_aborts", "pending_repairs",
        ):
            assert key in summary


class TestGarbageCollectorQuarantine:
    def test_trim_skips_quarantined_registers(self):
        cluster, _stripes = populated_cluster(gc_enabled=False)
        register = cluster.register(0)
        for tag in range(5, 9):
            register.write_stripe(stripe_of(3, 32, tag))
        corrupt_on(cluster, pid=2, register_id=0)
        with pytest.raises(CorruptionDetected):
            cluster.replicas[2].state(0)
        last_ts = max(
            replica.state(0).log.max_ts()
            for pid, replica in cluster.replicas.items()
            if pid != 2
        )
        key = cluster.replicas[2].log_key(0)
        records = cluster.nodes[2].stable.journal_len(key)
        # The Section 5.1 notice, as a complete write at last_ts sends it.
        cluster.coordinators[1]._send_gc(0, last_ts)
        cluster.run(until=cluster.env.now + 10.0)
        # Compacting a corrupt log would destroy the evidence the
        # repair path needs; the quarantined brick is left alone.
        assert cluster.nodes[2].stable.journal_len(key) == records
        assert not cluster.nodes[2].stable.verify(key)
        # Clean bricks still trimmed.
        assert len(cluster.replicas[1].state(0).log) == 1
