"""Scrub daemon and degraded reads: detect, mask, repair."""

import pytest

from repro.errors import CorruptionDetected
from repro.scrub import ScrubConfig, ScrubDaemon
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
        daemon = ScrubDaemon(cluster, registers=range(REGISTERS))
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
        daemon = ScrubDaemon(cluster, registers=range(REGISTERS))
        scanned = daemon.sweep_now()
        assert scanned == REGISTERS * 5
        assert not daemon.detections
        assert cluster.metrics.scrub_scans == scanned
        assert cluster.metrics.scrub_repairs == 0

    def test_timer_driven_sweep(self):
        cluster, _stripes = populated_cluster()
        corrupt_on(cluster, pid=1, register_id=2)
        daemon = ScrubDaemon(
            cluster,
            registers=range(REGISTERS),
            # A budget of every pair: a full sweep per wake-up.
            config=ScrubConfig(interval=5.0, samples_per_tick=REGISTERS * 5),
        )
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
        daemon = ScrubDaemon(cluster, registers=range(REGISTERS))
        daemon.sweep_now()
        # The damaged brick is down: nothing to verify there yet.
        assert all(pid != 5 for _t, pid, _r in daemon.detections)
        cluster.nodes[5].recover()
        cluster.run(until=cluster.env.now + 50.0)
        daemon.sweep_now()
        cluster.run(until=cluster.env.now + 200.0)
        assert brick_is_clean(cluster, 5, 0)

    def test_summary_shape(self):
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(cluster, registers=range(REGISTERS))
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
