"""Sampling scrub scheduler: math, determinism, coverage, regressions.

Covers the sampling primitives (:mod:`repro.scrub.sampler`) and the two
daemon regressions fixed alongside them:

* the daemon froze its register set at construction, so registers
  created after :meth:`ScrubDaemon.start` were never scrubbed;
* the first-detection mark map ``_detected_at`` only shrank on repair
  completion, so marks for damage repaired behind the daemon's back
  (by a client's degraded read) accumulated forever.
"""

import pytest

from repro.errors import ConfigurationError
from repro.scrub import daemon as daemon_module
from repro.scrub import sampler as sampler_module
from repro.scrub import (
    PairSampler,
    RepairQueue,
    RevisitQueue,
    ScrubConfig,
    ScrubDaemon,
    detection_confidence,
    required_samples,
)
from tests.conftest import stripe_of
from tests.core.test_scrub_daemon import (
    REGISTERS,
    brick_is_clean,
    corrupt_on,
    populated_cluster,
)


class TestConfidenceMath:
    def test_required_samples_hits_target(self):
        # The derived budget actually buys the target confidence.
        for confidence in (0.5, 0.9, 0.95, 0.99):
            for rate in (0.001, 0.01, 0.1):
                samples = required_samples(confidence, rate, 10**9)
                assert detection_confidence(samples, rate) >= confidence
                # ...and is not grossly over-provisioned: one fewer
                # sample would miss the target.
                assert detection_confidence(samples - 1, rate) < confidence

    def test_budget_is_fleet_size_independent(self):
        small = required_samples(0.95, 0.01, 10**4)
        huge = required_samples(0.95, 0.01, 10**9)
        assert small == huge == 299

    def test_clamps_to_pair_space(self):
        # Tiny clusters degenerate into the full sweep.
        assert required_samples(0.95, 0.01, 20) == 20
        assert required_samples(0.95, 0.01, 0) == 0

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ConfigurationError):
            required_samples(1.0, 0.01, 100)
        with pytest.raises(ConfigurationError):
            required_samples(0.95, 0.0, 100)

    def test_confidence_edge_cases(self):
        assert detection_confidence(0, 0.01) == 0.0
        assert detection_confidence(10, 0.0) == 0.0
        assert detection_confidence(1, 1.0) == 1.0


class TestPairSampler:
    PAIRS = [(r, p) for r in range(8) for p in range(1, 6)]

    def test_fixed_seed_is_deterministic(self):
        a = PairSampler(seed=42)
        b = PairSampler(seed=42)
        for _ in range(10):
            assert a.draw(self.PAIRS, 7) == b.draw(self.PAIRS, 7)

    def test_different_seeds_diverge(self):
        a = PairSampler(seed=1)
        b = PairSampler(seed=2)
        sequences = (
            [a.draw(self.PAIRS, 7) for _ in range(5)],
            [b.draw(self.PAIRS, 7) for _ in range(5)],
        )
        assert sequences[0] != sequences[1]

    def test_count_is_an_upper_bound(self):
        sampler = PairSampler(seed=0)
        for _ in range(20):
            drawn = sampler.draw(self.PAIRS, 7)
            assert len(drawn) <= 7
            assert len(set(drawn)) == len(drawn)  # no duplicates
            assert all(pair in self.PAIRS for pair in drawn)

    def test_eventual_coverage_under_aging(self):
        # The coverage bound: with P pairs, budget b, and aging share
        # max(1, int(b * 0.25)) per draw, every pair is visited within
        # ceil(P / share) cycles — no matter where the uniform draws
        # land.
        pairs = self.PAIRS  # P = 40
        budget = 8
        sampler = PairSampler(seed=9)
        share = max(1, int(budget * 0.25))  # = 2
        bound = -(-len(pairs) // share)  # = 20 cycles
        seen = set()
        for _ in range(bound):
            seen.update(sampler.draw(pairs, budget))
        assert seen == set(pairs)

    def test_laps_count_full_cursor_passes(self, monkeypatch):
        monkeypatch.setattr(sampler_module, "_AGING_FRACTION", 1.0)
        sampler = PairSampler(seed=5)
        seen = set()
        for _ in range(len(self.PAIRS) // 8):  # 40 pairs, 8 per draw
            assert sampler.laps == 0
            seen.update(sampler.draw(self.PAIRS, 8))
        assert sampler.laps == 1 and seen == set(self.PAIRS)
        # A budget covering the pair space is one full pass, one lap.
        assert sorted(sampler.draw(self.PAIRS, 99)) == sorted(self.PAIRS)
        assert sampler.laps == 2

    def test_empty_inputs(self):
        sampler = PairSampler(seed=0)
        assert sampler.draw([], 10) == []
        assert sampler.draw(self.PAIRS, 0) == []


class TestRevisitQueue:
    def test_severity_order_fifo_ties(self):
        queue = RevisitQueue()
        queue.push(1, severity=1.0)
        queue.push(2, severity=3.0)
        queue.push(3, severity=1.0)
        assert queue.pop() == 2  # highest severity first
        assert queue.pop() == 1  # FIFO among equals
        assert queue.pop() == 3
        assert queue.pop() is None

    def test_repush_keeps_max_severity(self):
        queue = RevisitQueue()
        queue.push(1, severity=2.0)
        queue.push(1, severity=1.0)  # lower: no-op
        queue.push(2, severity=1.5)
        assert len(queue) == 2
        assert queue.pop() == 1
        queue.push(3, severity=5.0)
        queue.push(3, severity=6.0)  # higher: supersedes
        queue.push(2, severity=1.0)
        assert queue.pop() == 3


class TestRepairQueue:
    def test_inflight_budget(self):
        repairs = RepairQueue(max_inflight=2)
        for register_id in (1, 2, 3, 4):
            repairs.offer(register_id, severity=float(register_id))
        # Severity order, capped at the budget.
        assert repairs.next_ready() == 4
        assert repairs.next_ready() == 3
        assert repairs.next_ready() is None  # budget spent
        assert repairs.inflight == 2 and repairs.queued == 2
        repairs.finished(4)
        assert repairs.next_ready() == 2  # slot freed -> next admitted

    def test_offer_while_inflight_is_dropped(self):
        repairs = RepairQueue(max_inflight=1)
        repairs.offer(7)
        assert repairs.next_ready() == 7
        repairs.offer(7)  # already being repaired
        assert repairs.queued == 0
        repairs.finished(7)
        assert repairs.next_ready() is None


class TestLiveRegisterResolution:
    """Regression: registers created after start() must get scrubbed."""

    def test_new_register_is_scrubbed_sweep_mode(self, monkeypatch):
        # The whole budget from the cursor: a round-robin sweep.
        monkeypatch.setattr(sampler_module, "_AGING_FRACTION", 1.0)
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(
            cluster, config=ScrubConfig(interval=5.0, samples_per_tick=4),
        )
        daemon.start()
        cluster.run(until=cluster.env.now + 50.0)
        # A register born *after* the daemon started...
        new_id = REGISTERS + 5
        assert cluster.register(new_id).write_stripe(
            stripe_of(3, 32, new_id)
        ) == "OK"
        corrupt_on(cluster, pid=2, register_id=new_id)
        cluster.run(until=cluster.env.now + 600.0)
        daemon.stop()
        # ...was found and repaired by the background scan alone.
        assert any(
            register_id == new_id
            for _t, _pid, register_id in daemon.detections
        )
        assert brick_is_clean(cluster, 2, new_id)

    def test_new_register_is_scrubbed_sample_mode(self):
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(
            cluster,
            config=ScrubConfig(interval=5.0, seed=3),
        )
        daemon.start()
        cluster.run(until=cluster.env.now + 50.0)
        new_id = REGISTERS + 9
        assert cluster.register(new_id).write_stripe(
            stripe_of(3, 32, new_id)
        ) == "OK"
        corrupt_on(cluster, pid=4, register_id=new_id)
        cluster.run(until=cluster.env.now + 600.0)
        daemon.stop()
        assert any(
            register_id == new_id
            for _t, _pid, register_id in daemon.detections
        )
        assert brick_is_clean(cluster, 4, new_id)

    def test_sweep_accounting_survives_growth(self, monkeypatch):
        # Adding registers mid-sweep must not wedge the round-robin:
        # passes still complete and count.
        monkeypatch.setattr(sampler_module, "_AGING_FRACTION", 1.0)
        cluster, _stripes = populated_cluster()
        daemon = ScrubDaemon(
            cluster, config=ScrubConfig(interval=5.0, samples_per_tick=3),
        )
        daemon.start()
        for extra in range(3):
            cluster.run(until=cluster.env.now + 60.0)
            new_id = REGISTERS + 20 + extra
            assert cluster.register(new_id).write_stripe(
                stripe_of(3, 32, new_id)
            ) == "OK"
        cluster.run(until=cluster.env.now + 600.0)
        daemon.stop()
        assert daemon.sweeps_completed >= 2
        # The current snapshot covers every live register.
        assert set(daemon.registers) == set(cluster.register_ids())


class TestAuditModeMarks:
    """Regression: ``_detected_at`` must not leak while the daemon only
    audits (its own repairs cannot start)."""

    def test_marks_clear_when_scan_verifies_clean(self):
        cluster, stripes = populated_cluster()
        corrupt_on(cluster, pid=2, register_id=1)
        daemon = ScrubDaemon(cluster)
        # The repair cannot start (as with no live coordinator).
        daemon._start_repair = lambda register_id: False
        daemon.sweep_now()
        assert daemon.summary()["tracked_marks"] > 0
        assert daemon.repairs_done == 0
        # A client's degraded read repairs the brick behind the
        # daemon's back...
        assert cluster.register(1).read_stripe() == stripes[1]
        assert brick_is_clean(cluster, 2, 1)
        # ...and the next pass, seeing it clean, drops the mark.
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


class TestSampledDaemon:
    def test_sampled_schedule_detects_and_repairs(self):
        cluster, _stripes = populated_cluster()
        corrupt_on(cluster, pid=1, register_id=2)
        daemon = ScrubDaemon(
            cluster,
            config=ScrubConfig(interval=5.0, seed=0),
        )
        daemon.start()
        cluster.run(until=cluster.env.now + 600.0)
        daemon.stop()
        assert daemon.detections
        assert daemon.repairs_done >= 1
        assert brick_is_clean(cluster, 1, 2)
        # 20 pairs: the derived budget clamps to a full pass per tick.
        assert daemon.sweeps_completed > 0
        assert cluster.metrics.scrub_scans == 20 * daemon.sweeps_completed

    def test_fixed_seed_scan_order_is_identical(self):
        order = []
        for _run in range(2):
            cluster, _stripes = populated_cluster()
            daemon = ScrubDaemon(
                cluster,
                config=ScrubConfig(interval=5.0, seed=11, samples_per_tick=6),
            )
            scans = []
            original = daemon._scan_one
            daemon._scan_one = lambda pid, rid: (
                scans.append((pid, rid)), original(pid, rid)
            )[-1]
            daemon.start()
            cluster.run(until=cluster.env.now + 200.0)
            daemon.stop()
            order.append(scans)
        assert order[0] == order[1]
        assert order[0]  # the schedule actually scanned something

    @pytest.mark.parametrize("field, bad", [
        ("interval", 0.0),  # re-armed at the same instant: run() hung
        ("target_confidence", 1.5),  # raised only inside the first tick
        ("samples_per_tick", -1),  # scanned nothing, silently
    ])
    def test_rejects_bad_config(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            ScrubConfig(**{field: bad})
