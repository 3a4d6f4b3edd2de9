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

    @staticmethod
    def walk(sampler, pairs, count, cycles):
        """``cycles`` draws, starting a lap whenever one is walked."""
        drawn = []
        for _ in range(cycles):
            if sampler.lap_done:
                sampler.start_lap(pairs)
            drawn.append(sampler.draw(count))
        return drawn

    def test_fixed_seed_is_deterministic(self):
        a = self.walk(PairSampler(seed=42), self.PAIRS, 7, 10)
        b = self.walk(PairSampler(seed=42), self.PAIRS, 7, 10)
        assert a == b

    def test_different_seeds_diverge(self):
        a = self.walk(PairSampler(seed=1), self.PAIRS, 7, 5)
        b = self.walk(PairSampler(seed=2), self.PAIRS, 7, 5)
        assert a != b

    def test_count_is_an_upper_bound(self):
        for drawn in self.walk(PairSampler(seed=0), self.PAIRS, 7, 20):
            assert len(drawn) <= 7
            assert len(set(drawn)) == len(drawn)  # no duplicates
            assert all(pair in self.PAIRS for pair in drawn)

    def test_eventual_coverage_within_one_lap(self):
        # The coverage bound: with P pairs and budget b, one lap visits
        # every pair exactly once in ceil(P / b) cycles.
        budget = 8
        bound = -(-len(self.PAIRS) // budget)  # = 5 cycles
        drawn = self.walk(PairSampler(seed=9), self.PAIRS, budget, bound)
        scanned = [pair for step in drawn for pair in step]
        assert sorted(scanned) == sorted(self.PAIRS)

    def test_each_lap_is_a_fresh_permutation(self):
        sampler = PairSampler(seed=5)
        laps = []
        for _ in range(3):
            assert sampler.lap_done
            sampler.start_lap(self.PAIRS)
            lap = []
            while not sampler.lap_done:
                lap.extend(sampler.draw(6))  # 40 pairs: last draw short
            assert sorted(lap) == sorted(self.PAIRS)
            laps.append(lap)
        # Reshuffled when each lap starts, not replayed.
        assert laps[0] != laps[1] != laps[2]
        # A lap never spills into the next one.
        assert sampler.draw(6) == []

    def test_empty_inputs(self):
        sampler = PairSampler(seed=0)
        sampler.start_lap([])
        assert sampler.draw(10) == [] and sampler.lap_done
        sampler.start_lap(self.PAIRS)
        assert sampler.draw(0) == [] and not sampler.lap_done


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

    def test_new_register_is_scrubbed_sweep_mode(self):
        # A small fixed budget: a lap takes several wake-ups.
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

    def test_sweep_accounting_survives_growth(self):
        # Adding registers mid-lap must not wedge the walk: laps still
        # complete and count, and the next lap picks the growth up.
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
