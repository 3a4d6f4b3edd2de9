"""Schedules, due-time latency, and what counts as a failed op."""

from benchmarks.e2e import loadgen


def test_schedule_is_reproducible_and_offers_a_fixed_count():
    first = loadgen.poisson_schedule(loadgen.rng_for(7, "w", "t"), 100.0, 1.3)
    again = loadgen.poisson_schedule(loadgen.rng_for(7, "w", "t"), 100.0, 1.3)
    other = loadgen.poisson_schedule(loadgen.rng_for(8, "w", "t"), 100.0, 1.3)
    assert first == again
    assert first != other
    assert len(first) == len(other) == 130
    assert first == sorted(first)
    assert 0.0 <= first[0] and first[-1] < 1.3


def test_plans_are_reproducible_and_digested():
    mix = ((0.4, "ws"), (0.3, "rs"), (0.3, "w"))
    first = loadgen.make_plan(loadgen.rng_for(1, "p"), 200, mix, 128, 4)
    again = loadgen.make_plan(loadgen.rng_for(1, "p"), 200, mix, 128, 4)
    other = loadgen.make_plan(loadgen.rng_for(2, "p"), 200, mix, 128, 4)
    assert first == again
    assert loadgen.digest(first) == loadgen.digest(again)
    assert loadgen.digest(first) != loadgen.digest(other)
    assert {entry[0] for entry in first} == {"ws", "rs", "w"}
    own = loadgen.make_plan(
        loadgen.rng_for(1, "c"), 50, ((1.0, "r"),), 128, 4, blocks=[8, 9]
    )
    assert {entry[1] for entry in own} <= {8, 9}


def test_latency_runs_from_the_due_time_not_the_submit_time():
    # A fake clock in transport units (1000 per second): the op was due
    # at 100, the stalled generator submitted it at 130, it finished at
    # 150.  The stall is the op's problem: 50 ms, not 20.
    due, _submitted, finished = 100.0, 130.0, 150.0
    assert loadgen.latency_ms(finished, due, 1000.0) == 50.0
    assert loadgen.latency_ms(finished, due, 2000.0) == 25.0


class FakeOp:
    def __init__(self, status, value=None):
        self.status, self.value = status, value

    @property
    def ok(self):
        return self.status == "ok"


def test_failed_wrong_and_unfinished_ops_count_as_failed():
    records = [
        (FakeOp("ok", b"right"), b"right"),      # verified read
        (FakeOp("ok", "OK"), None),              # acknowledged write
        (FakeOp("ok", b"stale"), b"right"),      # wrong bytes
        (FakeOp("aborted"), None),               # retries exhausted
        (FakeOp("timeout"), b"right"),           # deadline inside the system
        (FakeOp("pending"), None),               # unfinished at our deadline
    ]
    assert loadgen.count_failed(records) == 4
