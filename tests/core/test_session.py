"""VolumeSession: pipelining, coalescing, retry, failover, determinism."""

import pytest

from repro import VolumeSession, open_volume
from repro.core.session import RetryPolicy
from repro.errors import ConfigurationError, CorruptionDetected, StorageError
from repro.types import ABORT


def payloads_for(volume, count, tag=0):
    return [
        bytes([(tag + i) % 255 + 1]) * volume.block_size for i in range(count)
    ]


def readback(volume, blocks):
    """Pipelined read of the given blocks as a dict."""
    with volume.session(max_inflight=8) as session:
        for block in blocks:
            session.submit_read(block)
    return {op.blocks[0]: op.result for op in session.ops}


# -- basic pipelining ---------------------------------------------------------


def test_pipelined_roundtrip():
    volume = open_volume(m=3, n=5, blocks=24, block_size=32, seed=1)
    data = payloads_for(volume, 24)
    with volume.session(max_inflight=8) as session:
        for block, payload in enumerate(data):
            session.submit_write(block, payload)
    assert all(op.ok for op in session.ops)
    assert session.stats.ops_completed == 24
    assert session.stats.peak_inflight > 1
    assert readback(volume, range(24)) == dict(enumerate(data))


def test_unwritten_blocks_read_zeros():
    volume = open_volume(m=3, n=5, blocks=12, block_size=32, seed=2)
    values = readback(volume, range(6))
    assert all(value == bytes(32) for value in values.values())


def test_max_inflight_one_is_serial():
    volume = open_volume(m=3, n=5, blocks=12, block_size=32, seed=3)
    with volume.session(max_inflight=1) as session:
        session.submit_write_range(0, payloads_for(volume, 12))
    assert session.stats.peak_inflight == 1
    assert all(op.ok for op in session.ops)


def test_pipelining_is_faster_than_serial():
    def run(depth):
        volume = open_volume(m=3, n=5, blocks=36, block_size=32, seed=4)
        start = volume.cluster.env.now
        with volume.session(max_inflight=depth) as session:
            for block in range(36):
                session.submit_write(block, bytes([block + 1]) * 32)
        assert all(op.ok for op in session.ops)
        return volume.cluster.env.now - start

    assert run(16) < run(1) / 2


def test_sync_read_write_helpers():
    volume = open_volume(m=3, n=5, blocks=12, block_size=32, seed=5)
    session = volume.session()
    assert session.write(3, b"\x07" * 32) == "OK"
    assert session.read(3) == b"\x07" * 32


def test_result_before_drain_raises():
    volume = open_volume(m=3, n=5, blocks=12, block_size=32, seed=6)
    session = volume.session()
    op = session.submit_write(0, b"\x01" * 32)
    with pytest.raises(StorageError, match="pending"):
        op.result
    session.drain()
    assert op.result == "OK"


def test_constructor_validation():
    volume = open_volume(m=3, n=5, blocks=12, block_size=32, seed=7)
    with pytest.raises(ConfigurationError):
        volume.session(max_inflight=0)
    session = volume.session()
    with pytest.raises(ConfigurationError):
        session.submit_write(0, b"short")


# -- coalescing ---------------------------------------------------------------


def test_write_range_coalesces_full_stripes():
    # stripe_shuffle off: blocks 0..m-1 share stripe 0, etc., so a
    # volume-wide range write coalesces into pure write-stripe ops.
    volume = open_volume(m=3, n=5, stripes=4, block_size=32, seed=8)
    volume.stripe_shuffle = False
    data = payloads_for(volume, volume.num_blocks)
    with volume.session() as session:
        session.submit_write_range(0, data)
    assert [op.kind for op in session.ops] == ["write-stripe"] * 4
    assert session.stats.coalesced_writes == 4 * (3 - 1)
    volume.stripe_shuffle = True  # restore for the readback mapping
    assert all(op.ok for op in session.ops)


def test_write_range_partial_stripe_coalesces_to_write_blocks():
    volume = open_volume(m=3, n=5, stripes=4, block_size=32, seed=9)
    volume.stripe_shuffle = False
    with volume.session() as session:
        ops = session.submit_write_range(0, payloads_for(volume, 2))
    assert [op.kind for op in ops] == ["write-blocks"]
    assert ops[0].units == (1, 2)


def test_write_range_single_blocks_stay_block_writes():
    # With stripe shuffle on, consecutive blocks land on distinct
    # stripes: no coalescing, maximum parallelism.
    volume = open_volume(m=3, n=5, stripes=8, block_size=32, seed=10)
    with volume.session() as session:
        ops = session.submit_write_range(0, payloads_for(volume, 8))
    assert [op.kind for op in ops] == ["write-block"] * 8
    assert session.stats.coalesced_writes == 0


def test_read_range_coalesces_and_orders_values():
    volume = open_volume(m=3, n=5, stripes=4, block_size=32, seed=11)
    volume.stripe_shuffle = False
    data = payloads_for(volume, volume.num_blocks)
    with volume.session() as session:
        session.submit_write_range(0, data)
    with volume.session() as session:
        ops = session.submit_read_range(0, volume.num_blocks)
    assert {op.kind for op in ops} == {"read-blocks"}
    flat = []
    for op in ops:
        flat.extend(op.result)
    assert flat == data


def test_reused_buffer_does_not_rewrite_submitted_writes():
    """Writes carry the bytes the buffer held at submit time."""
    volume = open_volume(m=3, n=5, stripes=4, block_size=32, seed=12)
    volume.stripe_shuffle = False
    buf = bytearray(b"\x01" * 32)
    with volume.session() as session:
        session.submit_write(0, buf)
        buf[:] = b"\x02" * 32
        session.submit_write_range(3, [buf, buf])  # one write-blocks op
        buf[:] = b"\x03" * 32
    assert all(op.ok for op in session.ops)
    expected = [b"\x01" * 32, b"\x02" * 32, b"\x02" * 32]
    assert [record.value for record in session.history()] == expected
    with volume.session() as session:
        reads = [session.submit_read(block) for block in (0, 3, 4)]
    assert [op.result for op in reads] == expected


# -- retry under aborts -------------------------------------------------------


@pytest.mark.parametrize("field, bad", [
    ("attempts", 0),
    ("backoff", -1),
    ("max_failovers", -1),
])
def test_retry_policy_rejects_bad_values(field, bad):
    with pytest.raises(ConfigurationError):
        RetryPolicy(**{field: bad})


def test_retries_forced_aborts_until_success(monkeypatch):
    volume = open_volume(m=3, n=5, blocks=12, block_size=32, seed=12)
    original = VolumeSession._spawn_attempt
    aborts_left = {"n": 3}

    def flaky(self, op, pid):
        if aborts_left["n"] > 0:
            aborts_left["n"] -= 1

            def aborter():
                yield self.env.timeout(1.0)
                return ABORT

            return self.env.process(aborter())
        return original(self, op, pid)

    monkeypatch.setattr(VolumeSession, "_spawn_attempt", flaky)
    with volume.session() as session:
        op = session.submit_write(0, b"\x09" * 32)
    assert op.ok
    assert op.retries == 3
    assert session.stats.retries == 3
    assert session.stats.aborts_exhausted == 0


def test_abort_storm_from_conflicting_sessions():
    # Two pipelined sessions hammer one stripe through different
    # coordinators: genuine write-write conflicts abort (the paper's ⊥)
    # and the sessions' jittered backoff retries them to completion.
    volume = open_volume(m=3, n=5, stripes=1, block_size=32, seed=13)
    a = volume.session(max_inflight=4, seed=1)
    b = volume.session(max_inflight=4, seed=2)
    for i in range(6):
        a.submit_write(0, bytes([10 + i]) * 32)
        b.submit_write(1, bytes([40 + i]) * 32)
    a.drain()
    b.drain()
    ops = a.ops + b.ops
    assert all(op.ok for op in ops)
    assert a.stats.retries + b.stats.retries > 0
    values = readback(volume, [0, 1])
    assert values[0] == bytes([15]) * 32
    assert values[1] == bytes([45]) * 32


def test_exhausted_retries_surface_abort(monkeypatch):
    volume = open_volume(m=3, n=5, blocks=12, block_size=32, seed=14)

    def always_abort(self, op, pid):
        def aborter():
            yield self.env.timeout(1.0)
            return ABORT

        return self.env.process(aborter())

    monkeypatch.setattr(VolumeSession, "_spawn_attempt", always_abort)
    retry = RetryPolicy(attempts=3, backoff=1.0)
    with volume.session(retry=retry) as session:
        op = session.submit_write(0, b"\x08" * 32)
    assert op.status == "aborted"
    assert op.result is ABORT
    assert op.attempts == 3
    assert session.stats.aborts_exhausted == 1


@pytest.mark.parametrize(
    "crashed", [(4, 5), (1, 2, 3, 4, 5)], ids=["one-past-f", "all-five"]
)
def test_read_past_f_ends_aborted(crashed):
    # Two of five bricks down is one past f: no quorum can answer.
    # Every attempt's phases expire on their own, so the default
    # session spends its attempts and ends the read ⊥ instead of
    # running until something kills it.  With every brick down no
    # attempt is even sent; each still counts, so the read ends too.
    volume = open_volume(m=3, n=5)
    for pid in crashed:
        volume.cluster.crash(pid)
    session = volume.session()
    op = session.submit_read(0)
    session.drain()
    assert op.status == "aborted"
    assert op.result is ABORT
    assert op.attempts == 10
    assert volume.cluster.env.now < 3000


# -- failover -----------------------------------------------------------------


def crash_then_recover(cluster, pid, at, down_for=60.0):
    def script(env):
        yield env.timeout(at)
        cluster.crash(pid)
        yield env.timeout(down_for)
        cluster.recover(pid)

    cluster.env.process(script(cluster.env))


def test_failover_mid_batch_hides_coordinator_crash():
    volume = open_volume(m=3, n=5, blocks=60, block_size=32, seed=16)
    crash_then_recover(volume.cluster, 2, at=6.0)
    data = payloads_for(volume, 40)
    with volume.session(max_inflight=8, route=2) as session:
        for block, payload in enumerate(data):
            session.submit_write(block, payload)
    assert all(op.ok for op in session.ops), [
        op.status for op in session.ops if not op.ok
    ]
    assert session.stats.failovers > 0
    assert readback(volume, range(40)) == dict(enumerate(data))


def test_failover_disabled_surfaces_crash():
    # max_failovers=0 disables failover: a crash finishes the op.
    volume = open_volume(m=3, n=5, blocks=30, block_size=32, seed=17)
    crash_then_recover(volume.cluster, 3, at=2.0)
    session = volume.session(
        max_inflight=4, route=3, retry=RetryPolicy(max_failovers=0)
    )
    for block in range(10):
        session.submit_write(block, bytes([block + 1]) * 32)
    session.drain()
    statuses = {op.status for op in session.ops}
    assert "crashed" in statuses
    crashed = next(op for op in session.ops if op.status == "crashed")
    with pytest.raises(StorageError, match="failed over 1 times"):
        crashed.result


# -- determinism --------------------------------------------------------------


def test_identical_seeds_give_identical_histories():
    def run():
        volume = open_volume(
            m=3, n=5, blocks=36, block_size=32, seed=19, drop_probability=0.05
        )
        data = payloads_for(volume, 24)
        with volume.session(max_inflight=16, seed=3) as session:
            session.submit_write_range(0, data)
            session.submit_read_range(0, 24)
        return [
            (op.kind, op.status, op.submitted_at, op.finished_at,
             op.coordinator, op.retries)
            for op in session.ops
        ]

    first, second = run(), run()
    assert first == second


def test_session_stats_aggregate_into_metrics():
    volume = open_volume(m=3, n=5, blocks=12, block_size=32, seed=20)
    with volume.session() as session:
        session.submit_write_range(0, payloads_for(volume, 12))
    (stats,) = volume.cluster.metrics.sessions
    assert stats is session.stats


# -- corruption ---------------------------------------------------------------


def flaky_corrupt_spawner(real, failures):
    """Wrap ``_spawn_attempt`` to raise CorruptionDetected N times."""

    def spawn(self, op, pid):
        if failures["left"] > 0:
            failures["left"] -= 1

            def quarantined():
                raise CorruptionDetected(
                    f"p{pid}: register {op.register_id} quarantined"
                )
                yield  # pragma: no cover - makes this a process

            return self.env.process(quarantined())
        return real(self, op, pid)

    return spawn


def test_corruption_detected_is_retryable(monkeypatch):
    # A coordinator that trips over its quarantined local state must
    # not fail the op: the session retries on another brick.
    volume = open_volume(m=3, n=5, blocks=12, block_size=32, seed=21)
    session = volume.session(retry=RetryPolicy(attempts=5, backoff=1.0))
    session.write(0, b"\x09" * 32)

    failures = {"left": 2}
    monkeypatch.setattr(
        VolumeSession, "_spawn_attempt",
        flaky_corrupt_spawner(VolumeSession._spawn_attempt, failures),
    )
    op = session.submit_read(0)
    session.drain()
    assert op.ok
    assert op.result == b"\x09" * 32
    assert op.retries == 2
    assert session.stats.retries >= 2


def test_corruption_detected_exhausts_to_abort(monkeypatch):
    # If every coordinator keeps reporting corruption, the op finishes
    # as a clean abort (retryable classification), never as "failed".
    volume = open_volume(m=3, n=5, blocks=12, block_size=32, seed=22)
    session = volume.session(retry=RetryPolicy(attempts=3, backoff=1.0))

    failures = {"left": 10**9}
    monkeypatch.setattr(
        VolumeSession, "_spawn_attempt",
        flaky_corrupt_spawner(VolumeSession._spawn_attempt, failures),
    )
    op = session.submit_read(0)
    session.drain()
    assert op.status == "aborted"
    assert op.value is ABORT
    assert session.stats.aborts_exhausted == 1
