"""AsyncioTransport end-to-end: loopback serve, TCP framing, drain_async."""

import asyncio
import json

import pytest

from repro import api
from repro.analysis.serve import run_serve
from repro.core.messages import GcReq
from repro.errors import ConfigurationError, SimulationError
from repro.timestamps import LOW_TS


async def _settle(predicate):
    for _ in range(300):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached in 3 s")


def test_loopback_serve_end_to_end():
    """A small serve run completes with zero failed sessions and a
    JSON-serializable verdict."""
    result = run_serve(clients=8, ops_per_client=4, mode="loopback")
    assert result["failed_sessions"] == 0
    assert result["failed_ops"] == 0
    assert result["total_ops"] == 8 * 4
    assert result["chaos"]["enabled"] is False
    assert json.loads(json.dumps(result)) == result


def test_tcp_serve_smoke():
    """The same protocol over real sockets (skipped if the port range
    is unavailable in the environment)."""
    try:
        result = run_serve(
            clients=3, ops_per_client=2, mode="tcp", base_port=7711
        )
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip(f"cannot bind TCP ports: {error}")
    assert result["failed_sessions"] == 0
    assert result["mode"] == "tcp"


def test_serve_partition_plan_acts_on_live_traffic():
    """``partition=`` is a two-event plan; the run holds its clients
    (re-reading their blocks) until the heal, however fast the
    workload itself finishes."""
    result = run_serve(clients=3, ops_per_client=2, partition=(5.0, 60.0, (2,)))
    chaos = result["chaos"]
    assert result["failed_sessions"] == 0 and chaos["linearizable"]
    assert chaos["partition_dropped"] > 0
    assert result["wall_seconds"] >= 0.05  # held open until the heal
    assert [e["kind"] for e in chaos["plan"]["events"]] == ["partition", "heal"]


def test_serve_validates_inputs():
    with pytest.raises(ConfigurationError, match="clients"):
        run_serve(clients=0)
    with pytest.raises(ConfigurationError, match="ops per client"):
        run_serve(ops_per_client=0)


@pytest.mark.parametrize("base_port", [0, 65532, 70000])
def test_tcp_ports_out_of_range_are_refused_before_binding(base_port):
    """Port 0 would bind an ephemeral, unreachable port; 65532 + 4 and
    70000 overflow the port space.  Each is a configuration error, and
    no brick's socket is opened."""
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport(mode="tcp", base_port=base_port)
    for pid in range(1, 6):
        transport.register(pid, lambda message: None)
    with pytest.raises(ConfigurationError, match="base_port"):
        asyncio.run(transport.start())
    assert transport._servers == {}


def test_asyncio_cluster_rejects_sync_register_driving():
    cluster = api.open_cluster(m=3, n=5, transport="asyncio")
    register = cluster.register(0)
    with pytest.raises(SimulationError, match="synchronously"):
        register.read_stripe()


def test_drain_async_works_on_sim_transport():
    """drain_async is substrate-agnostic: on the sim transport it steps
    the kernel synchronously inside the event loop."""
    volume = api.open_volume(m=3, n=5, blocks=6)
    data = b"d" * volume.block_size

    async def drive():
        session = volume.session(max_inflight=4)
        session.submit_write(0, data)
        session.submit_read(0)
        return await session.drain_async()

    ops = asyncio.run(drive())
    assert [op.ok for op in ops] == [True, True]
    assert ops[1].value == data


def test_outbox_overflow_and_unregister_account_drops(monkeypatch):
    """An unreachable peer's outbox is bounded: overflow is shed as
    counted drops, and unregister reaps the backlog and health state."""
    from repro.transport import aio

    monkeypatch.setattr(aio, "_OUTBOX_LIMIT", 4)
    monkeypatch.setattr(aio, "_RECONNECT_BASE_S", 0.01)
    monkeypatch.setattr(aio, "_RECONNECT_CAP_S", 0.02)
    monkeypatch.setattr(aio, "_CONNECT_TIMEOUT_S", 0.2)
    monkeypatch.setattr(aio, "_DOWN_AFTER", 2)
    transport = aio.AsyncioTransport(mode="tcp", base_port=7771)
    transport.register(1, lambda message: None)

    async def drive():
        try:
            await transport.start()
        except OSError as error:  # pragma: no cover - sandboxed envs
            pytest.skip(f"cannot bind TCP ports: {error}")
        try:
            # Peer 9 has no listener: its writer task can never connect.
            for index in range(10):
                transport.send(1, 9, GcReq(0, index, ts=LOW_TS), size=8)
            # 4 frames queue, 6 overflow the bounded outbox.
            assert transport.outbox_drops[9] == 6
            # Repeated refused connects walk the health machine down.
            for _ in range(100):
                if transport.peer_state(9) == "down":
                    break
                await asyncio.sleep(0.02)
            assert transport.peer_state(9) == "down"
            # Unregister drains the queued backlog as counted drops and
            # forgets the peer's health record.
            transport.unregister(9)
            assert transport.outbox_drops[9] == 10
            assert transport.peer_state(9) == "up"
        finally:
            await transport.stop()

    asyncio.run(drive())


def test_garbage_on_a_brick_port_is_a_counted_drop():
    """Bytes that are no frame cost the sender its connection and the
    books one drop; the brick keeps serving everyone else, and nothing
    escapes as an unretrieved task exception."""
    import random

    from repro.core.cluster import ClusterConfig, FabCluster
    from repro.core.volume import LogicalVolume
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport(mode="tcp", base_port=7791)
    cluster = FabCluster(
        ClusterConfig(m=3, n=5, block_size=64, transport="asyncio"),
        transport=transport,
    )
    volume = LogicalVolume(cluster, num_stripes=1)
    loop_errors = []

    async def vandalize(port, junk):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(junk)
        await writer.drain()
        # The brick hangs up on us rather than waiting for more.
        assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
        writer.close()

    async def drive():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: loop_errors.append(context)
        )
        try:
            await transport.start()
        except OSError as error:  # pragma: no cover - sandboxed envs
            pytest.skip(f"cannot bind TCP ports: {error}")
        try:
            noise = random.Random(5).randbytes(512)
            # A plausible length, then a body that decodes to nothing.
            await vandalize(7791, b"\x00\x00\x00\x40" + noise)
            # A length beyond the frame bound.
            await vandalize(7792, b"\xff\xff\xff\xff" + noise)
            drops = cluster.metrics.dropped_messages
            session = volume.session(max_inflight=1)
            data = bytes(range(64))
            session.submit_write(0, data)
            session.submit_read(0)
            return drops, data, await session.drain_async()
        finally:
            await transport.stop()

    drops, data, ops = asyncio.run(drive())
    assert drops == 2
    assert [op.ok for op in ops] == [True, True]
    assert ops[1].value == data
    assert loop_errors == []


def test_pump_death_surfaces_instead_of_hanging():
    """Once the pump dies, send/set_timer/stop raise the failure as a
    TerminalTransportError rather than silently queueing work that no
    pump will ever dispatch."""
    from repro.errors import TerminalTransportError
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport(mode="loopback")
    transport.register(1, lambda message: None)

    async def drive():
        await transport.start()
        transport.set_timer(0.001, _boom)
        for _ in range(100):
            if transport._pump_error is not None:
                break
            await asyncio.sleep(0.01)
        with pytest.raises(TerminalTransportError, match="pump died"):
            transport.send(1, 1, "late")
        with pytest.raises(TerminalTransportError, match="pump died"):
            transport.set_timer(1.0, lambda: None)
        # SimulationError compatibility: protocol code catching the
        # old taxonomy still sees the terminal failure.
        with pytest.raises(SimulationError):
            transport.send(1, 1, "late")
        with pytest.raises(TerminalTransportError, match="pump died"):
            await transport.stop()

    asyncio.run(drive())


def _boom() -> None:
    raise RuntimeError("injected pump failure")


def _stalled_session():
    """A loopback cluster (not yet started) on which no op can finish:
    two of five bricks are down, one short of a quorum."""
    from repro.core.cluster import ClusterConfig, FabCluster
    from repro.core.volume import LogicalVolume
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport(mode="loopback")
    cluster = FabCluster(
        ClusterConfig(m=3, n=5, block_size=64, transport="asyncio"),
        transport=transport,
    )
    cluster.crash(1)
    cluster.crash(2)
    session = LogicalVolume(cluster, num_stripes=1).session(max_inflight=1)
    return transport, session


def test_pump_death_wakes_a_blocked_drain_promptly():
    """A task parked in ``drain_async`` gets the pump's own exception
    within 50 ms of the pump dying, not at its next poll."""
    import time

    from repro.errors import TerminalTransportError

    transport, session = _stalled_session()
    died_at = []

    def boom() -> None:
        died_at.append(time.monotonic())
        _boom()

    async def drive():
        await transport.start()
        session.submit_read(0)
        drain = asyncio.ensure_future(session.drain_async())
        await asyncio.sleep(0.02)
        assert not drain.done()
        transport.set_timer(1.0, boom)
        with pytest.raises(RuntimeError, match="injected pump failure"):
            await asyncio.wait_for(drain, timeout=2.0)
        woke_at = time.monotonic()
        with pytest.raises(TerminalTransportError, match="pump died"):
            await transport.stop()
        return woke_at - died_at[0]

    assert asyncio.run(drive()) < 0.05


def test_stop_fails_a_pending_waiter():
    """``stop()`` raises TerminalTransportError in every pending
    ``wait_for`` at once."""
    from repro.errors import TerminalTransportError

    transport, session = _stalled_session()

    async def drive():
        await transport.start()
        session.submit_read(0)
        drain = asyncio.ensure_future(session.drain_async())
        await asyncio.sleep(0.02)
        await transport.stop()
        with pytest.raises(TerminalTransportError, match="stopped while waiting"):
            await asyncio.wait_for(drain, timeout=0.05)

    asyncio.run(drive())


def test_cancelled_waiter_is_skipped_when_its_event_fires():
    """Cancelling a task inside ``wait_for`` and then letting the event
    fire neither kills the pump nor reaches the loop's exception
    handler (no InvalidStateError from resolving a cancelled future)."""
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport(mode="loopback")
    loop_errors = []

    async def drive():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: loop_errors.append(context)
        )
        await transport.start()
        timer = transport.timer(20.0)
        waiting = asyncio.ensure_future(transport.wait_for(timer))
        await asyncio.sleep(0.005)
        waiting.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiting
        await asyncio.sleep(0.05)
        assert timer.triggered
        assert transport._pump_error is None
        await transport.stop()

    asyncio.run(drive())
    assert loop_errors == []


def test_timer_handles_cancel_before_start():
    """Timers armed before start() fire once the pump runs; cancelled
    ones never do."""
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport(mode="loopback")
    fired = []

    async def drive():
        await transport.start()
        transport.set_timer(1.0, lambda: fired.append("kept"))
        doomed = transport.set_timer(1.0, lambda: fired.append("cancelled"))
        transport.cancel_timer(doomed)
        await asyncio.sleep(0.05)
        await transport.stop()

    asyncio.run(drive())
    assert fired == ["kept"]


def test_pump_keeps_a_single_handle_and_sleeps_when_idle():
    """A handler that sends during a batch and then arms a timer leaves
    one pump handle, not one per kick: over the idle window the pump
    runs once for the batch and once for the timer, and never while
    nothing is due."""
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport()
    fired = []

    def handler(message):
        if message.payload == "go":
            for _ in range(10):
                transport.send(2, 1, "echo")
            transport.set_timer(40.0, lambda: fired.append(True))

    transport.register(1, lambda message: None)
    transport.register(2, handler)
    runs = []
    live_counts = []  # live pump handles, sampled at each scheduling
    handles = []

    async def drive():
        loop = asyncio.get_running_loop()
        await transport.start()
        run_due = transport._run_due

        def counted_run_due():
            runs.append(loop.time())
            # The handle running now is the only one that may be live.
            live_counts.append(sum(not h.cancelled() for h in handles))
            handles.clear()
            run_due()

        transport._run_due = counted_run_due

        def tracked(schedule):
            def wrapper(*args, **kwargs):
                handle = schedule(*args, **kwargs)
                if args[-1] is counted_run_due:
                    handles.append(handle)
                    live_counts.append(
                        sum(not h.cancelled() for h in handles)
                    )
                return handle
            return wrapper

        loop.call_soon = tracked(loop.call_soon)
        loop.call_later = tracked(loop.call_later)
        try:
            transport.send(1, 2, "go")
            await asyncio.sleep(0.15)
            settled = len(runs)
            await asyncio.sleep(0.1)  # nothing queued: no wake at all
            return settled
        finally:
            del loop.call_soon, loop.call_later
            await transport.stop()

    settled = asyncio.run(drive())
    assert fired == [True]
    # The batch, then the timer (a timer handle may fire a hair early
    # and re-arm once) — not one wake per send.
    assert 2 <= settled <= 4
    assert len(runs) == settled
    assert max(live_counts) == 1


def test_tcp_link_batches_an_iteration_and_keeps_send_order(monkeypatch):
    """Frames sent to one peer within one loop iteration leave in one
    ``write``; frames queued while the peer's listener is down arrive,
    in send order, once it is back."""
    from repro.transport import aio

    monkeypatch.setattr(aio, "_RECONNECT_BASE_S", 0.01)
    monkeypatch.setattr(aio, "_RECONNECT_CAP_S", 0.02)
    transport = aio.AsyncioTransport(mode="tcp", base_port=7801)
    received = []
    transport.register(1, lambda message: None)
    transport.register(2, lambda message: received.append(message.payload))

    async def drive():
        try:
            await transport.start()
        except OSError as error:  # pragma: no cover - sandboxed envs
            pytest.skip(f"cannot bind TCP ports: {error}")
        try:
            hello = GcReq(0, 0, ts=LOW_TS)
            transport.send(1, 2, hello)  # opens the link
            await _settle(lambda: received == [hello])
            conn = transport._links[2].conn
            writes = []
            write = conn.write
            conn.write = lambda data: (writes.append(data), write(data))
            batch = [GcReq(1, index, ts=LOW_TS) for index in range(20)]
            for payload in batch:
                transport.send(1, 2, payload)
            await _settle(lambda: len(received) == 1 + len(batch))
            assert len(writes) == 1
            assert received[1:] == batch

            await transport.stop_server(2)
            await _settle(lambda: 2 not in transport._links)
            late = [GcReq(2, index, ts=LOW_TS) for index in range(10)]
            for payload in late:
                transport.send(1, 2, payload)
                await asyncio.sleep(0)
            await transport.start_server(2)
            await _settle(lambda: len(received) == 1 + len(batch) + len(late))
            assert received[1 + len(batch):] == late
            assert transport.outbox_drops == {}
        finally:
            await transport.stop()

    asyncio.run(drive())


# -- the inbox: one delivery event per pump step ----------------------------


def _inbox_transport(*pids, **kwargs):
    """A loopback transport whose endpoints append every message they
    receive to one shared list."""
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport(**kwargs)
    received = []
    for pid in pids:
        transport.register(pid, received.append)
    return transport, received


def test_sends_from_one_step_share_one_inbox_in_send_order():
    """k loopback sends (self-sends included) made in one step add one
    heap entry, not k, and arrive in global send order."""
    transport, received = _inbox_transport(1, 2, 3)
    env = transport.env

    async def drive():
        await transport.start()
        try:
            pushes, queued = env.events_scheduled, len(env._queue)
            for index in range(12):
                transport.send(1 + index % 3, 1 + index % 2, index)
            assert env.events_scheduled == pushes + 1
            assert len(env._queue) == queued + 1
            assert len(transport._inbox.messages) == 12
            await _settle(lambda: len(received) == 12)
        finally:
            await transport.stop()

    asyncio.run(drive())
    assert [message.payload for message in received] == list(range(12))


class _Conn:
    """The little of an asyncio transport that a frame reader touches."""

    def close(self) -> None:
        pass


def test_frames_of_one_read_chunk_share_one_inbox():
    """Every frame that one ``data_received`` chunk completes joins one
    inbox, in frame order."""
    from repro.transport import aio, wire

    transport, received = _inbox_transport(1, 2)
    env = transport.env
    reader = aio._FrameReader(transport)
    reader.connection_made(_Conn())
    frames = [GcReq(1, index, ts=LOW_TS) for index in range(5)]
    pushes = env.events_scheduled
    reader.data_received(
        b"".join(wire.encode_frame(1, 2, frame, 8) for frame in frames)
    )
    assert env.events_scheduled == pushes + 1

    async def drive():
        await transport.start()
        try:
            await _settle(lambda: len(received) == len(frames))
        finally:
            await transport.stop()

    asyncio.run(drive())
    assert [message.payload for message in received] == frames


def test_a_send_made_while_an_inbox_delivers_opens_a_new_one():
    """The firing inbox is detached before its first delivery: a
    handler's send opens a fresh inbox, and the rest of the firing one
    is still delivered first."""
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport()
    order = []
    pending_at_handler = []
    opened = []

    def handler(message):
        order.append(message.payload)
        if message.payload == "go":
            pending_at_handler.append(transport._inbox)
            transport.send(2, 1, "echo")
            opened.append(transport._inbox)

    transport.register(1, handler)
    transport.register(2, handler)

    async def drive():
        await transport.start()
        try:
            transport.send(1, 2, "go")
            transport.send(1, 2, "after")
            first = transport._inbox
            await _settle(lambda: len(order) == 3)
            return first
        finally:
            await transport.stop()

    first = asyncio.run(drive())
    assert order == ["go", "after", "echo"]
    assert pending_at_handler == [None]
    assert opened[0] is not first
    assert [message.payload for message in opened[0].messages] == ["echo"]
    assert [message.payload for message in first.messages] == ["go", "after"]


def test_crash_marker_or_cut_set_before_the_inbox_fires_drops_those():
    """A crash marker or a cut that appears after the send but before
    the inbox fires drops exactly the messages it separates, and each
    drop is counted."""
    from repro.sim.monitor import Metrics

    metrics = Metrics()
    transport, received = _inbox_transport(1, 2, 3, 4, metrics=metrics)

    async def drive():
        await transport.start()
        try:
            transport.send(1, 2, "to the crashed brick")
            transport.send(1, 3, "across the cut")
            transport.send(1, 4, "kept")
            transport.send(4, 1, "kept back")
            transport.set_down(2, True)
            transport.partition([3])
            await _settle(lambda: transport._inbox is None and received)
        finally:
            await transport.stop()

    asyncio.run(drive())
    assert [message.payload for message in received] == ["kept", "kept back"]
    assert metrics.total_messages == 4
    assert metrics.dropped_messages == 2
    assert transport.stats.partition_dropped == 1


def test_a_chaos_duplicate_is_delivered_twice():
    from repro.sim.monitor import Metrics
    from repro.transport.chaos import ChaosPolicy, LinkChaos

    metrics = Metrics()
    transport, received = _inbox_transport(1, 2, metrics=metrics)
    transport.set_chaos(ChaosPolicy(seed=0, default=LinkChaos(duplicate=0.99)))

    async def drive():
        await transport.start()
        try:
            transport.send(1, 2, "twice")
            assert len(transport._inbox.messages) == 2
            await _settle(lambda: len(received) == 2)
            await asyncio.sleep(0.02)
        finally:
            await transport.stop()

    asyncio.run(drive())
    assert [message.payload for message in received] == ["twice", "twice"]
    assert transport.stats.duplicated == 1
    assert metrics.total_messages == 2


@pytest.mark.parametrize("timer_delay", [8.0, 1e6])
def test_the_inbox_is_stamped_at_the_kernel_clock(timer_delay):
    """With the wall clock a minute ahead and an armed timer at the
    queue head, injecting leaves ``env.now`` where it is and queues the
    inbox at it: the replies it carries are delivered before the timer
    fires.  (Stamped at the wall-advanced clock, the inbox would sit at
    the timer's instant, behind it, and a retransmit timer would fire
    although its replies were queued.)"""
    from repro.transport.aio import AsyncioTransport

    transport = AsyncioTransport()
    order = []
    transport.register(1, lambda message: order.append(message.payload))
    transport.register(2, lambda message: order.append(message.payload))
    env = transport.env

    async def drive():
        await transport.start()
        try:
            transport.set_timer(timer_delay, lambda: order.append("timer"))
            transport._origin -= 60.0  # the wall clock runs 60 s ahead
            before = env.now
            assert transport._wall_units() > before + 50_000
            transport.send(1, 2, "reply")
            transport.send(2, 1, "another")
            assert env.now == before
            assert env._queue[0] == (before, env._queue[0][1], transport._inbox)
            await _settle(lambda: len(order) >= 2)
            if timer_delay < 1e3:
                await _settle(lambda: "timer" in order)
        finally:
            await transport.stop()

    asyncio.run(drive())
    assert order[:2] == ["reply", "another"]


def test_now_reads_the_wall_clock_once_and_never_runs_backwards():
    """Each ``now()`` reads the wall clock once; across pump cycles,
    sends and timers it never decreases and never lags ``env.now``."""
    transport, _received = _inbox_transport(1, 2)
    reads = []
    wall_units = transport._wall_units

    def counted_wall_units():
        reads.append(None)
        return wall_units()

    transport._wall_units = counted_wall_units
    samples = []

    async def drive():
        await transport.start()
        try:
            for index in range(200):
                if index % 10 == 0:
                    transport.send(1, 2, index)
                    transport.set_timer(0.5, lambda: None)
                reads.clear()
                now = transport.now()
                assert len(reads) == 1
                samples.append((now, transport.env.now))
                await asyncio.sleep(0 if index % 3 else 0.001)
        finally:
            await transport.stop()

    asyncio.run(drive())
    times = [now for now, _env_now in samples]
    assert times == sorted(times)
    assert all(now >= env_now for now, env_now in samples)
