"""Reconnect lifecycle over real sockets: kill a brick's listener
mid-run, heal through capped-backoff reconnects, and keep the books.

The scenario ISSUE 10 calls the kill-server-mid-run test: a five-brick
cluster on the TCP transport loses one brick's network presence while
a session is writing (no ``set_down`` — the protocol is never told),
keeps completing operations on the surviving ``n - f`` quorum, and
after the listener returns the writer tasks re-adopt it through their
reconnect loops.  The session must finish with every operation OK, the
read-backs must match the last writes, the healed run must stay
linearizable per block (no duplicate-write anomalies from flushed
stale frames), and every frame lost along the way must be a *counted*
drop.
"""

import asyncio

import pytest

from repro.core.session import RetryPolicy
from repro.core.cluster import ClusterConfig, FabCluster
from repro.core.volume import LogicalVolume
from repro.transport import aio
from repro.transport.aio import AsyncioTransport
from repro.verify.linearizability import check_strict_linearizability

#: Outage-tolerant session policy: a coordinator whose replies are
#: blackholed (the brick whose listener died can still *send* but never
#: hears back) sees its phases expire and returns ⊥, and the retries
#: and failover budget move the op to a reachable one.
OUTAGE_RETRY = RetryPolicy(
    attempts=12,
    backoff=4.0,
    max_failovers=64,
)


def _payload(tag: str, block: int, size: int) -> bytes:
    return (f"{tag}b{block}.".encode() * size)[:size]


def test_kill_server_mid_run_heals_via_reconnect(monkeypatch):
    # A faster reconnect loop and health machine than the defaults, so
    # the outage and its healing fit a short test.
    monkeypatch.setattr(aio, "_RECONNECT_BASE_S", 0.02)
    monkeypatch.setattr(aio, "_RECONNECT_CAP_S", 0.1)
    monkeypatch.setattr(aio, "_CONNECT_TIMEOUT_S", 0.5)
    monkeypatch.setattr(aio, "_WRITE_TIMEOUT_S", 0.5)
    monkeypatch.setattr(aio, "_DOWN_AFTER", 2)
    transport = AsyncioTransport(mode="tcp", base_port=7751)
    cluster = FabCluster(
        ClusterConfig(m=3, n=5, block_size=64, transport="asyncio"),
        transport=transport,
    )
    volume = LogicalVolume(cluster, num_stripes=2)
    blocks = volume.num_blocks

    async def drive():
        try:
            await transport.start()
        except OSError as error:  # pragma: no cover - sandboxed envs
            pytest.skip(f"cannot bind TCP ports: {error}")
        values = {}
        try:
            session = volume.session(
                max_inflight=2, seed=3, retry=OUTAGE_RETRY
            )
            # Healthy warm-up: every block holds a known value.
            for block in range(blocks):
                value = _payload("warm", block, volume.block_size)
                session.submit_write(block, value)
                values[block] = value
            await session.drain_async()

            # Brick 2's network presence dies mid-run.  Quorum is
            # n - f = 4, so the four reachable bricks keep absorbing
            # writes while frames to brick 2 pile into its outbox.
            await transport.stop_server(2)
            for block in range(blocks):
                value = _payload("outage", block, volume.block_size)
                session.submit_write(block, value)
                values[block] = value
            await session.drain_async()

            # The listener returns; reconnect loops re-adopt it.
            await transport.start_server(2)
            reads = [session.submit_read(block) for block in range(blocks)]
            await session.drain_async()

            # The read round sent frames to brick 2, so its writer task
            # reconnects within the 0.1 s backoff cap; wait for the
            # health machine to confirm rather than racing it.
            for _ in range(100):
                if transport.peer_state(2) == "up":
                    break
                await asyncio.sleep(0.05)
            return session, reads, values
        finally:
            await transport.stop()

    session, reads, values = asyncio.run(drive())

    # Every operation completed despite the outage window.
    assert all(op.ok for op in session.ops)
    for block, op in enumerate(reads):
        assert op.value == values[block]

    # The brick was resurrected through the backoff loop, and the
    # health machine saw the full down/up excursion.
    assert transport.reconnects >= 1
    assert transport.peer_state(2) == "up"
    assert transport.peer_transitions >= 2

    # No duplicate-write anomalies: stale frames flushed after the
    # reconnect are absorbed by the replica reply cache and timestamp
    # order, so each block's history stays strictly linearizable.
    per_block = {}
    for record in session.history():
        if record.block_index is not None:
            key = (record.register_id, record.block_index)
            per_block.setdefault(key, []).append(record)
    assert len(per_block) == blocks
    for records in per_block.values():
        assert check_strict_linearizability(records).ok

    # Honest books: every frame lost to the dead connection or shed
    # from a bounded outbox landed in both drop ledgers.
    assert cluster.metrics.dropped_messages == sum(
        transport.outbox_drops.values()
    )


def test_stop_server_without_traffic_is_clean():
    """Stopping and restarting a listener with no in-flight workload
    neither counts drops nor wedges the transport."""
    transport = AsyncioTransport(mode="tcp", base_port=7761)
    cluster = FabCluster(
        ClusterConfig(m=3, n=5, block_size=64, transport="asyncio"),
        transport=transport,
    )
    volume = LogicalVolume(cluster, num_stripes=1)

    async def drive():
        try:
            await transport.start()
        except OSError as error:  # pragma: no cover - sandboxed envs
            pytest.skip(f"cannot bind TCP ports: {error}")
        try:
            await transport.stop_server(4)
            await transport.stop_server(4)  # idempotent
            await transport.start_server(4)
            session = volume.session(max_inflight=1, seed=1)
            data = b"q" * volume.block_size
            session.submit_write(0, data)
            read = session.submit_read(0)
            await session.drain_async()
            return read, data
        finally:
            await transport.stop()

    read, data = asyncio.run(drive())
    assert read.ok and read.value == data
