"""Finished operations leave no reference cycles behind.

A closed-loop client with many operations in flight promotes whatever
an in-flight op keeps alive into the older GC generations; if that
garbage is cyclic, full collections have to find it and their cost
grows with the live heap.  Reference counting alone must free an op's
quorum phases, timers, messages and session record once it ends, so
``gc.collect()`` after the run finds nothing: on the simulator (healthy
and degraded) and on the asyncio loopback transport, also when more ops
than a brick admits at once wait for it.
"""

import asyncio
import contextlib
import gc
import random

from repro import api
from repro.core.cluster import ClusterConfig, FabCluster
from repro.core.volume import LogicalVolume
from repro.transport.aio import AsyncioTransport

OPS = 200


@contextlib.contextmanager
def collector_off():
    """Start from an empty collector and free only by reference counting."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _submit_mix(session, rng, num_blocks, block_size):
    for _ in range(OPS):
        block = rng.randrange(num_blocks)
        if rng.random() < 0.5:
            session.submit_write(block, rng.randbytes(block_size))
        else:
            session.submit_read(block)


def _run_sim(volume, rng) -> None:
    session = volume.session(max_inflight=8)
    _submit_mix(session, rng, volume.num_blocks, volume.block_size)
    assert all(op.ok for op in session.drain())
    volume.cluster.crash(1)
    session = volume.session(max_inflight=8)
    # Unit 1 of every stripe lived on brick 1: each read recovers it.
    for block in range(0, volume.num_blocks, volume.m):
        session.submit_read(block)
    ops = session.drain()
    assert ops and all(op.ok for op in ops)


def _submit_deep(volume, rng):
    """More ops at once than one brick admits: some wait at its gate."""
    session = volume.session(max_inflight=32, route=1)
    _submit_mix(session, rng, volume.num_blocks, volume.block_size)
    return session


def test_sim_ops_leave_no_cycles():
    volume = api.open_volume(
        m=4, n=8, block_size=64, stripes=16, stripe_shuffle=False, seed=3
    )
    with collector_off():
        _run_sim(volume, random.Random(11))
        assert gc.collect() == 0


def test_sim_queued_ops_leave_no_cycles():
    volume = api.open_volume(m=3, n=5, block_size=64, stripes=16, seed=4)
    with collector_off():
        session = _submit_deep(volume, random.Random(17))
        ops = session.drain()
        assert session.stats.peak_inflight > 8
        assert all(op.ok and op.coordinator == 1 for op in ops)
        assert gc.collect() == 0


async def _run_loopback(volume, rng) -> None:
    session = volume.session(max_inflight=8)
    _submit_mix(session, rng, volume.num_blocks, volume.block_size)
    ops = await session.drain_async()
    assert len(ops) == OPS and all(op.ok for op in ops)


def _loopback_volume(seed):
    transport = AsyncioTransport(mode="loopback")
    cluster = FabCluster(
        ClusterConfig(m=3, n=5, block_size=64, transport="asyncio", seed=seed),
        transport=transport,
    )
    return transport, LogicalVolume(cluster, num_stripes=16)


def test_loopback_ops_leave_no_cycles():
    transport, volume = _loopback_volume(5)

    async def drive():
        await transport.start()
        try:
            with collector_off():
                await _run_loopback(volume, random.Random(13))
                return gc.collect()
        finally:
            await transport.stop()

    assert asyncio.run(drive()) == 0


def test_loopback_queued_ops_leave_no_cycles():
    transport, volume = _loopback_volume(6)

    async def drive():
        await transport.start()
        try:
            with collector_off():
                session = _submit_deep(volume, random.Random(19))
                ops = await session.drain_async()
                assert session.stats.peak_inflight > 8
                assert all(op.ok and op.coordinator == 1 for op in ops)
                return gc.collect()
        finally:
            await transport.stop()

    assert asyncio.run(drive()) == 0
