"""SimTransport, the make_transport factory, and Endpoint plumbing."""

import pytest

from repro import api
from repro.errors import ConfigurationError, StorageError
from repro.sim.network import NetworkConfig
from repro.transport import (
    SimTransport,
    Transport,
    TRANSPORT_KINDS,
    make_transport,
)
from repro.transport.base import Endpoint


def test_factory_default_is_sim():
    transport = make_transport()
    assert isinstance(transport, SimTransport)
    assert isinstance(transport, Transport)
    assert transport.env is not None
    assert transport.config == NetworkConfig()


def test_factory_unknown_kind_lists_valid_kinds():
    with pytest.raises(ConfigurationError) as excinfo:
        make_transport("zeromq")
    for kind in TRANSPORT_KINDS:
        assert kind in str(excinfo.value)


def test_factory_rejects_network_knobs_for_asyncio():
    with pytest.raises(ConfigurationError, match="transport='sim'"):
        make_transport("asyncio", network_config=NetworkConfig())


def test_factory_builds_asyncio_kinds():
    from repro.transport.aio import AsyncioTransport

    loopback = make_transport("asyncio")
    assert isinstance(loopback, AsyncioTransport)
    assert loopback.mode == "loopback"
    tcp = make_transport("asyncio-tcp")
    assert tcp.mode == "tcp"


def test_set_timer_fires_and_cancel_suppresses():
    transport = make_transport()
    fired = []
    transport.set_timer(5.0, lambda: fired.append(transport.now()))
    doomed = transport.set_timer(3.0, lambda: fired.append("cancelled"))
    transport.cancel_timer(doomed)
    transport.run(until=10.0)
    assert fired == [5.0]
    assert transport.now() == 10.0


def test_spawn_runs_a_generator_to_completion():
    transport = make_transport()

    def ticker():
        yield transport.timer(2.0)
        return transport.now()

    process = transport.spawn(ticker())
    assert transport.run_until_complete(process) == 2.0


def test_endpoints_exchange_messages_and_respect_down():
    transport = make_transport()
    received = []
    a = Endpoint(transport, 1)
    b = Endpoint(transport, 2)
    b.register_handler(str, lambda src, payload: received.append((src, payload)))
    a.send(2, "hello")
    transport.run(until=50.0)
    assert received == [(1, "hello")]

    b.crash()
    a.send(2, "lost")
    transport.run(until=100.0)
    assert received == [(1, "hello")]
    with pytest.raises(StorageError, match="down"):
        b.spawn(iter(()))
    b.recover()
    assert b.is_up and b.crash_count == 1


def test_open_cluster_sim_is_the_default_path():
    cluster = api.open_cluster(m=3, n=5, transport="sim")
    assert isinstance(cluster.transport, SimTransport)
    session = api.open_volume(cluster, blocks=3).session()
    data = b"t" * cluster.config.block_size
    assert session.write(0, data) == "OK"
    assert session.read(0) == data


def test_open_cluster_asyncio_refuses_sync_run():
    from repro.errors import SimulationError

    cluster = api.open_cluster(m=3, n=5, transport="asyncio")
    with pytest.raises(SimulationError, match="serve"):
        cluster.run(until=1.0)


def test_unknown_transport_knob_error_mentions_transport():
    with pytest.raises(ConfigurationError, match="transport"):
        api.open_cluster(transporte="sim")


def _partition_losses(transport):
    """The (src, dst) pairs ``transport`` loses under two partitions,
    one endpoint joining only after both were installed."""
    delivered = set()

    def deliver(message):
        delivered.add((message.src, message.dst))

    for pid in (1, 2, 3, 4):
        transport.register(pid, deliver)
    transport.partition({1, 2})
    transport.partition({2, 3})
    transport.register(5, deliver)
    pairs = {(src, dst) for src in range(1, 6) for dst in range(1, 6)}
    for src, dst in sorted(pairs):
        transport.send(src, dst, "x")
    transport.env.run()  # on asyncio: the pump's queue, before start()
    return pairs - delivered


def test_partition_drops_the_same_pairs_on_both_substrates():
    from repro.transport.aio import AsyncioTransport

    sim = _partition_losses(SimTransport())
    loopback = _partition_losses(AsyncioTransport())
    assert sim == loopback
    # Everything crossing a cut is lost, the late endpoint 5 included;
    # only self-sends and the pair outside both groups get through.
    assert len(sim) == 25 - 7
    assert {(1, 5), (5, 1), (1, 2), (3, 4)} <= sim
    assert (4, 5) not in sim and (5, 4) not in sim
