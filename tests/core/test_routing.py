"""RouteOptions / resolve_route and the ``route=`` parameter."""

import pytest

from repro import LogicalVolume, RouteOptions
from repro.core.routing import DEFAULT_ROUTE, resolve_route
from repro.errors import ConfigurationError, StorageError
from tests.conftest import block_of, make_cluster


def test_route_options_defaults_and_pinning():
    assert RouteOptions() == RouteOptions(coordinator=None, failover=True)
    assert RouteOptions(coordinator=3).coordinator == 3
    with pytest.raises(AttributeError):  # frozen
        RouteOptions().coordinator = 2


def test_resolve_route_forms():
    explicit = RouteOptions(coordinator=4, failover=False)
    assert resolve_route(explicit) is explicit
    assert resolve_route(5) == RouteOptions(coordinator=5)
    assert resolve_route(None) is DEFAULT_ROUTE
    fallback = RouteOptions(coordinator=2)
    assert resolve_route(None, default=fallback) is fallback
    with pytest.raises(ConfigurationError):
        resolve_route("brick-3")


def test_volume_ops_accept_route(cluster):
    volume = LogicalVolume(cluster, num_stripes=4)
    data = block_of(32, 1)
    writer = volume.session(route=RouteOptions(coordinator=2))
    assert writer.write(0, data) == "OK"
    assert writer.ops[0].coordinator == 2
    assert volume.session(route=3).read(0) == data
    assert volume.session(route=3).route == RouteOptions(coordinator=3)


def test_cluster_register_accepts_route(cluster):
    register = cluster.register(0, route=RouteOptions(coordinator=4))
    assert register.coordinator is cluster.coordinator(4)
    assert cluster.register(0, 2).coordinator is cluster.coordinator(2)
    assert cluster.register(0).coordinator is cluster.coordinator(1)


def test_failover_disabled_surfaces_crash_on_sync_ops():
    cluster = make_cluster()
    volume = LogicalVolume(cluster, num_stripes=2)
    volume.session().write(0, block_of(32, 5))

    def crash_soon(env):
        yield env.timeout(1.0)
        cluster.crash(2)

    cluster.env.process(crash_soon(cluster.env))
    pinned = volume.session(route=RouteOptions(coordinator=2, failover=False))
    with pytest.raises(StorageError, match="failover is disabled"):
        pinned.read(0)
    # With failover back on, the same read succeeds elsewhere.
    rerouted = volume.session(route=RouteOptions(coordinator=2))
    assert rerouted.read(0) == block_of(32, 5)
