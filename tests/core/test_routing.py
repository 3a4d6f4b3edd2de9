"""The ``route=`` parameter: a coordinator pid, or ``None``."""

import pytest

from repro import LogicalVolume, RetryPolicy
from repro.errors import StorageError
from tests.conftest import block_of, make_cluster


def test_volume_ops_accept_route(cluster):
    volume = LogicalVolume(cluster, num_stripes=4)
    data = block_of(32, 1)
    writer = volume.session(route=2)
    assert writer.write(0, data) == "OK"
    assert writer.ops[0].coordinator == 2
    assert volume.session(route=3).read(0) == data
    assert volume.session(route=3).route == 3


def test_cluster_register_accepts_route(cluster):
    register = cluster.register(0, route=4)
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
    # max_failovers=0 disables failover: the crash surfaces.
    pinned = volume.session(route=2, retry=RetryPolicy(max_failovers=0))
    with pytest.raises(StorageError, match="failed over 1 times"):
        pinned.read(0)
    # With failover back on, the same read succeeds elsewhere.
    rerouted = volume.session(route=2)
    assert rerouted.read(0) == block_of(32, 5)
