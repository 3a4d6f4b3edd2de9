"""The repro.api facade: one-call cluster/volume construction."""

import pytest

import repro
from repro import open_cluster, open_volume
from repro.api import _split_knobs
from repro.errors import ConfigurationError


def test_three_line_roundtrip():
    session = open_volume(m=3, n=5, blocks=48, block_size=64).session()
    session.write(0, b"x" * 64)
    assert session.read(0) == b"x" * 64


def test_open_cluster_defaults():
    cluster = open_cluster()
    assert cluster.config.m == 3
    assert cluster.config.n == 5


def test_knobs_route_to_the_right_config():
    cluster = open_cluster(
        5, 8,
        block_size=256,          # ClusterConfig
        seed=9,                  # ClusterConfig
        min_latency=0.5,         # NetworkConfig
        max_latency=2.0,         # NetworkConfig
        gc_enabled=False,        # CoordinatorConfig
    )
    assert cluster.config.m == 5 and cluster.config.n == 8
    assert cluster.config.block_size == 256
    assert cluster.config.seed == 9
    assert cluster.transport.config.min_latency == 0.5
    assert cluster.transport.config.max_latency == 2.0
    assert cluster.config.coordinator.gc_enabled is False


def test_jitter_seed_defaults_to_cluster_seed():
    assert open_cluster(seed=7).transport.config.jitter_seed == 7
    assert open_cluster(seed=7, jitter_seed=3).transport.config.jitter_seed == 3


def test_unknown_knob_fails_loudly():
    with pytest.raises(ConfigurationError, match="blok_size"):
        open_cluster(block_size=64, blok_size=64)
    with pytest.raises(ConfigurationError, match="valid knobs"):
        open_volume(m=3, n=5, not_a_knob=1)
    # Retired knobs are unknown like any other name.
    for removed in (
        "store_mode", "persistence", "delivery_sweeps", "erasure_backend",
        "disk_read_latency", "disk_write_latency", "duplicate_probability",
        "retransmit_interval", "grace", "drop_probability",
    ):
        with pytest.raises(ConfigurationError, match=removed):
            open_cluster(**{removed: "anything"})


def test_split_knobs_routes_every_field_uniquely():
    cluster_kw, network_kw, coordinator_kw = _split_knobs(
        {"block_size": 1, "max_latency": 0.1, "gc_enabled": True}
    )
    assert cluster_kw == {"block_size": 1}
    assert network_kw == {"max_latency": 0.1}
    assert coordinator_kw == {"gc_enabled": True}


def test_blocks_round_up_to_whole_stripes():
    volume = open_volume(m=3, n=5, blocks=10)
    assert volume.num_stripes == 4          # ceil(10 / 3)
    assert volume.num_blocks == 12          # whole stripes
    assert open_volume(m=3, n=5, blocks=12).num_stripes == 4


def test_stripes_taken_verbatim_and_default():
    assert open_volume(m=3, n=5, stripes=7).num_stripes == 7
    assert open_volume(m=3, n=5).num_stripes == 16


def test_blocks_and_stripes_are_exclusive():
    with pytest.raises(ConfigurationError, match="either blocks= or stripes="):
        open_volume(m=3, n=5, blocks=6, stripes=2)
    with pytest.raises(ConfigurationError):
        open_volume(m=3, n=5, blocks=0)


def test_existing_cluster_is_reused():
    cluster = open_cluster(3, 5, block_size=64)
    a = open_volume(cluster, stripes=4)
    b = open_volume(cluster, stripes=4, base_register_id=100)
    assert a.cluster is b.cluster is cluster
    a_io, b_io = a.session(), b.session()
    a_io.write(0, b"a" * 64)
    b_io.write(0, b"b" * 64)
    assert a_io.read(0) == b"a" * 64
    assert b_io.read(0) == b"b" * 64


def test_cluster_knobs_rejected_with_existing_cluster():
    cluster = open_cluster()
    with pytest.raises(ConfigurationError, match="open_cluster"):
        open_volume(cluster, blocks=6, block_size=64)


def test_facade_reexported_at_package_root():
    assert repro.open_cluster is open_cluster
    assert repro.open_volume is open_volume
    for name in (
        "open_cluster", "open_volume", "VolumeSession", "SessionOp",
    ):
        assert name in repro.__all__
        assert hasattr(repro, name)
