"""One-call construction facade for clusters, volumes, and sessions.

The layered construction — build a :class:`ClusterConfig`, wrap it in a
:class:`FabCluster`, then wrap that in a :class:`LogicalVolume` — is
the right factoring for ablations, but most callers just want a
working virtual disk.  This module collapses the three steps into one
call each and routes keyword knobs to wherever they belong
(:class:`ClusterConfig`, :class:`~repro.sim.network.NetworkConfig`, or
:class:`~repro.core.coordinator.CoordinatorConfig`) by field name::

    from repro import api

    volume = api.open_volume(m=3, n=5, blocks=48, drop_probability=0.02)
    session = volume.session()
    session.write(0, b"x" * 1024)
    assert session.read(0) == b"x" * 1024

or, sharing one cluster between volumes::

    cluster = api.open_cluster(5, 8, block_size=512, gc_enabled=True)
    volume = api.open_volume(cluster, blocks=200)
    with volume.session(max_inflight=16) as session:
        session.submit_write_range(0, payloads)

Unknown knobs raise :class:`~repro.errors.ConfigurationError` with the
list of valid names, so typos fail loudly instead of being swallowed.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .core.cluster import ClusterConfig, FabCluster
from .core.coordinator import CoordinatorConfig
from .core.volume import LogicalVolume
from .errors import ConfigurationError
from .sim.network import NetworkConfig

__all__ = ["open_cluster", "open_volume"]

_NETWORK_FIELDS = {field.name for field in dataclasses.fields(NetworkConfig)}
_COORDINATOR_FIELDS = {
    field.name for field in dataclasses.fields(CoordinatorConfig)
}
_CLUSTER_FIELDS = {
    field.name for field in dataclasses.fields(ClusterConfig)
} - {"m", "n", "network", "coordinator"}


def _split_knobs(knobs: dict):
    """Route flat keyword knobs to their config dataclasses."""
    cluster_kw, network_kw, coordinator_kw, unknown = {}, {}, {}, []
    for name, value in knobs.items():
        if name in _CLUSTER_FIELDS:
            cluster_kw[name] = value
        elif name in _NETWORK_FIELDS:
            network_kw[name] = value
        elif name in _COORDINATOR_FIELDS:
            coordinator_kw[name] = value
        else:
            unknown.append(name)
    if unknown:
        valid = sorted(_CLUSTER_FIELDS | _NETWORK_FIELDS | _COORDINATOR_FIELDS)
        raise ConfigurationError(
            f"unknown cluster knob(s) {unknown}; valid knobs: {valid}"
        )
    return cluster_kw, network_kw, coordinator_kw


def open_cluster(m: int = 3, n: int = 5, **knobs) -> FabCluster:
    """Build a running FAB cluster in one call.

    Args:
        m / n: erasure-code parameters (m data blocks, n bricks).
        **knobs: any field of :class:`ClusterConfig` (``block_size``,
            ``seed``, ``f``, ``code_kind``, ``clock_skews``,
            ``transport``), :class:`NetworkConfig`
            (``min_latency``, ``max_latency``, ``drop_probability``,
            ...), or :class:`CoordinatorConfig` (``gc_enabled``,
            ``op_timeout``, ...), routed automatically.

    ``transport`` selects the substrate — ``"sim"`` (deterministic
    discrete-event kernel, default), ``"asyncio"`` (wall-clock loopback,
    drive it with the async session API or ``repro serve``), or
    ``"asyncio-tcp"`` (wall-clock over sockets).  This is the single
    public construction path: ``open_cluster(transport="sim")`` and
    ``open_cluster(transport="asyncio")`` build the same protocol stack
    on different substrates.

    The network's ``jitter_seed`` defaults to the cluster ``seed`` so a
    single knob makes the whole run reproducible (the network simulation
    knobs apply only to ``transport="sim"``).
    """
    cluster_kw, network_kw, coordinator_kw = _split_knobs(knobs)
    network_kw.setdefault("jitter_seed", cluster_kw.get("seed", 0))
    return FabCluster(ClusterConfig(
        m=m,
        n=n,
        network=NetworkConfig(**network_kw),
        coordinator=CoordinatorConfig(**coordinator_kw),
        **cluster_kw,
    ))


def open_volume(
    cluster: Optional[FabCluster] = None,
    *,
    blocks: Optional[int] = None,
    stripes: Optional[int] = None,
    m: int = 3,
    n: int = 5,
    base_register_id: int = 0,
    stripe_shuffle: bool = True,
    **knobs,
) -> LogicalVolume:
    """Open a virtual disk, building a cluster on the way if needed.

    Args:
        cluster: an existing cluster to carve the volume from; omit it
            to build one from ``m``/``n`` and the cluster ``**knobs``.
        blocks: minimum logical capacity in blocks; rounded up to whole
            stripes.  Mutually exclusive with ``stripes``.
        stripes: exact stripe count (one storage register each).
            Defaults to 16 stripes when neither is given.
        base_register_id / stripe_shuffle: forwarded to
            :class:`LogicalVolume`.
        **knobs: cluster construction knobs (only valid when
            ``cluster`` is omitted).

    Routing is chosen per session (``volume.session(route=...)``).
    Round-trips in three lines::

        session = api.open_volume(m=3, n=5, blocks=48).session()
        session.write(0, b"x" * 1024)
        assert session.read(0) == b"x" * 1024
    """
    if cluster is None:
        cluster = open_cluster(m, n, **knobs)
    elif knobs:
        raise ConfigurationError(
            f"cluster knobs {sorted(knobs)} cannot be applied to an "
            "already-built cluster; pass them to open_cluster() instead"
        )
    if blocks is not None and stripes is not None:
        raise ConfigurationError("pass either blocks= or stripes=, not both")
    if stripes is None:
        if blocks is None:
            stripes = 16
        else:
            if blocks < 1:
                raise ConfigurationError(f"blocks must be >= 1, got {blocks}")
            stripes = -(-blocks // cluster.config.m)  # ceil division
    return LogicalVolume(
        cluster,
        num_stripes=stripes,
        base_register_id=base_register_id,
        stripe_shuffle=stripe_shuffle,
    )
