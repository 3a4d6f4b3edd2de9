"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, FabCluster
from repro.campaign.schedule import FaultEvent, apply_event
from repro.core.coordinator import CoordinatorConfig
from repro.sim.network import NetworkConfig


def make_cluster(
    m: int = 3,
    n: int = 5,
    block_size: int = 32,
    seed: int = 0,
    drop: float = 0.0,
    min_latency: float = 1.0,
    max_latency: float = 1.0,
    code_kind: str = "auto",
    **coordinator_kwargs,
) -> FabCluster:
    """A small cluster with test-friendly defaults; ``drop`` is a loss
    rate, a drop window open from t = 0."""
    cluster = FabCluster(
        ClusterConfig(
            m=m,
            n=n,
            block_size=block_size,
            seed=seed,
            code_kind=code_kind,
            network=NetworkConfig(
                min_latency=min_latency,
                max_latency=max_latency,
                jitter_seed=seed,
            ),
            coordinator=CoordinatorConfig(**coordinator_kwargs),
        )
    )
    if drop:
        fault(cluster, "drop_start", value=drop)
    return cluster


@pytest.fixture
def cluster() -> FabCluster:
    """Default 3-of-5 cluster, deterministic network."""
    return make_cluster()


def stripe_of(m: int, block_size: int, tag: int) -> list:
    """A unique, well-formed stripe value for tests."""
    return [
        (f"s{tag}b{index}".encode() * block_size)[:block_size]
        for index in range(m)
    ]


def block_of(block_size: int, tag: int) -> bytes:
    """A unique block value for tests."""
    return (f"blk{tag}".encode() * block_size)[:block_size]


def fault(cluster, kind: str, *targets: int, value: float = 0.0) -> None:
    """Apply one fault-plan event to ``cluster`` now."""
    apply_event(cluster, FaultEvent(cluster.env.now, kind, targets, value))


def watch_sends(transport, observer) -> None:
    """Call ``observer(src, dst, payload)`` after each ``transport.send``.

    Shadows ``send`` on this one transport instance; endpoints look the
    method up on every send, so every protocol message passes through.
    """
    send = transport.send

    def watched(src, dst, payload, size=0):
        send(src, dst, payload, size)
        observer(src, dst, payload)

    transport.send = watched


def crash_after(cluster, pid: int, message: type, count: int) -> None:
    """Crash brick ``pid`` right after its ``count``-th ``message`` send."""
    apply_event(cluster, FaultEvent(
        time=cluster.env.now, kind="crash", targets=(pid,),
        after=(message.__name__, count),
    ))
