"""One protocol API, two substrates.

The FAB coordinator/replica/session code speaks only the
:class:`Transport` protocol; pick a substrate by name:

* ``"sim"`` — deterministic discrete-event kernel + fair-loss network
  (:class:`SimTransport`); every campaign invariant and benchmark runs
  here with semantics identical to the pre-abstraction code.
* ``"asyncio"`` — wall-clock timers, in-process loopback delivery
  (:class:`AsyncioTransport`); hosts real concurrent clients
  (``repro serve``).
* ``"asyncio-tcp"`` — same, but messages travel as length-prefixed
  binary frames over real TCP sockets.

Any substrate can additionally be wrapped in a
:class:`~repro.transport.chaos.ChaosTransport` — seeded fault injection
(drop/delay/duplicate/reorder/corrupt) at the transport boundary —
either explicitly or by passing ``chaos_policy=`` to
:func:`make_transport`; it also hosts a fault plan's partitions and
drop windows, which a bare asyncio transport refuses.

``AsyncioTransport`` (and the wire codec) import lazily: the wire
module depends on :mod:`repro.core.messages`, which would make the
``repro.core`` package circular if imported eagerly here.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigurationError
from .base import Endpoint, TimerHandle, Transport
from .chaos import ChaosPolicy, ChaosStats, ChaosTransport, LinkChaos
from .sim import SimTransport

__all__ = [
    "Transport",
    "TimerHandle",
    "Endpoint",
    "SimTransport",
    "AsyncioTransport",
    "ChaosTransport",
    "ChaosPolicy",
    "ChaosStats",
    "LinkChaos",
    "make_transport",
    "TRANSPORT_KINDS",
]

TRANSPORT_KINDS = ("sim", "asyncio", "asyncio-tcp")


def make_transport(
    kind: str = "sim",
    network_config: Any = None,
    metrics: Any = None,
    chaos_policy: Optional[ChaosPolicy] = None,
    **kwargs: Any,
) -> Transport:
    """Build a transport by name (the ``transport=`` knob's backend).

    Args:
        kind: one of :data:`TRANSPORT_KINDS`.
        network_config: sim-only :class:`~repro.sim.network.
            NetworkConfig` (latency window, drops, jitter seed).
        metrics: metric sink shared with the owning cluster.
        chaos_policy: when given, the built substrate is wrapped in a
            :class:`ChaosTransport` applying this seeded fault plan.
        **kwargs: substrate-specific extras (e.g. ``time_scale``,
            ``host``, ``base_port`` for the asyncio substrates).

    Raises:
        ConfigurationError: unknown ``kind``, or sim-only options passed
            to a wall-clock substrate.
    """
    if kind == "sim":
        transport: Transport = SimTransport(
            config=network_config, metrics=metrics, **kwargs
        )
    elif kind in ("asyncio", "asyncio-tcp"):
        if network_config is not None:
            raise ConfigurationError(
                "network= simulation knobs apply only to transport='sim'"
            )
        from .aio import AsyncioTransport

        mode = "tcp" if kind == "asyncio-tcp" else "loopback"
        transport = AsyncioTransport(mode=mode, metrics=metrics, **kwargs)
    else:
        raise ConfigurationError(
            f"unknown transport {kind!r}; "
            f"valid kinds: {', '.join(TRANSPORT_KINDS)}"
        )
    if chaos_policy is not None:
        transport = ChaosTransport(transport, chaos_policy)
    return transport


def __getattr__(name: str):
    if name == "AsyncioTransport":
        from .aio import AsyncioTransport

        return AsyncioTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
