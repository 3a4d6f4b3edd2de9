"""Deterministic discrete-event simulation substrate.

The paper's model (Section 2) is an asynchronous message-passing system:
no bound on message delay or processing time, crash-recovery processes,
fair-loss channels that may drop and reorder messages.  This subpackage
implements exactly that model as a deterministic discrete-event
simulator, so protocol runs are reproducible from a seed and fault
plans (:mod:`repro.campaign.schedule`) can be scripted precisely (e.g.
"crash the coordinator after its second Write message").

Layers:

* :mod:`repro.sim.kernel` — the event loop: processes as Python
  generators, timeouts, composite events, interrupts.
* :mod:`repro.sim.network` — the network's configuration (delay window,
  loss probability, jitter seed) and message record; the fair-loss
  channel itself is :class:`~repro.transport.sim.SimTransport`.
* :mod:`repro.sim.node` — the checksummed stable store of immutable
  records that survives a brick's crash.
* :mod:`repro.sim.monitor` — metric counters (messages, bytes, disk
  I/O, latency) backing the Table 1 measurements.
"""

from .kernel import (
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from .monitor import Metrics, OpMetrics
from .network import Message, NetworkConfig
from .node import StableStore

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "Interrupt",
    "NetworkConfig",
    "Message",
    "StableStore",
    "Metrics",
    "OpMetrics",
]
