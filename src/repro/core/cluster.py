"""FAB cluster assembly.

:class:`FabCluster` wires together everything a runnable system needs:
a simulation environment, a fair-loss network, ``n`` brick nodes each
hosting a replica *and* a coordinator (bricks serve as both storage
devices and I/O controllers — the paper's decentralized architecture),
plus timestamp sources and metrics.

Typical use::

    cluster = FabCluster(ClusterConfig(m=3, n=5, block_size=1024))
    register = cluster.register(0)               # stripe 0, any coordinator
    register.write_stripe([b"a" * 1024] * 3)
    assert register.read_stripe() == [b"a" * 1024] * 3

    cluster.node(2).crash()                       # kill a brick
    assert register.read_stripe() == [b"a" * 1024] * 3   # still readable
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..erasure.registry import make_code
from ..errors import ConfigurationError, CorruptionDetected
from ..quorum.system import MajorityMQuorumSystem
from ..sim.monitor import Metrics
from ..sim.network import NetworkConfig
from ..timestamps import TimestampSource
from ..transport import make_transport
from ..transport.base import Node, Transport
from ..types import ProcessId
from .coordinator import Coordinator, CoordinatorConfig
from .register import StorageRegister
from .replica import Replica

__all__ = ["ClusterConfig", "FabCluster"]


@dataclass
class ClusterConfig:
    """Static configuration for a FAB cluster.

    Attributes:
        m / n: erasure-code parameters (m data + n-m parity per stripe).
        block_size: stripe-unit size in bytes.
        f: tolerated faults; defaults to the code's maximum
            (:func:`~repro.quorum.theorems.max_fault_tolerance`:
            ``floor((n-m)/2)`` for an MDS code, less for an LRC).
        code_kind: erasure-code implementation (see
            :func:`repro.erasure.registry.make_code`).
        network: network behaviour (latency, drops, ...).
        coordinator: protocol knobs (op timeout, GC, ablations).
        clock_skews: per-process clock skew in time units (index by
            process id); missing ids default to zero.  Used by the
            abort-rate ablation.
        metrics_history_limit: cap on retained per-operation metric
            records (None = unlimited); long benchmark runs set a limit
            so metric history stays O(1) in run length.
        transport: message/timer substrate — ``"sim"`` (deterministic
            discrete-event kernel, default), ``"asyncio"`` (wall-clock
            in-process loopback), or ``"asyncio-tcp"`` (wall-clock over
            real sockets).  The ``network`` simulation knobs apply only
            to ``"sim"``.
        seed: master seed; node-level randomness derives from it.
        allow_unsafe_f: permit ``f`` beyond the code's bound — builds a
            quorum system whose quorums can intersect in a set that
            does not decode.  Only for negative testing (the fault
            campaign's broken-config mode).
    """

    m: int = 3
    n: int = 5
    block_size: int = 1024
    f: Optional[int] = None
    code_kind: str = "auto"
    network: NetworkConfig = field(default_factory=NetworkConfig)
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    clock_skews: Dict[int, float] = field(default_factory=dict)
    transport: str = "sim"
    metrics_history_limit: Optional[int] = None
    seed: int = 0
    allow_unsafe_f: bool = False


class FabCluster:
    """A federated array of ``n`` bricks running the storage register."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        if cfg.m < 1 or cfg.n < cfg.m:
            raise ConfigurationError(
                f"need n >= m >= 1, got n={cfg.n}, m={cfg.m}"
            )
        if cfg.block_size < 1:
            raise ConfigurationError(
                f"block_size must be >= 1, got {cfg.block_size}"
            )
        self.metrics = Metrics(history_limit=cfg.metrics_history_limit)
        if transport is None:
            if cfg.transport == "sim":
                transport = make_transport(
                    "sim", network_config=cfg.network, metrics=self.metrics
                )
            else:
                transport = make_transport(cfg.transport, metrics=self.metrics)
        if transport.metrics is None:
            # An externally built transport adopts the cluster's sink so
            # message counts land in the same place as op metrics.
            transport.metrics = self.metrics
        self.transport = transport
        self.env = transport.env
        self.code = make_code(cfg.m, cfg.n, cfg.code_kind)
        self.quorum_system = MajorityMQuorumSystem(
            cfg.n, cfg.m, cfg.f, enforce_bound=not cfg.allow_unsafe_f,
            code=self.code,
        )
        self.nodes: Dict[ProcessId, Node] = {}
        self.replicas: Dict[ProcessId, Replica] = {}
        self.coordinators: Dict[ProcessId, Coordinator] = {}
        master = random.Random(cfg.seed)
        for pid in range(1, cfg.n + 1):
            node = Node(
                transport=self.transport,
                process_id=pid,
                metrics=self.metrics,
            )
            replica = Replica(node, self.code, pid)
            ts_source = TimestampSource(
                pid,
                clock=self.transport.now,
                skew=cfg.clock_skews.get(pid, 0.0),
            )
            coordinator = Coordinator(
                node,
                self.code,
                self.quorum_system,
                ts_source,
                cfg.block_size,
                cfg.coordinator,
                rng=random.Random(master.randrange(2**31)),
            )
            self.nodes[pid] = node
            self.replicas[pid] = replica
            self.coordinators[pid] = coordinator

    # -- accessors -----------------------------------------------------------

    def node(self, pid: ProcessId) -> Node:
        """Brick ``pid`` (1-based)."""
        return self.nodes[pid]

    def coordinator(self, pid: ProcessId) -> Coordinator:
        """The coordinator running on brick ``pid``."""
        return self.coordinators[pid]

    def register(
        self, register_id: int, route: Optional[ProcessId] = None
    ) -> StorageRegister:
        """A register handle for stripe ``register_id``.

        Any brick can coordinate; pass ``route=pid`` to exercise
        multi-controller access to the same stripe.  Defaults to brick 1.
        """
        return StorageRegister(
            self.coordinators[1 if route is None else route], register_id
        )

    def register_ids(self) -> list:
        """Ids of every register with state anywhere in the cluster.

        The union of every replica's :meth:`~repro.core.replica.Replica.
        register_ids` (sorted) — volatile mirrors plus stable storage,
        so the answer is current even right after crashes or recoveries.
        Tools that scan "everything" (the scrub daemon, rebuilders)
        should resolve the register set through this accessor each pass
        instead of snapshotting it once at construction.
        """
        seen: set = set()
        for replica in self.replicas.values():
            seen.update(replica.register_ids())
        return sorted(seen)

    def max_log_entries(self, register_id: int) -> int:
        """Largest log (in entries) any replica holds for a register.

        What the Section 5.1 notice keeps bounded.  Quarantined copies
        are skipped: a log that failed its checksum cannot be trusted
        even to count entries.
        """
        sizes = []
        for replica in self.replicas.values():
            try:
                sizes.append(len(replica.state(register_id).log))
            except CorruptionDetected:
                continue
        return max(sizes, default=0)

    # -- convenience ----------------------------------------------------------

    def live_processes(self) -> list:
        """Ids of currently-up bricks."""
        return [pid for pid, node in self.nodes.items() if node.is_up]

    def crash(self, pid: ProcessId) -> None:
        """Crash brick ``pid``."""
        self.nodes[pid].crash()

    def recover(self, pid: ProcessId) -> None:
        """Recover brick ``pid``."""
        self.nodes[pid].recover()

    def run(self, until: Optional[float] = None) -> None:
        """Advance the substrate (synchronous transports only)."""
        self.transport.run(until)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"FabCluster(m={cfg.m}, n={cfg.n}, f={self.quorum_system.f}, "
            f"code={type(self.code).__name__}, block={cfg.block_size}B)"
        )
