"""LS97-style replicated atomic register (Lynch & Shvartsman, FTCS'97).

The comparison algorithm of Table 1.  Data is fully replicated on all
``n`` processes; majority quorums (any ``ceil((n+1)/2)`` processes)
guarantee intersection in at least one process.  Both operations run
two phases:

* **read**: query a majority for ``(value, ts)`` pairs; pick the pair
  with the highest timestamp; *propagate* it to a majority (write-back,
  ensuring later reads see it); return the value.
* **write**: query a majority for timestamps; pick a timestamp higher
  than the maximum; store ``(value, ts)`` on a majority.

Cost profile, matching Table 1's right columns: reads cost ``4δ``
latency, ``4n`` messages, ``n`` disk reads + ``n`` disk writes, ``2nB``
bandwidth; writes cost ``4δ``, ``4n`` messages, ``n`` disk writes,
``nB`` bandwidth.  (The paper pessimistically counts all ``n`` replicas
participating; so do we.)

This implementation assumes crash-stop processes, as [9] does — replica
state is persisted anyway, so a recovered process simply behaves like a
slow one.  It is linearizable but NOT strictly linearizable: a partial
write may be completed by any later read (the write-back), arbitrarily
far in the future — the behaviour the paper's Figure 5 argues is wrong
for storage systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.coordinator import CoordinatorConfig, QuorumRpc
from ..sim.monitor import Metrics
from ..sim.network import NetworkConfig
from ..timestamps import LOW_TS, Timestamp, TimestampSource
from ..transport.base import Node
from ..transport.sim import SimTransport
from ..types import ABORT, Block, ProcessId

__all__ = ["Ls97Cluster", "Ls97Config"]

OK = "OK"


# -- messages -----------------------------------------------------------------


@dataclass(frozen=True)
class QueryReq:
    register_id: int
    request_id: int
    want_value: bool

    @property
    def size(self) -> int:
        return 0


@dataclass(frozen=True)
class QueryReply:
    register_id: int
    request_id: int
    ts: Timestamp
    value: Optional[Block]

    @property
    def size(self) -> int:
        return len(self.value) if self.value is not None else 0


@dataclass(frozen=True)
class StoreReq:
    register_id: int
    request_id: int
    ts: Timestamp
    value: Optional[Block]

    @property
    def size(self) -> int:
        return len(self.value) if self.value is not None else 0


@dataclass(frozen=True)
class StoreReply:
    register_id: int
    request_id: int

    @property
    def size(self) -> int:
        return 0


# -- replica -------------------------------------------------------------------


class _Ls97Replica:
    """Full-copy replica: one ``(value, ts)`` pair per register."""

    def __init__(self, node: Node) -> None:
        self.node = node
        node.register_handler(QueryReq, self._on_query)
        node.register_handler(StoreReq, self._on_store)

    def _state(self, register_id: int):
        return self.node.stable.load(f"reg:{register_id}", (LOW_TS, None))

    def _on_query(self, src: ProcessId, req: QueryReq) -> None:
        ts, value = self._state(req.register_id)
        if req.want_value and value is not None:
            self.node.metrics.count_disk_read()
        self.node.send(
            src,
            QueryReply(
                register_id=req.register_id,
                request_id=req.request_id,
                ts=ts,
                value=value if req.want_value else None,
            ),
            size=len(value) if (req.want_value and value is not None) else 0,
        )

    def _on_store(self, src: ProcessId, req: StoreReq) -> None:
        ts, _value = self._state(req.register_id)
        if req.ts > ts:
            self.node.stable.store(f"reg:{req.register_id}", (req.ts, req.value))
            if req.value is not None:
                self.node.metrics.count_disk_write()
        self.node.send(
            src,
            StoreReply(register_id=req.register_id, request_id=req.request_id),
            size=0,
        )


# -- coordinator ------------------------------------------------------------------


class _Ls97Rpc(QuorumRpc):
    """The coordinator's quorum primitive, routing LS97's replies."""

    _REPLY_TYPES = (QueryReply, StoreReply)


class _Ls97Coordinator:
    """Two-phase read / two-phase write over majority quorums.

    Each phase is one :class:`~repro.core.coordinator.QuorumRpc` call:
    it retransmits to the processes that have not replied and expires
    after the default ``op_timeout``, so an operation that cannot reach
    a majority returns ABORT.
    """

    def __init__(self, node: Node, n: int, ts_source: TimestampSource) -> None:
        self.node = node
        self.env = node.env
        self.ts_source = ts_source
        self.rpc = _Ls97Rpc(
            node,
            universe=range(1, n + 1),
            quorum_size=n // 2 + 1,
            config=CoordinatorConfig(),
        )

    def read(self, register_id: int):
        """Two-phase read: query + propagate; returns the value or ABORT."""
        op = self.node.metrics.begin_op("ls97-read", self.env.now)
        value = ABORT
        replies = yield from self.rpc.call(
            lambda dst, rid: QueryReq(register_id, rid, want_value=True)
        )
        if replies is not None:
            best = max(replies.values(), key=lambda reply: reply.ts)
            stored = yield from self.rpc.call(
                lambda dst, rid: StoreReq(register_id, rid, best.ts, best.value)
            )
            if stored is not None:
                value = best.value
        self.node.metrics.end_op(op, self.env.now, aborted=value is ABORT)
        return value

    def write(self, register_id: int, value: Block):
        """Two-phase write: query timestamps + store; returns OK or ABORT."""
        op = self.node.metrics.begin_op("ls97-write", self.env.now)
        result = ABORT
        replies = yield from self.rpc.call(
            lambda dst, rid: QueryReq(register_id, rid, want_value=False)
        )
        if replies is not None:
            for reply in replies.values():
                self.ts_source.observe(reply.ts)
            ts = self.ts_source.new_ts()
            stored = yield from self.rpc.call(
                lambda dst, rid: StoreReq(register_id, rid, ts, value)
            )
            if stored is not None:
                result = OK
        self.node.metrics.end_op(op, self.env.now, aborted=result is ABORT)
        return result


# -- cluster -----------------------------------------------------------------------


@dataclass
class Ls97Config:
    """Configuration for an LS97 replicated cluster."""

    n: int = 5
    block_size: int = 1024
    network: NetworkConfig = field(default_factory=NetworkConfig)
    seed: int = 0


class Ls97Cluster:
    """n-way replicated register cluster running the LS97-style protocol."""

    def __init__(self, config: Optional[Ls97Config] = None) -> None:
        self.config = config or Ls97Config()
        cfg = self.config
        self.metrics = Metrics()
        self.transport = SimTransport(config=cfg.network, metrics=self.metrics)
        self.env = self.transport.env
        self.nodes: Dict[ProcessId, Node] = {}
        self.replicas: Dict[ProcessId, _Ls97Replica] = {}
        self.coordinators: Dict[ProcessId, _Ls97Coordinator] = {}
        for pid in range(1, cfg.n + 1):
            node = Node(
                transport=self.transport, process_id=pid, metrics=self.metrics
            )
            self.nodes[pid] = node
            self.replicas[pid] = _Ls97Replica(node)
            self.coordinators[pid] = _Ls97Coordinator(
                node, cfg.n, TimestampSource(pid, clock=self.transport.now)
            )

    def _coordinator(self, route: Optional[ProcessId]) -> _Ls97Coordinator:
        return self.coordinators[1 if route is None else route]

    def read(self, register_id: int, route: Optional[ProcessId] = None):
        """Blocking read coordinated by brick ``route`` (default 1)."""
        coordinator = self._coordinator(route)
        process = coordinator.node.spawn(coordinator.read(register_id))
        return self.transport.run_until_complete(process)

    def write(
        self, register_id: int, value: Block,
        route: Optional[ProcessId] = None,
    ):
        """Blocking write coordinated by brick ``route`` (default 1)."""
        coordinator = self._coordinator(route)
        process = coordinator.node.spawn(coordinator.write(register_id, value))
        return self.transport.run_until_complete(process)

    def crash(self, pid: ProcessId) -> None:
        self.nodes[pid].crash()

    def recover(self, pid: ProcessId) -> None:
        self.nodes[pid].recover()
