"""The per-layer table: spans and public counters turned into metrics.

Times come from the tracer's spans; counts come from counters the
system already keeps (``cluster.metrics``, ``env.events_processed``,
``StableStore.store_count``, ``SessionStats``, the asyncio transport's
drop/reconnect counters) read before and after the traced trials, plus
a few calls the wrappers count themselves.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Sequence

from .metrics import PER_LAYER, percentile
from .trace import Tracer, self_times

__all__ = ["snapshot", "layer_table", "TIMED_LAYERS"]

#: Layers whose self time is a named metric; anything else a span was
#: attributed to lands in ``trace.other_s`` so the sum still closes.
TIMED_LAYERS = {
    "core.session": "core.session.self_s",
    "core.coordinator": "core.coordinator.self_s",
    "core.replica": "core.replica.self_s",
    "sim.node": "sim.node.store_s",
    "sim.kernel": "sim.kernel.self_s",
    "sim.network": "sim.network.send_s",
    "transport.aio": "transport.aio.send_s",
    "campaign": "campaign.self_s",
}


def snapshot(clusters: Sequence) -> Dict[str, float]:
    """Sums of the public counters of ``clusters``."""
    totals: Dict[str, float] = defaultdict(float)
    for cluster in clusters:
        metrics, transport = cluster.metrics, cluster.transport
        totals["events"] += cluster.env.events_processed
        totals["heap_pushes"] += cluster.env.events_scheduled
        totals["messages"] += metrics.total_messages
        totals["retransmissions"] += metrics.total_retransmissions
        for op in metrics.operations:
            if op.finished_at is not None:
                totals["coordinator_ops"] += 1
                totals["slow"] += op.path == "slow"
                totals["aborted"] += op.aborted
        for node in cluster.nodes.values():
            totals["store_calls"] += node.stable.store_count
        for stats in metrics.sessions:
            totals["retries"] += stats.retries
            totals["failovers"] += stats.failovers
            totals["peak_inflight"] = max(
                totals["peak_inflight"], stats.peak_inflight
            )
        totals["reconnects"] += getattr(transport, "reconnects", 0)
        totals["outbox_drops"] += sum(
            getattr(transport, "outbox_drops", {}).values()
        )
    return totals


def _mib_per_s(size: float, seconds: float) -> float:
    return size / 2**20 / seconds if seconds > 0 else 0.0


def layer_table(
    tracer: Tracer,
    before: Dict[str, float],
    after: Dict[str, float],
    trials: Sequence,
    reference,
    block_size: int,
    asyncio_substrate: bool,
    lag_ms: Sequence[float],
    space_amp: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for the traced trials.

    Raises AssertionError if the layers' self times do not sum to the
    traced wall (the root spans) — they must, by construction.
    """
    table = {metric.name: 0.0 for metric in PER_LAYER}
    rows = self_times(tracer.spans)
    wall = sum(
        span[3] - span[2] for span in tracer.spans if span[4] < 0
    )
    layer_self: Dict[str, float] = defaultdict(float)
    attributed = unattributed = 0.0
    for (layer, _name), (_calls, _total, own, no_op) in rows.items():
        layer_self[layer] += own
        if layer != "root":
            attributed += own
            unattributed += no_op
    assert abs(sum(layer_self.values()) - wall) <= 1e-6 * max(1.0, wall), (
        f"self times {sum(layer_self.values())} != traced wall {wall}"
    )

    def delta(key: str) -> float:
        return after[key] - before[key]

    def total(layer: str, name: str) -> float:
        return rows.get((layer, name), [0, 0.0])[1]

    def calls(layer: str, name: str) -> int:
        return rows.get((layer, name), [0])[0]

    def share(seconds: float) -> float:
        return seconds / wall if wall > 0 else 0.0

    ops = max(1, sum(trial.ops for trial in trials))
    seeds = sum(trial.seeds for trial in trials)
    user_bytes = sum(trial.user_bytes for trial in trials)
    written = sum(
        len(op.blocks) for op in tracer.ops if op.is_write
    ) * block_size

    for layer, name in TIMED_LAYERS.items():
        table[name] = layer_self.pop(layer, 0.0)
    for layer in ("core.coordinator", "core.replica", "sim.node"):
        table[f"{layer}.share"] = share(table[TIMED_LAYERS[layer]])

    # core.session
    due = {}
    for trial in trials:
        for record in trial.records:
            due[id(record[0])] = record[2]
    waits = [
        (at - due.get(id(tracer.ops[op]), tracer.submit_at[op])) * 1000.0
        for op, at in tracer.attempt_at.items()
    ]
    table["core.session.queue_wait_ms_p50"] = percentile(waits, 0.50)
    table["core.session.retries_per_op"] = delta("retries") / ops
    table["core.session.failovers_per_op"] = delta("failovers") / ops
    table["core.session.peak_inflight"] = after["peak_inflight"]

    # core.coordinator / core.replica
    counts = tracer.counts
    coordinator_ops = max(1.0, delta("coordinator_ops"))
    table["core.coordinator.phases_per_op"] = (
        counts["core.coordinator.phases"] / ops
    )
    table["core.coordinator.msgs_per_op"] = delta("messages") / ops
    table["core.coordinator.retx_per_op"] = delta("retransmissions") / ops
    table["core.coordinator.slow_path_share"] = delta("slow") / coordinator_ops
    table["core.coordinator.abort_share"] = delta("aborted") / coordinator_ops
    table["core.replica.handler_calls_per_op"] = (
        counts["core.replica.handler_calls"] / ops
    )

    # erasure
    for name in ("encode", "decode", "modify"):
        seconds = total("erasure", name)
        table[f"erasure.{name}_calls"] = calls("erasure", name)
        table[f"erasure.{name}_s"] = seconds
        table[f"erasure.{name}_mib_per_s"] = _mib_per_s(
            counts[f"erasure.{name}_bytes"], seconds
        )
    table["erasure.share"] = share(layer_self.pop("erasure", 0.0))

    # sim.node
    table["sim.node.store_calls_per_op"] = delta("store_calls") / ops
    table["sim.node.write_amp"] = (
        counts["sim.node.bytes_stored"] / written if written else 0.0
    )
    table["sim.node.space_amp"] = space_amp

    # sim.kernel
    table["sim.kernel.events_per_op"] = delta("events") / ops
    table["sim.kernel.heap_pushes_per_op"] = delta("heap_pushes") / ops
    table["sim.kernel.events_per_s"] = delta("events") / wall if wall else 0.0

    # transport.aio / transport.wire
    table["transport.aio.frames_per_op"] = (
        calls("transport.wire", "encode") / ops
    )
    table["transport.aio.pump_lag_ms_p50"] = percentile(lag_ms, 0.50)
    table["transport.aio.pump_lag_ms_p95"] = percentile(lag_ms, 0.95)
    table["transport.aio.outbox_drops"] = delta("outbox_drops")
    table["transport.aio.reconnects"] = delta("reconnects")
    table["transport.wire.encode_s"] = total("transport.wire", "encode")
    table["transport.wire.decode_s"] = total("transport.wire", "decode")
    table["transport.wire.share"] = share(layer_self.pop("transport.wire", 0.0))
    table["transport.wire.bytes_per_user_byte"] = (
        counts["transport.wire.bytes"] / user_bytes if user_bytes else 0.0
    )

    # The root spans' own time: the harness loop on the sim; on asyncio
    # the event loop (pump stepping, sockets, client coroutines) and,
    # where the process was not on a CPU at all, idle sleep.
    root_self = layer_self.pop("root", 0.0)
    table["loadgen.self_s"] = layer_self.pop("loadgen", 0.0)
    if asyncio_substrate:
        cpu = sum(trial.cpu_s for trial in trials)
        idle = min(root_self, max(0.0, wall - cpu))
        table["transport.aio.idle_s"] = idle
        table["transport.aio.loop_other_s"] = root_self - idle
    else:
        table["loadgen.self_s"] += root_self

    # campaign / verify
    if seeds:
        table["campaign.run_s_per_seed"] = (
            total("campaign", "run_campaign") / seeds
        )
        table["campaign.ops_per_seed"] = ops / seeds
        table["campaign.seeds_per_s"] = seeds / sum(t.wall_s for t in trials)
        table["verify.check_s_per_seed"] = total("verify", "check") / seeds
    table["campaign.violations"] = sum(
        trial.failed for trial in trials
    ) if seeds else 0.0
    table["verify.share"] = share(layer_self.pop("verify", 0.0))

    # loadgen
    reads = [ms for trial in trials for ms in trial.read_ms]
    writes = [ms for trial in trials for ms in trial.write_ms]
    late = [ms for trial in trials for ms in trial.late_ms]
    table["loadgen.late_ms_p95"] = percentile(late, 0.95)
    table["loadgen.offered_ops_per_s"] = statistics.median(
        trial.offered_ops_per_s for trial in trials
    )
    if reads or writes:
        table["loadgen.over_50ms_share"] = sum(
            ms > 50.0 for ms in reads + writes
        ) / len(reads + writes)
    for kind, samples in (("read", reads), ("write", writes)):
        table[f"loadgen.{kind}_p50_ms"] = percentile(samples, 0.50)
        table[f"loadgen.{kind}_p95_ms"] = percentile(samples, 0.95)

    # trace
    traced_cpu = statistics.median(
        trial.cpu_s / max(1, trial.attempted) for trial in trials
    )
    untraced_cpu = reference.cpu_s / max(1, reference.attempted)
    table["trace.overhead"] = traced_cpu / untraced_cpu - 1.0
    table["trace.unattributed_share"] = (
        unattributed / attributed if attributed else 0.0
    )
    table["trace.other_s"] = sum(layer_self.values())
    return table
