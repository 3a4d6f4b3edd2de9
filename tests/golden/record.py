"""The fixed-seed runs behind ``fixed_seed_counters.json``.

Every case here is a deterministic run of the simulated protocol whose
counters, operation results and recovered replica state are recorded
once and compared with ``==`` ever after.  A change that is meant to be
behaviour-preserving (a deleted fork, a faster path) must leave the
file untouched; regenerate it only in a change that says why a counter
moved::

    PYTHONPATH=src python -m tests.golden.record

which rewrites the file from the checked-out ``src/`` and stamps it
with ``git rev-parse HEAD``.

Values are ints, strings and floats that round-trip through JSON
exactly.  Anything richer (``bytes`` blocks, timestamps, the abort and
⊥ sentinels) is recorded as its ``repr``.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict

from repro.campaign import CampaignConfig, FaultEvent, apply_event, run_campaign
from repro.core.cluster import ClusterConfig, FabCluster
from repro.core.coordinator import CoordinatorConfig
from repro.placement import ShardedCampaignConfig, run_sharded_campaign
from repro.sim.kernel import Environment
from repro.sim.monitor import Metrics
from repro.sim.network import Network, NetworkConfig
from repro.transport.sim import SimTransport
from tests.campaign.test_engine import QUICK

GOLDEN_PATH = Path(__file__).with_name("fixed_seed_counters.json")
REGENERATE = "PYTHONPATH=src python -m tests.golden.record"

QUICK_SEEDS = (0, 1, 2, 3, 4, 5, 11)
#: 8010 violates linearizability (tests/campaign/reproducers): pinned
#: here so that a change cannot mask or move the finding unnoticed.
DEFAULT_SEEDS = (0, 1, 8010)

# -- the crash + GC + drop workload ------------------------------------------

M, N = 2, 4
BLOCK = 32
REGISTERS = 4


def make_cluster(drop=0.0, gc=False, seed=7):
    cluster = FabCluster(
        ClusterConfig(
            m=M,
            n=N,
            block_size=BLOCK,
            seed=seed,
            network=NetworkConfig(jitter_seed=seed),
            coordinator=CoordinatorConfig(gc_enabled=gc),
        )
    )
    if drop:
        apply_event(cluster, FaultEvent(0.0, "drop_start", value=drop))
    return cluster


def stripe_for(rid, version):
    return [
        bytes([65 + (rid + version + j) % 26]) * BLOCK for j in range(M)
    ]


def run_workload(cluster, crash_pid=None):
    """A deterministic mixed workload; returns the visible op history.

    Writes and reads round-robin over registers; midway, brick
    ``crash_pid`` crashes (missing several writes, which forces the
    slow-path recovery read on it later) and then recovers, exercising
    the stable-storage reload.
    """
    handles = [cluster.register(rid) for rid in range(REGISTERS)]
    history = []
    for step in range(40):
        rid = step % REGISTERS
        if crash_pid is not None and step in (12, 28):
            kind = "crash" if step == 12 else "recover"
            apply_event(
                cluster, FaultEvent(cluster.env.now, kind, (crash_pid,))
            )
        if step % 5 == 4:
            history.append(("read", rid, handles[rid].read_stripe()))
        elif step % 7 == 6:
            block = bytes([97 + step % 26]) * BLOCK
            history.append(
                ("write-block", rid, handles[rid].write_block(M, block))
            )
        else:
            history.append(
                ("write", rid, handles[rid].write_stripe(stripe_for(rid, step)))
            )
    return history


def metric_totals(cluster):
    metrics = cluster.metrics
    return {
        "messages": metrics.total_messages,
        "bytes": metrics.total_bytes,
        "disk_reads": metrics.total_disk_reads,
        "disk_writes": metrics.total_disk_writes,
        "dropped": metrics.dropped_messages,
        "retransmissions": metrics.total_retransmissions,
        "ops": (metrics.ops_started, metrics.ops_finished),
        "now": cluster.env.now,
        "events": cluster.env.events_processed,
    }


def recovered_states(cluster):
    """Every replica's state as observed after a crash + recovery.

    Crashing first forces the reload path, so this checks what
    ``replay_journal`` actually reconstructs from stable storage, not
    the volatile mirror.
    """
    states = {}
    for pid, node in cluster.nodes.items():
        if not node.is_up:
            node.recover()
        node.crash()
        node.recover()
        replica = cluster.replicas[pid]
        for rid in range(REGISTERS):
            state = replica.state(rid)
            states[(pid, rid)] = (state.ord_ts, state.log.to_state())
    return states


def _crash_case(crash_pid=None, **cluster_kwargs):
    cluster = make_cluster(**cluster_kwargs)
    history = run_workload(cluster, crash_pid=crash_pid)
    return {
        "history": [[kind, rid, repr(result)] for kind, rid, result in history],
        "metrics": metric_totals(cluster),
        "recovered": {
            f"p{pid}/r{rid}": {
                "ord_ts": repr(ord_ts),
                "log": [[repr(ts), repr(block)] for ts, block in log],
            }
            for (pid, rid), (ord_ts, log) in recovered_states(cluster).items()
        },
    }


# -- the 40-send delivery schedule -------------------------------------------


def _delivery_case():
    env = Environment()
    network = Network(
        env, NetworkConfig(min_latency=1.0, max_latency=4.0, jitter_seed=13),
        Metrics(),
    )
    bare = SimpleNamespace(transport=SimTransport(env, network), nodes={})
    apply_event(bare, FaultEvent(0.0, "drop_start", value=0.1))
    log = []
    for pid in (1, 2, 3):
        network.register(
            pid, lambda m, pid=pid: log.append([env.now, pid, m.payload])
        )
    for i in range(40):
        network.send(1 + i % 3, 1 + (i + 1) % 3, f"m{i}")
    env.run()
    return {"log": log, "events_scheduled": env.events_scheduled}


# -- campaigns ---------------------------------------------------------------


def _counters(result) -> dict:
    """``to_dict()`` without the violations' ``detail`` text.

    A linearizability violation prints its constraint cycle starting
    from a hash-ordered node, so the text varies with PYTHONHASHSEED;
    which invariant fired, and when, does not.
    """
    payload = result.to_dict()
    for run in payload.get("groups", [payload]):
        for violation in run["violations"]:
            del violation["detail"]
    return payload


_SHARDED = ShardedCampaignConfig(
    seed=3, registers=12, clients_per_group=2, ops_per_client=12,
    duration=200.0, drain=120.0,
)

#: case name -> thunk returning the value to record.
CASES: Dict[str, Callable[[], object]] = {
    "crash-gc-drop/plain": _crash_case,
    "crash-gc-drop/crash+gc": lambda: _crash_case(crash_pid=3, gc=True),
    "crash-gc-drop/drops+crash+gc": lambda: _crash_case(
        crash_pid=4, drop=0.05, gc=True
    ),
    "delivery/40-sends": _delivery_case,
    "sharded/lrc": lambda: _counters(run_sharded_campaign(_SHARDED)),
    "sharded/reed-solomon": lambda: _counters(
        run_sharded_campaign(replace(_SHARDED, code_kind="reed-solomon"))
    ),
}
for _seed in QUICK_SEEDS:
    CASES[f"campaign-quick/seed{_seed}"] = (
        lambda seed=_seed: _counters(run_campaign(replace(QUICK, seed=seed)))
    )
for _seed in DEFAULT_SEEDS:
    CASES[f"campaign-default/seed{_seed}"] = (
        lambda seed=_seed: _counters(run_campaign(CampaignConfig(seed=seed)))
    )


def run_case(name: str):
    """One case's value as JSON would hand it back (tuples -> lists)."""
    return json.loads(json.dumps(CASES[name]()))


def main() -> None:
    sha = subprocess.check_output(
        ["git", "rev-parse", "HEAD"], cwd=GOLDEN_PATH.parent, text=True
    ).strip()
    payload = {
        "recorded_from": sha,
        "regenerate": REGENERATE,
        "cases": {name: run_case(name) for name in sorted(CASES)},
    }
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
    print(f"{len(payload['cases'])} cases recorded from {sha}")


if __name__ == "__main__":
    main()
