"""The benchmark's command line: run workloads, check, print, record.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--json PATH] [--check-determinism]

Each workload runs in fresh subprocesses (:mod:`benchmarks.e2e.worker`):
the untraced pass is :data:`ROUNDS` rounds, each a new process that
sets up, warms up and times trials for its share of ``--seconds``, so
``setup_s`` and ``peak_rss_mib`` get one sample per round and the
throughput medians span several process lifetimes.  ``--trace 1`` runs
the traced pass instead and prints the per-layer table; a bare
``--trace`` runs both.  The last line of output is the result object
``BENCHMARK.json``'s contract asks for.  This module imports nothing
from ``repro``, so it also starts where the library is missing — and
then fails, as it should.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from .metrics import (
    END_TO_END,
    PER_LAYER,
    REPORTED,
    percentile,
    summarize,
    supported_percentile,
)

__all__ = ["main", "run_workload", "host_metadata", "WORKLOAD_NAMES", "GATED"]

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Fresh processes per untraced run; each gives one set-up sample.
ROUNDS = 3
#: Timed trials a round runs at least (3 rounds x 2 >= 5 per run).
MIN_TRIALS = 2
#: A child that has printed nothing after this long is killed.
CHILD_TIMEOUT_S = 90.0

#: Kept in step with ``workloads.WORKLOADS`` by a self-test; spelled out
#: here so that listing them needs no import of ``repro``.
WORKLOAD_NAMES = [
    "sim-small-rw", "sim-large-stripe", "sim-degraded", "tcp-open-rw",
    "tcp-closed-c2", "loopback-c1000", "campaign-seeds", "tcp-closed-c8",
]
GATED = WORKLOAD_NAMES[:-1]


def _child(spec: Dict[str, object]) -> Dict[str, object]:
    """Run one worker process; returns its result (``error`` on failure)."""
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    spec = dict(spec, started_at=time.time())
    try:
        done = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.worker", json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker for {spec['workload']} killed after "
              f"{CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return {"error": True}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": True}
    result["exit_code"] = done.returncode
    return result


def _pooled(rounds: Sequence[dict], key: str, q: float) -> Optional[dict]:
    """A latency percentile over every sample of the run.

    ``median`` holds the percentile of the pooled samples (the tail
    needs all of them: a round alone has too few beyond its p95);
    the quartiles are over the rounds' own percentiles.
    """
    per_round = [
        [ms for trial in result["trials"] for ms in trial[key]]
        for result in rounds
    ]
    pooled = [ms for samples in per_round for ms in samples]
    if not pooled:
        return None
    summary = summarize([percentile(s, q) for s in per_round if s])
    summary["median"] = percentile(pooled, q)
    summary["n"] = len(pooled)
    return summary


def run_workload(
    name: str, seed: int, seconds: float, traced: bool,
    port_base: Optional[int] = None,
) -> Dict[str, object]:
    """One pass of one workload; returns its aggregated result."""
    spec = {
        "workload": name, "seed": seed, "port_base": port_base,
        "trace": traced, "budget_s": seconds / ROUNDS,
        "min_trials": MIN_TRIALS,
    }
    rounds = []
    for index in range(1 if traced else ROUNDS):
        result = _child(dict(spec, round=index))
        if result.get("error"):
            return {"workload": name, "error": True}
        rounds.append(result)
    trials = [trial for result in rounds for trial in result["trials"]]
    failed = sum(result["failed"] for result in rounds)
    timed_out = any(result["timed_out"] for result in rounds)
    summary: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "rounds": len(rounds),
        "trials": len(trials),
        "attempted": sum(result["attempted"] for result in rounds),
        "failed": failed,
        "timed_out": timed_out,
        "correct": failed == 0 and not timed_out and all(
            result["exit_code"] == 0 for result in rounds
        ),
        "digest": [result["digest"] for result in rounds],
        "exact_counters": rounds[0]["exact_counters"],
    }
    values = {
        "setup_s": [result["setup_s"] for result in rounds],
        "ops_per_s": [t["ops"] / t["wall_s"] for t in trials],
        "cpu_ms_per_op": [
            t["cpu_s"] * 1000.0 / max(1, t["ops"]) for t in trials
        ],
        "peak_rss_mib": [result["peak_rss_mib"] for result in rounds],
    }
    if any(t["seeds"] for t in trials):
        values["seeds_per_s"] = [t["seeds"] / t["wall_s"] for t in trials]
    if any(result["space_amp"] for result in rounds):
        values["space_amp"] = [result["space_amp"] for result in rounds]
    e2e = {key: summarize(samples) for key, samples in values.items()}
    for kind in ("read", "write"):
        for label, q in (("p50", 0.50), ("p95", 0.95)):
            pooled = _pooled(rounds, f"{kind}_ms", q)
            if pooled is not None:
                e2e[f"{kind}_{label}_ms"] = pooled
    summary["e2e"] = e2e
    samples = [ms for t in trials for ms in t["read_ms"] + t["write_ms"]]
    if (supported_percentile(len(samples) // 2) or 0) >= 0.99:
        summary["diagnostic_p99_ms"] = percentile(samples, 0.99)
    if traced:
        summary["layers"] = rounds[0]["layers"]
        summary["spans"] = rounds[0]["spans"]
        summary["trace_file"] = rounds[0]["trace_file"]
    return summary


def _print_summary(summary: Dict[str, object]) -> None:
    print(
        f"\n== {summary['workload']}  seed {summary['seed']}  "
        f"{'traced' if summary['traced'] else 'untraced'}  "
        f"rounds {summary['rounds']}  trials {summary['trials']}  "
        f"ops_attempted {summary['attempted']}  "
        f"ops_failed {summary['failed']}"
        + ("  DEADLINE HIT" if summary["timed_out"] else "")
    )
    if summary["traced"]:
        for metric in PER_LAYER:
            value = summary["layers"][metric.name]
            mark = "†" if metric.exact else " "
            print(f"  {metric.name:<38}{mark} {value:>14.6g} {metric.unit}")
        print(f"  spans: {summary['spans']} (first ones in "
              f"{summary['trace_file']}); layer self times sum to the "
              "traced wall (asserted)")
        return
    for title, metrics in (("gated", END_TO_END), ("reported", REPORTED)):
        for metric in metrics:
            row = summary["e2e"].get(metric.name)
            if row is None:
                continue
            print(
                f"  {metric.name:<16} {row['median']:>12.4f} "
                f"{metric.unit:<8} q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  "
                f"n={row['n']}  [{title}, bound {metric.bound}]"
            )
    if "diagnostic_p99_ms" in summary:
        print(f"  (diagnostic only) op p99 "
              f"{summary['diagnostic_p99_ms']:.3f} ms")


def _contract_line(summary: Dict[str, object]) -> str:
    """The result object of ``BENCHMARK.json``'s contract."""
    if summary["traced"]:
        metrics = {
            metric.name: {
                "value": summary["layers"][metric.name], "unit": metric.unit
            }
            for metric in PER_LAYER
        }
    else:
        metrics = {
            metric.name: {
                "value": summary["e2e"][metric.name]["median"],
                "unit": metric.unit,
            }
            for metric in END_TO_END
        }
    return json.dumps({
        "correct": bool(summary["correct"]),
        "attempted": max(1, int(summary["attempted"])),
        "failed": int(summary["failed"]),
        "metrics": metrics,
    })


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ("git",) + args, cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def host_metadata() -> Dict[str, object]:
    """What a later reader needs to compare this artifact with another."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain")),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "rounds": ROUNDS,
        "min_trials_per_round": MIN_TRIALS,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _check_determinism(args) -> int:
    """Run each workload's fixed-size traced pass twice and compare.

    The input digest must match everywhere; on the sim workloads and
    the campaign the exact (†) counters must too.
    """
    exact = [metric.name for metric in PER_LAYER if metric.exact]
    status = 0
    for name in args.workload:
        first, second = (
            run_workload(name, args.seed, args.seconds, True, args.port_base)
            for _ in range(2)
        )
        if first.get("error") or second.get("error"):
            print(f"{name}: worker failed")
            status = 1
            continue
        differing = ["digest"] if first["digest"] != second["digest"] else []
        checked = "identical inputs"
        if first["exact_counters"]:
            differing += [
                key for key in exact
                if first["layers"][key] != second["layers"][key]
            ]
            checked += f" and {len(exact)} exact counters"
        print(f"{name}: digest {first['digest'][0]}  "
              + (f"DIFFERS in {differing}" if differing else checked))
        status |= bool(differing)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: the gated ones)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=8.0,
        help="measuring time of one untraced run (default 8)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0",
        choices=["0", "1", "both"],
        help="0: untraced pass (default); 1: traced pass; bare: both",
    )
    parser.add_argument("--json", help="write a self-describing artifact")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument(
        "--port-base", type=int,
        help="first TCP port to try (a free block is probed from there)",
    )
    args = parser.parse_args(argv)
    args.workload = args.workload or GATED
    if args.check_determinism:
        return _check_determinism(args)

    artifact = {"meta": dict(host_metadata(), seed=args.seed,
                             seconds=args.seconds), "workloads": {}}
    status, last = 0, None
    for name in args.workload:
        for traced in {"0": [False], "1": [True], "both": [False, True]}[
            args.trace
        ]:
            summary = run_workload(
                name, args.seed, args.seconds, traced, args.port_base
            )
            if summary.get("error"):
                print(f"{name}: worker failed", file=sys.stderr)
                return 2
            _print_summary(summary)
            entry = artifact["workloads"].setdefault(name, {})
            entry["traced" if traced else "untraced"] = summary
            status |= not summary["correct"]
            last = summary
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(artifact, indent=1) + "\n")
    print(_contract_line(last))
    return status
