"""One fresh process = one round of one workload.

The parent (:mod:`benchmarks.e2e.cli`) starts this module with a JSON
spec on the command line and reads one JSON result from the last line
of standard output.  An untraced round is: set up, one untimed warm-up
trial, then as many timed trials of a fixed amount of work as the
round's share of ``--seconds`` holds at the workload's nominal trial
time (never fewer than ``min_trials``).  The count depends on
``--seconds`` alone, not on how fast this commit is, so every run with
one seed does identical work.  The traced round adds one untraced
reference trial, installs the wrappers, runs the workload's fixed
number of traced trials and removes the wrappers again.

Exit status is non-zero when any operation failed, a deadline was hit,
or the round raised; the counters are printed either way.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import resource
import sys
import time
import traceback
from typing import Dict, List, Optional

from . import layers, trace
from .loadgen import digest
from .workloads import WORKLOADS, AioWorkload, Trial

__all__ = ["run_round", "main"]

#: A round that is still running after this long is cut off: unfinished
#: ops count as failed and the process exits non-zero.  A collapse of
#: the TCP path then costs seconds, not minutes, and never hangs.
HARD_DEADLINE_S = 25.0
#: Spans written to ``out/trace-<workload>.jsonl`` (the first ones).
TRACE_FILE_SPANS = 50_000
OUT_DIR = pathlib.Path(__file__).parent / "out"


def _trial_dict(trial: Trial) -> Dict[str, object]:
    return {
        "wall_s": trial.wall_s,
        "cpu_s": trial.cpu_s,
        "attempted": trial.attempted,
        "failed": trial.failed,
        "ops": trial.ops,
        "seeds": trial.seeds,
        "read_ms": trial.read_ms,
        "write_ms": trial.write_ms,
        "timed_out": trial.timed_out,
    }


async def _probe_pump_lag(transport, lag_ms: List[float]) -> None:
    """Every 50 ms arm a 10 ms transport timer; record how late it fires."""
    def arm() -> None:
        due = time.perf_counter() + 0.010
        transport.set_timer(
            10.0, lambda: lag_ms.append((time.perf_counter() - due) * 1e3)
        )
    while True:
        arm()
        await asyncio.sleep(0.050)


class TracedPass:
    """The wrappers' lifetime and the numbers the layer table needs."""

    def __init__(self) -> None:
        self.tracer, self.patches = trace.Tracer(), trace.Patches()
        trace.intercept_handlers(self.tracer, self.patches)
        self.lag_ms: List[float] = []

    async def trials(self, workload, deadline: float) -> List[Trial]:
        """An untraced reference trial, then the fixed traced trials."""
        tracer = self.tracer
        self.reference = await workload.run(
            workload.plan("reference"), deadline
        )
        trace.install(tracer, self.patches)
        if workload.cluster is not None:
            tracer.clusters.append(workload.cluster)
        self.before = layers.snapshot(tracer.clusters)
        self.traced: List[Trial] = []
        probe = None
        tracer.enabled = True
        try:
            if isinstance(workload, AioWorkload):
                probe = asyncio.ensure_future(
                    _probe_pump_lag(workload.transport, self.lag_ms)
                )
            for index in range(workload.traced_trials):
                plan = workload.plan(f"traced.{index}")
                root = tracer.begin("trial", "root")
                try:
                    self.traced.append(await workload.run(plan, deadline))
                finally:
                    tracer.end(root)
                if self.traced[-1].timed_out:
                    break
        finally:
            tracer.enabled = False
            if probe is not None:
                probe.cancel()
                await asyncio.gather(probe, return_exceptions=True)
        self.after = layers.snapshot(tracer.clusters)
        return [self.reference] + self.traced

    def table(self, workload, space_amp: float) -> Dict[str, float]:
        return layers.layer_table(
            self.tracer, self.before, self.after, self.traced,
            self.reference, getattr(workload, "block_size", 0),
            isinstance(workload, AioWorkload), self.lag_ms, space_amp,
        )

    def write_spans(self, name: str) -> str:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{name}.jsonl"
        trace.write_jsonl(path, self.tracer.spans, TRACE_FILE_SPANS)
        return str(path)


async def run_round(spec: Dict[str, object]) -> Dict[str, object]:
    """Run one round described by ``spec``; returns its result dict.

    Spec keys: ``workload``, ``seed``, ``round``, ``budget_s``,
    ``min_trials``, ``trace``, ``scale``, ``port_base``, ``started_at``
    (the parent's ``time.time()`` just before it started this process —
    ``setup_s`` is measured from there).
    """
    workload = WORKLOADS[spec["workload"]](
        int(spec["seed"]), float(spec.get("scale", 1.0)),
        spec.get("port_base"),
    )
    traced = TracedPass() if spec.get("trace") else None
    deadline = time.perf_counter() + HARD_DEADLINE_S
    trials: List[Trial] = []
    extra: Dict[str, float] = {}
    try:
        await workload.setup()
        try:
            trials.append(await workload.run(
                workload.plan("warmup", warmup=True), deadline
            ))
            setup_s = time.time() - float(spec["started_at"])
            # Sampled here, after prefill and warm-up, because that is
            # the same work in every round and pass: exact per seed on
            # the sim, whatever the timed trials then write.
            space_amp = workload.space_amp()
            if traced is not None:
                trials += await traced.trials(workload, deadline)
            else:
                count = max(int(spec["min_trials"]), round(
                    float(spec["budget_s"]) / workload.nominal_trial_s
                ))
                while (
                    len(trials) <= count and not trials[-1].timed_out
                    and time.perf_counter() < deadline
                ):
                    key = f"{spec.get('round', 0)}.{len(trials)}"
                    trials.append(
                        await workload.run(workload.plan(key), deadline)
                    )
                    # Only the traced pass looks at a finished trial's
                    # ops; holding them would grow peak_rss_mib.
                    trials[-1].records.clear()
        finally:
            extra = await workload.teardown()
    finally:
        if traced is not None:
            traced.patches.uninstall()
    violations = int(extra.pop("linearizability_violations", 0))
    timed = traced.traced if traced is not None else trials[1:]
    result: Dict[str, object] = {
        "workload": workload.name,
        "seed": workload.seed,
        # † counters repeat exactly only off the wall clock.
        "exact_counters": not isinstance(workload, AioWorkload),
        "digest": digest(workload.digests),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trials": [_trial_dict(trial) for trial in timed],
        "attempted": sum(trial.attempted for trial in trials),
        "failed": sum(trial.failed for trial in trials) + violations,
        "timed_out": any(trial.timed_out for trial in trials),
        "space_amp": space_amp,
        "extra": extra,
    }
    if traced is not None:
        result["layers"] = traced.table(workload, space_amp)
        result["spans"] = len(traced.tracer.spans)
        result["trace_file"] = traced.write_spans(workload.name)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((argv or sys.argv[1:])[0])
    try:
        result = asyncio.run(run_round(spec))
    except Exception:
        traceback.print_exc()
        print(json.dumps({"workload": spec.get("workload"), "error": True}))
        return 2
    print(json.dumps(result))
    return 1 if result["failed"] or result["timed_out"] else 0


if __name__ == "__main__":
    sys.exit(main())
