"""Fault-campaign suites: seed sweeps, reports, JSON artifacts.

Drives :func:`repro.campaign.run_campaign` over a list of seeds,
shrinks any violating schedule to a reproducer, and renders the whole
sweep as a text report plus a machine-readable JSON artifact (written
by ``repro campaign --json PATH``).

The JSON payload is a pure function of the configuration and seeds —
no wall-clock times — so repeated runs produce byte-identical
artifacts, which is itself checked by the determinism test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..campaign.engine import (
    CRASH_WEIGHT,
    DROP_WEIGHT,
    MAX_CLOCK_SKEW,
    PARTITION_WEIGHT,
    CampaignConfig,
    CampaignResult,
    run_campaign,
)
from ..campaign.shrinker import ShrinkResult, shrink_schedule

__all__ = ["SeedOutcome", "SuiteResult", "run_suite", "render_report", "to_json"]


@dataclass
class SeedOutcome:
    """One seed's campaign result, plus its reproducer if it violated."""

    result: CampaignResult
    reproducer: Optional[ShrinkResult] = None

    def to_dict(self) -> Dict:
        payload = self.result.to_dict()
        if self.reproducer is not None:
            payload["reproducer"] = self.reproducer.to_dict()
            payload["reproducer"]["clock_skews"] = {
                str(pid): skew
                for pid, skew in self.result.schedule.clock_skews.items()
            }
        return payload


@dataclass
class SuiteResult:
    """A whole seed sweep under one configuration."""

    config: CampaignConfig
    outcomes: List[SeedOutcome] = field(default_factory=list)

    @property
    def violating(self) -> List[SeedOutcome]:
        return [o for o in self.outcomes if not o.result.ok]

    @property
    def ok(self) -> bool:
        return not self.violating

    def to_dict(self) -> Dict:
        cfg = self.config
        return {
            "benchmark": "campaign",
            "config": {
                "m": cfg.m,
                "n": cfg.n,
                "f": cfg.effective_f,
                "allow_unsafe_f": cfg.allow_unsafe_f,
                "registers": cfg.registers,
                "clients": cfg.clients,
                "ops_per_client": cfg.ops_per_client,
                "duration": cfg.duration,
                "crash_weight": CRASH_WEIGHT,
                "partition_weight": PARTITION_WEIGHT,
                "drop_weight": DROP_WEIGHT,
                "corrupt_weight": cfg.corrupt_weight,
                "scrub_enabled": cfg.scrub_enabled,
                "max_clock_skew": MAX_CLOCK_SKEW,
            },
            "seeds": [o.result.seed for o in self.outcomes],
            "ok": self.ok,
            "violating_seeds": [o.result.seed for o in self.violating],
            "results": [o.to_dict() for o in self.outcomes],
        }


def run_suite(
    config: CampaignConfig,
    seeds: Sequence[int],
) -> SuiteResult:
    """Run the campaign for every seed; shrink violating schedules.

    Args:
        config: base configuration; each run uses it with its own seed.
        seeds: campaign seeds to sweep.

    A violating schedule is minimized (ddmin) to a reproducer.
    """
    from dataclasses import replace

    suite = SuiteResult(config=config)
    for seed in seeds:
        seeded = replace(config, seed=seed)
        result = run_campaign(seeded)
        outcome = SeedOutcome(result=result)
        if not result.ok:
            outcome.reproducer = shrink_schedule(seeded, result.schedule)
        suite.outcomes.append(outcome)
    return suite


def render_report(suite: SuiteResult) -> str:
    """Human-readable sweep summary."""
    cfg = suite.config
    lines = [
        f"Fault campaign — m={cfg.m} n={cfg.n} f={cfg.effective_f}"
        + (" (UNSAFE: n < 2f + m)" if cfg.allow_unsafe_f else ""),
        f"{len(suite.outcomes)} seeds × {cfg.clients} clients × "
        f"{cfg.ops_per_client} ops, duration {cfg.duration:g} "
        f"(mix crash:{CRASH_WEIGHT:g} part:{PARTITION_WEIGHT:g} "
        f"drop:{DROP_WEIGHT:g} corrupt:{cfg.corrupt_weight:g})"
        + (" [scrub on]" if cfg.scrub_enabled else ""),
        "",
        f"{'seed':>6} {'events':>7} {'ok':>5} {'abort':>6} {'crash':>6} "
        f"{'pend':>5} {'recov':>6} {'violations':>11}",
    ]
    for outcome in suite.outcomes:
        r = outcome.result
        lines.append(
            f"{r.seed:>6} {r.schedule_events:>7} "
            f"{r.ops.get('ok', 0):>5} {r.ops.get('aborted', 0):>6} "
            f"{r.ops.get('crashed', 0):>6} {r.ops.get('pending', 0):>5} "
            f"{r.recoveries_checked:>6} {len(r.violations):>11}"
        )
    lines.append("")
    if cfg.corrupt_weight > 0:
        injected = sum(
            o.result.corruption.get("corruptions_injected", 0)
            for o in suite.outcomes
        )
        detected = sum(
            o.result.corruption.get("checksum_failures", 0)
            for o in suite.outcomes
        )
        degraded = sum(
            o.result.corruption.get("degraded_reads", 0)
            for o in suite.outcomes
        )
        lines.append(
            f"corruption: {injected} injected, {detected} detected, "
            f"{degraded} degraded reads across all seeds"
        )
        lines.append("")
    if suite.ok:
        lines.append("no invariant violations")
    for outcome in suite.violating:
        r = outcome.result
        lines.append(f"seed {r.seed}: {len(r.violations)} violation(s)")
        for violation in r.violations[:4]:
            lines.append(
                f"  [{violation.invariant} @t={violation.time:g}] "
                f"{violation.detail}"
            )
        if len(r.violations) > 4:
            lines.append(f"  ... and {len(r.violations) - 4} more")
        if outcome.reproducer is not None:
            rep = outcome.reproducer
            lines.append(
                f"  reproducer: {rep.original_events} events shrunk to "
                f"{len(rep.events)} in {rep.runs} re-runs"
            )
            for event in rep.events:
                lines.append(
                    f"    t={event.time:g} {event.kind} "
                    f"targets={list(event.targets)} value={event.value:g}"
                )
    return "\n".join(lines) + "\n"


def to_json(suite: SuiteResult) -> str:
    """Machine-readable artifact (deterministic: no wall-clock fields)."""
    return json.dumps(suite.to_dict(), indent=2)
