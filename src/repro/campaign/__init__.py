"""Randomized fault campaigns with online invariant checking.

The paper claims strict linearizability "for all patterns of crash
failures and subsequent recoveries" — this package hunts for
counterexamples.  A campaign composes crash/recovery churn, network
partitions, message-drop windows, and clock skew into a seeded,
fully deterministic :mod:`schedule <repro.campaign.schedule>`, runs it
against a live cluster under a mixed workload
(:mod:`engine <repro.campaign.engine>`), checks invariants online
(:mod:`invariants <repro.campaign.invariants>`), and on violation
minimizes the schedule to a small reproducer
(:mod:`shrinker <repro.campaign.shrinker>`).

Entry points: :func:`run_campaign` for one seed,
:func:`repro.analysis.campaign.run_suite` for a seed sweep, and
``python -m repro.cli campaign`` from the shell.
"""

from .engine import CampaignConfig, CampaignResult, broken_config, run_campaign
from .invariants import CampaignMonitor, Violation
from .schedule import (
    CampaignSchedule,
    FaultEvent,
    apply_event,
    apply_schedule,
    generate_schedule,
)
from .shrinker import ShrinkResult, ddmin, shrink_schedule

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CampaignMonitor",
    "CampaignSchedule",
    "FaultEvent",
    "ShrinkResult",
    "Violation",
    "apply_event",
    "apply_schedule",
    "broken_config",
    "ddmin",
    "generate_schedule",
    "run_campaign",
    "shrink_schedule",
]
