"""Background scrub-and-repair: auditing checksummed storage for rot.

:mod:`repro.scrub.daemon` holds the daemon and its one scheduler;
:mod:`repro.scrub.sampler` the sampling math, the lap permutation and
the queues; :mod:`repro.analysis.scrub` runs the
detection-latency / repair-throughput experiments the scrub bench and
CLI report.
"""

from .daemon import ScrubConfig, ScrubDaemon
from .sampler import (
    PairSampler,
    RepairQueue,
    RevisitQueue,
    detection_confidence,
    required_samples,
)

__all__ = [
    "ScrubConfig",
    "ScrubDaemon",
    "PairSampler",
    "RepairQueue",
    "RevisitQueue",
    "detection_confidence",
    "required_samples",
]
