"""Background scrub-and-repair: auditing checksummed storage for rot.

:mod:`repro.scrub.daemon` holds the daemon: each wake-up audits every
(register, brick) pair and queues repairs for what it finds;
:mod:`repro.analysis.scrub` runs the detection-latency /
repair-throughput experiments the scrub bench and CLI report.
"""

from .daemon import ScrubDaemon

__all__ = ["ScrubDaemon"]
