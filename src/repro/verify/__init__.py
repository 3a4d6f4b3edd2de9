"""History recording and (strict) linearizability checking.

The paper's correctness claim (Section 3, Appendix B) is that the
storage register is *strictly linearizable*: operations appear atomic
between invocation and response, and a partial operation (coordinator
crashed mid-flight) appears to take effect before the crash or not at
all.

Appendix B reduces the claim to the existence of a *conforming total
order* over observed values (Definition 5).  Under the unique-value
assumption the checker in :mod:`repro.verify.linearizability` tests for
exactly that: it builds the value-precedence constraint graph from the
recorded history and searches for a cycle.  A brute-force Wing&Gong
style oracle in the test suite (``tests/verify/wing_gong.py``)
cross-validates it on small histories.

:mod:`repro.verify.history` records operations — including coordinator
crashes — as they run in the simulator.
"""

from .history import HistoryRecorder, OpRecord
from .linearizability import CheckResult, check_strict_linearizability

__all__ = [
    "HistoryRecorder",
    "OpRecord",
    "CheckResult",
    "check_strict_linearizability",
]
