"""The paper's primary contribution: the decentralized storage register.

One :class:`~repro.core.register.StorageRegister` emulates a strictly
linearizable read-write register over one erasure-coded stripe
(Algorithms 1-3 of the paper).  A :class:`~repro.core.cluster.FabCluster`
wires ``n`` brick replicas, a fair-loss network, and coordinators into a
runnable system, and :class:`~repro.core.volume.LogicalVolume` composes
many registers into a virtual disk.

Module map (paper section → module):

* Section 4.2 persistent structures → :mod:`repro.core.log`
* Algorithm 2 + Modify handler     → :mod:`repro.core.replica`
* Algorithms 1 and 3 (coordinator) → :mod:`repro.core.coordinator`
* message formats                  → :mod:`repro.core.messages`
* Section 5.1 garbage collection   → the notice a complete write sends
  (``Coordinator._send_gc``, with ``CoordinatorConfig.gc_enabled``) and
  the replica's ``_on_gc`` trim — the only compaction path
* FAB assembly                     → :mod:`repro.core.cluster`
* logical volumes                  → :mod:`repro.core.volume`
* pipelined session engine         → :mod:`repro.core.session`
"""

from .cluster import ClusterConfig, FabCluster
from .coordinator import Coordinator
from .log import LogEntry, ReplicaLog
from .register import StorageRegister
from .replica import Replica
from .session import RetryPolicy, SessionOp, VolumeSession
from .volume import LogicalVolume

__all__ = [
    "FabCluster",
    "ClusterConfig",
    "RetryPolicy",
    "SessionOp",
    "StorageRegister",
    "VolumeSession",
    "Coordinator",
    "Replica",
    "ReplicaLog",
    "LogEntry",
    "LogicalVolume",
]
