"""repro — reproduction of "A Decentralized Algorithm for Erasure-Coded
Virtual Disks" (Frølund, Merchant, Saito, Spence, Veitch; DSN 2004).

The package implements the paper's storage-register protocol — fully
decentralized, strictly linearizable read/write access to erasure-coded
stripes over crash-recovery bricks — together with every substrate it
depends on: Reed-Solomon / parity erasure coding over GF(2^8), m-quorum
systems, a deterministic discrete-event simulation of the asynchronous
fair-loss system model, replication baselines, a strict-linearizability
checker, and the analytic reliability and cost models behind the paper's
Figures 2-3 and Table 1.

Quickstart::

    from repro import open_volume

    volume = open_volume(m=3, n=5, blocks=48, block_size=512)
    session = volume.session()
    session.write(0, b"x" * 512)
    volume.cluster.crash(4)                 # a brick fails...
    assert session.read(0) == b"x" * 512    # ...data survives

(:func:`open_cluster` / :func:`open_volume` live in :mod:`repro.api`;
the layered ``ClusterConfig`` → ``FabCluster`` → ``LogicalVolume``
construction remains available for fine-grained control.  A
``LogicalVolume`` is the address map; :class:`VolumeSession` is the
one client that does I/O on it.)

Subpackages:

* :mod:`repro.core` — the protocol (Algorithms 1-3), cluster, volumes.
* :mod:`repro.erasure` — encode / decode / modify primitives.
* :mod:`repro.quorum` — m-quorum systems and Theorem 2.
* :mod:`repro.sim` — event loop, fair-loss network, crash-recovery nodes.
* :mod:`repro.transport` — the substrate API: deterministic sim or
  asyncio sockets behind one protocol-facing interface.
* :mod:`repro.baselines` — LS97-style replication.
* :mod:`repro.verify` — (strict) linearizability checking.
* :mod:`repro.reliability` — MTTDL / storage-overhead models (Figs 2-3).
* :mod:`repro.analysis` — Table 1 cost model, analytic vs measured.
* :mod:`repro.workloads` — synthetic workload generators.
"""

from .api import open_cluster, open_volume
from .core import (
    ClusterConfig,
    Coordinator,
    FabCluster,
    LogicalVolume,
    Replica,
    RetryPolicy,
    SessionOp,
    StorageRegister,
    VolumeSession,
)
from .erasure import ErasureCode, make_code
from .transport import Endpoint, SimTransport, Transport, make_transport
from .quorum import MajorityMQuorumSystem, mquorum_exists
from .timestamps import HIGH_TS, LOW_TS, Timestamp, TimestampSource
from .types import ABORT, NIL, Block

__version__ = "1.0.0"

__all__ = [
    "open_cluster",
    "open_volume",
    "FabCluster",
    "ClusterConfig",
    "StorageRegister",
    "LogicalVolume",
    "VolumeSession",
    "SessionOp",
    "RetryPolicy",
    "Coordinator",
    "Replica",
    "Transport",
    "SimTransport",
    "Endpoint",
    "make_transport",
    "ErasureCode",
    "make_code",
    "MajorityMQuorumSystem",
    "mquorum_exists",
    "Timestamp",
    "TimestampSource",
    "LOW_TS",
    "HIGH_TS",
    "ABORT",
    "NIL",
    "Block",
    "__version__",
]
