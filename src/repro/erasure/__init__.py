"""Erasure-coding substrate (paper Section 2.1).

This subpackage implements the three primitives the protocol relies on —
``encode``, ``decode``, and ``modify`` — for several deterministic codes:

* :class:`~repro.erasure.reed_solomon.ReedSolomonCode` — systematic
  Reed-Solomon over GF(2^8) for any ``m <= n <= 256``;
* :class:`~repro.erasure.parity.SingleParityCode` — XOR parity
  (RAID-5 layout, ``m = n - 1``);
* :class:`~repro.erasure.lrc.LRCCode` — local-reconstruction code
  (per-group XOR parity + Cauchy global parities) for rebuild locality;
* :class:`~repro.erasure.replication.ReplicationCode` — replication as
  the degenerate ``m = 1`` erasure code, used for the paper's Figure 5
  example and the replication baselines.

All codes share the :class:`~repro.erasure.interface.ErasureCode`
interface.  Use :func:`~repro.erasure.registry.make_code` to construct a
suitable code from ``(m, n)``.  Block-size arithmetic runs through the
GF(2^8) bulk kernels in :mod:`repro.erasure.kernels`.
"""

from .gf256 import GF256
from .interface import ErasureCode
from .lrc import LRCCode, split_parity
from .parity import SingleParityCode
from .reed_solomon import ReedSolomonCode
from .registry import available_codes, make_code
from .replication import ReplicationCode

__all__ = [
    "GF256",
    "ErasureCode",
    "LRCCode",
    "ReedSolomonCode",
    "SingleParityCode",
    "ReplicationCode",
    "make_code",
    "split_parity",
    "available_codes",
]
