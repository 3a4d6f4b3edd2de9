"""Table 1's analytic cost formulas.

Parameters follow the paper: ``n`` processes, ``m`` data blocks per
stripe, ``k = n - m`` parity blocks, blocks of ``B`` bytes, one-way
message delay at most δ.  The paper "pessimistically assumes that all
replicas are involved in the execution of an operation" (every request
goes to all ``n``), counts a block read/write in a replica log as one
disk I/O, and keeps timestamps in NVRAM (free).

Operation naming matches the paper: the ``/F`` suffix is the fast path
(no recovery), ``/S`` the slow path (recovery executed, one iteration
of the ``read-prev-stripe`` loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigurationError

__all__ = ["CostRow", "our_costs", "ls97_costs", "table1"]


@dataclass(frozen=True)
class CostRow:
    """One Table 1 column: the cost profile of an operation variant.

    ``latency`` is in δ units, ``bandwidth`` in bytes (given ``B``),
    the rest are counts.
    """

    operation: str
    latency_delta: int
    messages: int
    disk_reads: int
    disk_writes: int
    bandwidth: int


def our_costs(n: int, m: int, block_size: int) -> Dict[str, CostRow]:
    """Analytic costs of our algorithm (Table 1, left columns).

    Keys: ``stripe-read/F``, ``stripe-write``, ``stripe-read/S``,
    ``block-read/F``, ``block-write/F``, ``block-read/S``,
    ``block-write/S``.

    ``block-write/F`` bandwidth is the Section 5.2 (b) figure the
    protocol ships, ``(k + 2)B``: ``b_j`` back from ``p_j``, the new
    block to ``p_j``, one coded delta per parity.  The paper's Table 1
    prints the unoptimised ``(2n + 1)B`` (old and new block to all n).
    """
    if not 1 <= m <= n:
        raise ConfigurationError(f"need 1 <= m <= n, got m={m} n={n}")
    k = n - m
    B = block_size
    return {
        "stripe-read/F": CostRow("stripe-read/F", 2, 2 * n, m, 0, m * B),
        "stripe-write": CostRow("stripe-write", 4, 4 * n, 0, n, n * B),
        "stripe-read/S": CostRow(
            "stripe-read/S", 6, 6 * n, n + m, n, (2 * n + m) * B
        ),
        "block-read/F": CostRow("block-read/F", 2, 2 * n, 1, 0, B),
        "block-write/F": CostRow(
            "block-write/F", 4, 4 * n, k + 1, k + 1, (k + 2) * B
        ),
        "block-read/S": CostRow(
            "block-read/S", 6, 6 * n, n + 1, n, (2 * n + 1) * B
        ),
        "block-write/S": CostRow(
            "block-write/S", 8, 8 * n, k + n + 1, k + n + 1, (4 * n + 1) * B
        ),
    }


def ls97_costs(n: int, block_size: int) -> Dict[str, CostRow]:
    """Analytic costs of the LS97 baseline (Table 1, right columns)."""
    B = block_size
    return {
        "read": CostRow("read", 4, 4 * n, n, n, 2 * n * B),
        "write": CostRow("write", 4, 4 * n, 0, n, n * B),
    }


def table1(n: int, m: int, block_size: int) -> Dict[str, Dict[str, CostRow]]:
    """The full Table 1 for given parameters: both algorithms."""
    return {
        "ours": our_costs(n, m, block_size),
        "ls97": ls97_costs(n, block_size),
    }
