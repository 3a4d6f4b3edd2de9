"""The abstract erasure-code interface (paper Section 2.1, Figure 4).

Every code exposes the paper's three primitives:

* ``encode(m data blocks) -> n blocks`` (the first ``m`` are the
  originals, the remaining ``n - m`` are parity);
* ``decode(any m of the n blocks, with their indices) -> the m data
  blocks``;
* ``modify(i, j, old_bi, new_bi, old_cj) -> new_cj`` which recomputes
  parity block ``j`` after data block ``i`` changed, without touching
  the other data blocks.

``modify`` composes the pair the protocol ships (Section 5.2 (b)):
``encode_delta(i, old_bi, new_bi) -> delta`` once at the writer, then
``apply_delta(i, j, delta, old_cj) -> new_cj`` at each parity process.

Indices are **1-based** throughout, matching the paper's ``p_1 .. p_n``
numbering (process ``j`` stores block ``j``).
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Sequence

from ..errors import CodingError
from ..types import Block
from . import kernels

__all__ = ["ErasureCode"]


class ErasureCode(abc.ABC):
    """Abstract base class for m-out-of-n deterministic erasure codes.

    Args:
        m / n: code geometry (m data blocks, n total).
    """

    def __init__(self, m: int, n: int) -> None:
        if m < 1:
            raise CodingError(f"m must be >= 1, got {m}")
        if n < m:
            raise CodingError(f"n must be >= m, got n={n} m={m}")
        self._m = m
        self._n = n

    @property
    def m(self) -> int:
        """Number of data blocks per stripe."""
        return self._m

    @property
    def n(self) -> int:
        """Total number of blocks per stripe (data + parity)."""
        return self._n

    @property
    def parity_count(self) -> int:
        """Number of parity blocks, the paper's ``k = n - m``."""
        return self._n - self._m

    @property
    def storage_overhead(self) -> float:
        """Raw-to-logical capacity ratio ``n / m`` (used by Figure 3)."""
        return self._n / self._m

    def is_decodable(self, indices: Iterable[int]) -> bool:
        """Whether the blocks at ``indices`` suffice to decode a stripe.

        MDS codes (the default) decode from *any* ``m`` distinct valid
        indices.  Non-MDS codes (e.g. local-reconstruction codes) have
        rank-deficient ``m``-subsets and must override this so readers
        can avoid fetching a useless block set.
        """
        valid = {index for index in indices if 1 <= index <= self._n}
        return len(valid) >= self._m

    # -- the three primitives ------------------------------------------

    @abc.abstractmethod
    def encode(self, data_blocks: Sequence[Block]) -> List[Block]:
        """Encode ``m`` data blocks into ``n`` blocks.

        Returns the full list of ``n`` blocks; positions ``0..m-1`` hold
        the original data (the code is systematic), positions ``m..n-1``
        hold parity.
        """

    @abc.abstractmethod
    def decode(self, blocks: Dict[int, Block]) -> List[Block]:
        """Reconstruct the ``m`` data blocks from any ``m`` survivors.

        Args:
            blocks: mapping from 1-based block index to block value; must
                contain at least ``m`` entries.

        Returns:
            The original data blocks ``[b_1, ..., b_m]``.

        Raises:
            CodingError: if fewer than ``m`` blocks are supplied, if an
                index is out of range, or if supplied blocks disagree in
                size.
        """

    def encode_delta(self, i: int, old_data: Block, new_data: Block) -> Block:
        """``b_i ^ b'_i``: one delta every parity applies via :meth:`apply_delta`."""
        if not 1 <= i <= self._m:
            raise CodingError(f"data index i={i} out of range 1..{self._m}")
        if len(old_data) != len(new_data):
            raise CodingError("delta requires equal-size blocks")
        return kernels.xor(old_data, new_data)

    @abc.abstractmethod
    def apply_delta(self, i: int, j: int, delta: Block, old_parity: Block) -> Block:
        """New parity block ``j`` from :meth:`encode_delta`'s ``delta``.

        Args:
            i: 1-based data block index (``1 <= i <= m``).
            j: 1-based parity block index (``m+1 <= j <= n``).
        """

    def modify(
        self, i: int, j: int, old_data: Block, new_data: Block, old_parity: Block
    ) -> Block:
        """Recompute parity block ``j`` after data block ``i`` changed.

        This is the paper's ``modify_{i,j}(b_i, b'_i, c_j)``: given the
        old and new values of data block ``i`` and the old value of
        parity block ``j``, return the new value of parity block ``j``.

        Args:
            i: 1-based data block index (``1 <= i <= m``).
            j: 1-based parity block index (``m+1 <= j <= n``).
        """
        self._check_modify_args(i, j, old_data, new_data, old_parity)
        delta = self.encode_delta(i, old_data, new_data)
        return self.apply_delta(i, j, delta, old_parity)

    # -- shared validation helpers -------------------------------------

    def _check_encode_args(self, data_blocks: Sequence[Block]) -> int:
        """Validate encode input; returns the common block size."""
        if len(data_blocks) != self._m:
            raise CodingError(
                f"encode needs exactly m={self._m} blocks, got {len(data_blocks)}"
            )
        sizes = {len(block) for block in data_blocks}
        if len(sizes) != 1:
            raise CodingError(f"data blocks have differing sizes: {sorted(sizes)}")
        return sizes.pop()

    def _check_decode_args(self, blocks: Dict[int, Block]) -> int:
        """Validate decode input; returns the common block size."""
        if len(blocks) < self._m:
            raise CodingError(
                f"decode needs at least m={self._m} blocks, got {len(blocks)}"
            )
        for index in blocks:
            if not 1 <= index <= self._n:
                raise CodingError(
                    f"block index {index} out of range 1..{self._n}"
                )
        sizes = {len(block) for block in blocks.values()}
        if len(sizes) != 1:
            raise CodingError(f"blocks have differing sizes: {sorted(sizes)}")
        return sizes.pop()

    def _check_modify_args(
        self, i: int, j: int, old_data: Block, new_data: Block, old_parity: Block
    ) -> None:
        if not 1 <= i <= self._m:
            raise CodingError(f"data index i={i} out of range 1..{self._m}")
        if not self._m + 1 <= j <= self._n:
            raise CodingError(
                f"parity index j={j} out of range {self._m + 1}..{self._n}"
            )
        if not len(old_data) == len(new_data) == len(old_parity):
            raise CodingError(
                "modify requires equal-size blocks, got sizes "
                f"{len(old_data)}, {len(new_data)}, {len(old_parity)}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self._m}, n={self._n})"
