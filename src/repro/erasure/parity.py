"""Single-parity (XOR / RAID-5 style) erasure code.

The paper notes that parity codes are the ``m = n - 1`` special case of
erasure coding (RAID-5).  XOR parity is worth a dedicated implementation
because it avoids all field multiplications: encode, decode, and modify
are pure XOR, matching what a real brick's parity engine would do.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import CodingError
from ..types import Block
from . import kernels
from .interface import ErasureCode

__all__ = ["SingleParityCode"]


class SingleParityCode(ErasureCode):
    """XOR parity code with ``n = m + 1`` (RAID-5 within a stripe)."""

    def __init__(self, m: int, n: int) -> None:
        super().__init__(m, n)
        if n != m + 1:
            raise CodingError(
                f"SingleParityCode requires n = m + 1, got m={m} n={n}"
            )

    def encode(self, data_blocks: Sequence[Block]) -> List[Block]:
        self._check_encode_args(data_blocks)
        encoded = [bytes(block) for block in data_blocks]
        encoded.append(kernels.xor_all(data_blocks))
        return encoded

    def decode(self, blocks: Dict[int, Block]) -> List[Block]:
        self._check_decode_args(blocks)
        present = set(blocks)
        data_indices = set(range(1, self.m + 1))
        missing = data_indices - present
        if not missing:
            return [bytes(blocks[i]) for i in range(1, self.m + 1)]
        if len(missing) > 1:
            raise CodingError(
                f"single parity can reconstruct one missing data block, "
                f"missing {sorted(missing)}"
            )
        if self.n not in present:
            raise CodingError(
                "missing a data block and the parity block: cannot decode"
            )
        missing_index = missing.pop()
        survivors = [blocks[i] for i in sorted(data_indices - {missing_index})]
        survivors.append(blocks[self.n])
        reconstructed = kernels.xor_all(survivors)
        data = []
        for i in range(1, self.m + 1):
            data.append(reconstructed if i == missing_index else bytes(blocks[i]))
        return data

    def modify(
        self, i: int, j: int, old_data: Block, new_data: Block, old_parity: Block
    ) -> Block:
        self._check_modify_args(i, j, old_data, new_data, old_parity)
        return kernels.xor_all([old_data, new_data, old_parity])
