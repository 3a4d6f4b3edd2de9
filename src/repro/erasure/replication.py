"""Replication as the degenerate ``m = 1`` erasure code.

The paper's Figure 5 example uses "replication as a special case of
erasure coding": a stripe size of one where every parity block is a copy
of the data block.  Implementing it under the common
:class:`~repro.erasure.interface.ErasureCode` interface lets the storage
register run unchanged over replicated data, which is also how we build
the replication baselines used in the Table 1 and reliability
comparisons.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import CodingError
from ..types import Block
from .interface import ErasureCode

__all__ = ["ReplicationCode"]


class ReplicationCode(ErasureCode):
    """n-way replication: every output block is a copy of the datum."""

    def __init__(self, m: int, n: int) -> None:
        super().__init__(m, n)
        if m != 1:
            raise CodingError(f"ReplicationCode requires m = 1, got m={m}")

    def encode(self, data_blocks: Sequence[Block]) -> List[Block]:
        self._check_encode_args(data_blocks)
        block = bytes(data_blocks[0])
        return [block] * self.n

    def decode(self, blocks: Dict[int, Block]) -> List[Block]:
        self._check_decode_args(blocks)
        values = {bytes(block) for block in blocks.values()}
        if len(values) != 1:
            raise CodingError(
                "replicas disagree; decode of inconsistent copies is undefined"
            )
        return [values.pop()]

    def modify(
        self, i: int, j: int, old_data: Block, new_data: Block, old_parity: Block
    ) -> Block:
        self._check_modify_args(i, j, old_data, new_data, old_parity)
        return bytes(new_data)
