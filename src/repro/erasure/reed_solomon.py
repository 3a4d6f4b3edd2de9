"""Systematic Reed-Solomon coding over GF(2^8).

The code is defined by an ``n x m`` generator matrix ``G`` whose top
``m x m`` block is the identity (systematic) and whose every ``m`` rows
are linearly independent (MDS).  Encoding computes ``G . d`` where ``d``
is the column of data blocks; decoding selects the ``m`` generator rows
matching the surviving blocks, inverts that square matrix, and multiplies.

Because the code is linear, the paper's ``modify`` primitive is a
one-coefficient update: if data block ``i`` changes by ``delta = b_i ^
b'_i``, parity block ``j`` changes by ``G[j-1, i-1] * delta``
(:meth:`ReedSolomonCode.apply_delta`).

All block-size arithmetic runs through :mod:`repro.erasure.kernels`:
the coder holds coefficient matrices and hands blocks to
``kernels.matmul`` / ``kernels.addmul``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..errors import CodingError
from ..types import Block
from . import kernels
from .cache import BoundedLRU
from .gf256 import GF256
from .interface import ErasureCode
from .matrix import invert, submatrix, systematic_from_vandermonde

__all__ = ["ReedSolomonCode"]


class ReedSolomonCode(ErasureCode):
    """m-out-of-n systematic Reed-Solomon code (supports ``n <= 256``).

    The generator matrix is derived from a Vandermonde matrix (see
    :func:`repro.erasure.matrix.systematic_from_vandermonde`), following
    Plank's construction.  Decoding matrices are cached per survivor set
    since steady-state workloads decode from few distinct patterns; the
    cache is a small LRU so campaign-scale survivor churn (every crash
    pattern is a new set) cannot grow it without bound.
    """

    #: Max cached decode matrices.  Steady state uses a handful of
    #: survivor patterns; fault campaigns cycle through many, and each
    #: entry is an m x m matrix that would otherwise live forever.
    DECODE_CACHE_SIZE = 64

    def __init__(self, m: int, n: int) -> None:
        super().__init__(m, n)
        if n > GF256.ORDER:
            raise CodingError(f"Reed-Solomon over GF(2^8) requires n <= 256, got {n}")
        self._generator = systematic_from_vandermonde(m, n)
        self._decode_cache: BoundedLRU[frozenset, np.ndarray] = BoundedLRU(
            lambda: self.DECODE_CACHE_SIZE
        )

    @property
    def generator_matrix(self) -> np.ndarray:
        """A copy of the ``n x m`` generator matrix."""
        return self._generator.copy()

    def coefficient(self, i: int, j: int) -> int:
        """Generator coefficient ``g[j][i]`` tying data ``i`` to output ``j``.

        Both indices are 1-based; ``j`` may name any output block.
        """
        if not 1 <= i <= self.m or not 1 <= j <= self.n:
            raise CodingError(f"coefficient indices out of range: i={i}, j={j}")
        return int(self._generator[j - 1, i - 1])

    def encode(self, data_blocks: Sequence[Block]) -> List[Block]:
        self._check_encode_args(data_blocks)
        encoded = [bytes(block) for block in data_blocks]
        if self.parity_count:
            parity_rows = self._generator[self.m :, :]
            encoded.extend(kernels.matmul(parity_rows, encoded))
        return encoded

    def decode(self, blocks: Dict[int, Block]) -> List[Block]:
        self._check_decode_args(blocks)
        indices = sorted(blocks)[: self.m]
        # Fast path: all m data blocks survived.
        if indices == list(range(1, self.m + 1)):
            return [bytes(blocks[i]) for i in indices]
        decode_matrix = self._decode_matrix(frozenset(indices))
        return kernels.matmul(
            decode_matrix, [blocks[i] for i in indices]
        )

    def _decode_matrix(self, survivor_set: frozenset) -> np.ndarray:
        def build() -> np.ndarray:
            rows = [index - 1 for index in sorted(survivor_set)]
            return invert(submatrix(self._generator, rows))

        return self._decode_cache.get_or_compute(survivor_set, build)

    # Inherited, but also bound in this class body: benchmarks/e2e/trace.py
    # wraps encode/decode/modify/encode_delta/apply_delta through
    # vars(ReedSolomonCode) until ROADMAP 5(a) moves it to public names.
    modify = ErasureCode.modify
    encode_delta = ErasureCode.encode_delta

    def apply_delta(self, i: int, j: int, delta: Block, old_parity: Block) -> Block:
        """``c'_j = c_j ^ g[j][i] * delta`` for a delta from :meth:`encode_delta`."""
        if not self.m + 1 <= j <= self.n:
            raise CodingError(
                f"parity index j={j} out of range {self.m + 1}..{self.n}"
            )
        coeff = int(self._generator[j - 1, i - 1])
        return kernels.addmul(old_parity, coeff, delta)
