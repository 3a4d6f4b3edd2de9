"""Bulk GF(2^8) arithmetic on byte blocks — the coding hot path.

``parity = G . data`` on encode, ``data = G_sub^-1 . survivors`` on
decode and ``parity ^= g * delta`` on modify are a handful of field
operations applied to every byte of a block.  The coders hold the
coefficient matrices and call the five functions here with ``bytes``
blocks; they never touch numpy arrays for payload data themselves.

Two implementations sit behind those functions, because neither wins
everywhere:

* *gather*: ``scalar * vec`` is one ``np.take`` through a row of the
  64 KiB full multiplication table, and XOR folds in place on ``uint8``
  arrays — no masks, no boolean intermediates, no Python loop over
  payload bytes.  Wrapping buffers as arrays costs a few microseconds
  per call, after which it runs at memory speed.
* *translate*: ``scalar * vec`` is ``bytes.translate`` through the same
  table row, and block-wide XOR runs through arbitrary-precision ints.
  Almost no fixed cost, so it is 2-3x faster on the paper's small
  blocks, but big-int XOR falls behind numpy as blocks grow.

Each public function picks by the length of the block it is handed,
against the one constant :data:`CROSSOVER_BYTES`.  The coders reject
mixed-length stripes before calling in, so the first block's length
speaks for all of them.  docs/PERFORMANCE.md records the block-size
sweep the constant was set from; ``benchmarks/test_bench_erasure.py``
re-runs it.  Both implementations are byte-identical to the masked
log/antilog reference the tests keep (``tests/erasure/oracle.py``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import CodingError
from ..types import Block
from .gf256 import GF256

__all__ = ["CROSSOVER_BYTES", "matmul", "scale", "addmul", "xor", "xor_all"]

#: Blocks shorter than this take the translate implementation, longer
#: ones the gather implementation.
CROSSOVER_BYTES = 2048

#: ``_MUL[a, b] = a * b`` for all 65536 operand pairs.
_MUL = GF256.mul_table()

#: The same table as 256 ``bytes.translate`` tables, one per scalar.
_TRANSLATE = [row.tobytes() for row in _MUL]


def matmul(
    coeffs: Sequence[Sequence[int]], blocks: Sequence[Block]
) -> List[bytes]:
    """``coeffs (rows x cols)`` times the column of ``cols`` blocks.

    ``coeffs`` is a small coefficient matrix (any nested sequence of
    ints, including a numpy array) — tiny compared to the blocks, so
    per-element access cost does not matter.
    """
    rows = len(coeffs)
    if rows == 0:
        # Zero output rows (e.g. a parity-free code): nothing to
        # multiply, any number of input blocks is acceptable.
        return []
    cols = len(coeffs[0])
    if len(blocks) != cols:
        raise CodingError(
            f"matmul dimension mismatch: matrix cols={cols}, "
            f"data rows={len(blocks)}"
        )
    if len(blocks[0]) < CROSSOVER_BYTES:
        return _matmul_translate(coeffs, blocks)
    return _matmul_gather(coeffs, blocks)


def _matmul_gather(coeffs, blocks) -> List[bytes]:
    """One gather + one in-place XOR per (row, coefficient) pair.

    The first product of each output row is written straight into the
    output to skip the zero-fill, and zero coefficients are skipped
    entirely.
    """
    matrix = np.asarray(coeffs, dtype=np.uint8)
    rows = matrix.shape[0]
    width = len(blocks[0])
    data = np.frombuffer(
        b"".join(bytes(block) for block in blocks), dtype=np.uint8
    ).reshape(len(blocks), width)
    out = np.empty((rows, width), dtype=np.uint8)
    scratch = np.empty(width, dtype=np.uint8)
    for r in range(rows):
        accum = out[r]
        fresh = True  # accum not yet written this row
        for c in range(matrix.shape[1]):
            scalar = matrix[r, c]
            if scalar == 0:
                continue
            if fresh:
                if scalar == 1:
                    accum[:] = data[c]
                else:
                    np.take(_MUL[scalar], data[c], out=accum)
                fresh = False
            elif scalar == 1:
                np.bitwise_xor(accum, data[c], out=accum)
            else:
                np.take(_MUL[scalar], data[c], out=scratch)
                np.bitwise_xor(accum, scratch, out=accum)
        if fresh:
            accum.fill(0)
    return [out[r].tobytes() for r in range(rows)]


def _matmul_translate(coeffs, blocks) -> List[bytes]:
    width = len(blocks[0])
    raw = [bytes(block) for block in blocks]
    # One int conversion per input block, shared across all rows.
    as_int = [int.from_bytes(block, "little") for block in raw]
    out = []
    for row in coeffs:
        accum = 0
        for c, scalar in enumerate(row):
            if scalar == 0:
                continue
            if scalar == 1:
                accum ^= as_int[c]
            else:
                product = raw[c].translate(_TRANSLATE[scalar])
                accum ^= int.from_bytes(product, "little")
        out.append(accum.to_bytes(width, "little"))
    return out


def scale(scalar: int, data: Block) -> bytes:
    """``scalar * data`` over every byte.

    ``bytes.translate`` is at or within noise of the gather at every
    block length, so this has the one implementation.
    """
    data = bytes(data)
    if scalar == 0:
        return bytes(len(data))
    if scalar == 1:
        return data
    return data.translate(_TRANSLATE[scalar])


def addmul(accum: Block, scalar: int, data: Block) -> bytes:
    """``accum ^ scalar * data`` — the GEMM kernel of RS coding."""
    accum = bytes(accum)
    if scalar == 0:
        return accum
    if len(accum) < CROSSOVER_BYTES:
        folded = int.from_bytes(accum, "little") ^ int.from_bytes(
            scale(scalar, data), "little"
        )
        return folded.to_bytes(len(accum), "little")
    accum_arr = np.frombuffer(accum, dtype=np.uint8)
    data_arr = np.frombuffer(bytes(data), dtype=np.uint8)
    if scalar == 1:
        return np.bitwise_xor(accum_arr, data_arr).tobytes()
    product = np.take(_MUL[scalar], data_arr)
    np.bitwise_xor(product, accum_arr, out=product)
    return product.tobytes()


def xor_all(blocks: Sequence[Block]) -> bytes:
    """XOR of one or more equal-length blocks."""
    raw = [bytes(block) for block in blocks]
    if len(raw[0]) < CROSSOVER_BYTES:
        accum = 0
        for block in raw:
            accum ^= int.from_bytes(block, "little")
        return accum.to_bytes(len(raw[0]), "little")
    if len(raw) == 1:
        return raw[0]
    arrays = [np.frombuffer(block, dtype=np.uint8) for block in raw]
    accum = np.bitwise_xor(arrays[0], arrays[1])
    for array in arrays[2:]:
        np.bitwise_xor(accum, array, out=accum)
    return accum.tobytes()


def xor(a: Block, b: Block) -> bytes:
    """``a ^ b`` (field addition) of two blocks."""
    return xor_all((a, b))
