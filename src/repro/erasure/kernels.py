"""Bulk GF(2^8) arithmetic on byte blocks — the coding hot path.

``parity = G . data`` on encode, ``data = G_sub^-1 . survivors`` on
decode and ``parity ^= g * delta`` on modify are a handful of field
operations applied to every byte of a block.  The coders hold the
coefficient matrices and call the five functions here with ``bytes``
blocks; they never touch numpy arrays for payload data themselves.

Three implementations sit behind those functions, because none wins
everywhere:

* *translate*: ``scalar * vec`` is ``bytes.translate`` through a row of
  the 64 KiB full multiplication table, and block-wide XOR runs through
  arbitrary-precision ints.  Almost no fixed cost, so it wins on the
  paper's small blocks, but big-int XOR falls behind numpy as blocks
  grow.  Blocks shorter than :data:`CROSSOVER_BYTES` take it.
* *word*: an output row is computed by Horner's rule over the bits of
  its coefficients, on the blocks viewed as ``uint64`` words:
  ``acc = xtime(acc) ^ (the blocks whose coefficient has this bit)``
  from the top bit down.  ``xtime`` (multiply by x) is six numpy
  operations on eight bytes at a time — no table, no per-byte index
  array.  A row costs ``6 * (top bit) + (set bits)`` word operations,
  so small coefficients (RS(4,8)'s parity rows use 18..28) are cheap.
* *gather*: ``scalar * vec`` is one ``np.take`` through the table row
  and XOR folds in place.  Its cost does not depend on the scalar's
  bits, but numpy widens the ``uint8`` index array to ``intp`` first,
  so one take costs tens of word operations on a large block.

At or above the crossover each output row takes whichever of word and
gather :func:`_word_is_cheaper` prices lower for that row and length —
an op-count rule whose weights come from the block-size sweep in
docs/PERFORMANCE.md (``benchmarks/test_bench_erasure.py`` re-runs it).
Every implementation is byte-identical to the masked log/antilog
reference the tests keep (``tests/erasure/oracle.py``).

Every entry point checks once that it was handed at least one block
and that all blocks have the same length, and raises
:class:`~repro.errors.CodingError` otherwise.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import CodingError
from ..types import Block
from .gf256 import GF256

__all__ = ["CROSSOVER_BYTES", "matmul", "scale", "addmul", "xor", "xor_all"]

#: Blocks shorter than this take the translate implementation; longer
#: ones take word or gather, row by row.
CROSSOVER_BYTES = 2048

#: ``_MUL[a, b] = a * b`` for all 65536 operand pairs.
_MUL = GF256.mul_table()

#: The same table as 256 ``bytes.translate`` tables, one per scalar.
_TRANSLATE = [row.tobytes() for row in _MUL]

# xtime on eight packed bytes: clear each byte's top bit, double, and
# reduce the bits that fell off by x^8 = x^4 + x^3 + x^2 + 1 (0x1D).
# 0-d arrays, not numpy scalars: numpy converts a scalar operand on
# every call, which costs as much as the operation on a 2 KiB block.
_HIGH = np.array(0x8080808080808080, dtype=np.uint64)
_SEVEN = np.array(7, dtype=np.uint64)
_POLY = np.array(0x1D, dtype=np.uint64)

#: Word operations per xtime.
_XTIME_OPS = 6

# The op-count rule's weights, in bytes of one word operation's
# streaming cost, fitted to the primitives' timings (docs/PERFORMANCE.md,
# "GF(2^8) kernels"): a numpy call costs about as much as streaming
# 12 KiB, and a gather streams at 1/28 of the word rate after a fixed
# cost worth 56 KiB (numpy first widens the index array to ``intp``).
# At 64 KiB that rates a take a little below its hot-cache cost, which
# leaves one-scalar rows to the gather, as the traced workload wants.
_CALL_BYTES = 12 * 1024
_GATHER_CALL_BYTES = 56 * 1024
_GATHER_SLOWDOWN = 28

#: ``_BITS[s]`` is the number of set bits in ``s``.
_BITS = [bin(scalar).count("1") for scalar in range(256)]


def _width(blocks: Sequence[Block]) -> int:
    """The common length of ``blocks``; :class:`CodingError` if none."""
    if not blocks:
        raise CodingError("GF(2^8) kernel needs at least one block")
    width = len(blocks[0])
    for block in blocks:
        if len(block) != width:
            raise CodingError(
                "GF(2^8) kernel needs equal-length blocks, got lengths "
                f"{sorted({len(b) for b in blocks})}"
            )
    return width


def matmul(
    coeffs: Sequence[Sequence[int]], blocks: Sequence[Block]
) -> List[bytes]:
    """``coeffs (rows x cols)`` times the column of ``cols`` blocks.

    ``coeffs`` is a small coefficient matrix (any nested sequence of
    ints, including a numpy array), converted once to Python ints.  A
    row that is a single coefficient 1 returns its block uncopied.
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
    width = _width(blocks)
    # Numpy scalars would cost a conversion on every use below.
    if isinstance(coeffs, np.ndarray):
        coeffs = coeffs.tolist()
    else:
        coeffs = [[int(scalar) for scalar in row] for row in coeffs]
    if width < CROSSOVER_BYTES:
        return _matmul_translate(coeffs, blocks, width)
    return _matmul_wide(coeffs, blocks, width)


def _word_is_cheaper(row: Sequence[int], width: int) -> bool:
    """The op-count rule: does Horner on words beat the gather here?

    Word: ``6 * top + set bits`` operations at ``_CALL_BYTES + width``
    each.  Gather: one take per coefficient other than 0 and 1, plus
    one copy or XOR per nonzero coefficient.
    """
    nonzero = len(row) - row.count(0)
    takes = nonzero - row.count(1)
    top = max(row).bit_length() - 1
    bits = sum(map(_BITS.__getitem__, row))
    op = _CALL_BYTES + width
    word = (_XTIME_OPS * top + bits) * op
    gather = nonzero * op + takes * (
        _GATHER_CALL_BYTES + _GATHER_SLOWDOWN * width
    )
    return word <= gather


def _matmul_wide(coeffs, blocks, width: int) -> List[bytes]:
    """Word or gather per output row, on the blocks as ``uint64`` words.

    ``coeffs`` rows are sequences of Python ints.  A tail that is not a
    multiple of eight bytes is zero-padded, which is exact: every
    operation maps a zero byte to a zero byte.
    """
    words = -(-width // 8)
    if width % 8:
        padded = np.zeros((len(blocks), words), dtype=np.uint64)
        as_bytes = padded.view(np.uint8)
        for c, block in enumerate(blocks):
            as_bytes[c, :width] = np.frombuffer(block, dtype=np.uint8)
        data = list(padded)
    else:
        data = [np.frombuffer(block, dtype=np.uint64) for block in blocks]
    scratch = np.empty(words, dtype=np.uint64)
    out = []
    for row in coeffs:
        if sum(row) == 1:  # an identity row: the block itself
            out.append(bytes(blocks[row.index(1)]))
            continue
        accum = np.empty(words, dtype=np.uint64)
        if _word_is_cheaper(row, width):
            _row_word(row, data, accum, scratch)
        else:
            _row_gather(row, data, accum, scratch)
        out.append(accum.view(np.uint8)[:width].tobytes())
    return out


def _row_word(row: List[int], data, accum, high) -> None:
    """``accum = row . data`` by Horner's rule over the coefficient bits."""
    top = max(row).bit_length() - 1
    fresh = True  # accum not yet written this row
    for bit in range(top, -1, -1):
        if not fresh:
            # accum = xtime(accum), in place; ``high`` is scratch.
            np.bitwise_and(accum, _HIGH, out=high)
            np.bitwise_xor(accum, high, out=accum)
            np.add(accum, accum, out=accum)
            np.right_shift(high, _SEVEN, out=high)
            np.multiply(high, _POLY, out=high)
            np.bitwise_xor(accum, high, out=accum)
        for c, scalar in enumerate(row):
            if scalar >> bit & 1:
                if fresh:
                    np.copyto(accum, data[c])
                    fresh = False
                else:
                    np.bitwise_xor(accum, data[c], out=accum)
    if fresh:
        accum.fill(0)


def _row_gather(row: List[int], data, accum, scratch) -> None:
    """``accum = row . data``: one gather + one XOR per coefficient.

    Products come first, so the first one is written straight into
    ``accum`` instead of a copy; zero coefficients are skipped.  The
    takes use ``mode="wrap"``: every ``uint8`` index is in range, and
    the default mode buffers the output.
    """
    accum = accum.view(np.uint8)
    scratch = scratch.view(np.uint8)
    fresh = True  # accum not yet written this row
    for c, scalar in enumerate(row):
        if scalar > 1:
            block = data[c].view(np.uint8)
            if fresh:
                np.take(_MUL[scalar], block, out=accum, mode="wrap")
                fresh = False
            else:
                np.take(_MUL[scalar], block, out=scratch, mode="wrap")
                np.bitwise_xor(accum, scratch, out=accum)
    for c, scalar in enumerate(row):
        if scalar == 1:
            block = data[c].view(np.uint8)
            if fresh:
                np.copyto(accum, block)
                fresh = False
            else:
                np.bitwise_xor(accum, block, out=accum)
    if fresh:
        accum.fill(0)


def _matmul_translate(coeffs, blocks, width: int) -> List[bytes]:
    raw = [bytes(block) for block in blocks]
    # One int conversion per input block, shared across all rows.
    as_int = [int.from_bytes(block, "little") for block in raw]
    out = []
    for row in coeffs:
        if sum(row) == 1:  # an identity row: the block itself
            out.append(raw[row.index(1)])
            continue
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
    """``accum ^ scalar * data`` — the GEMM kernel of RS coding.

    At or above the crossover this is the one-row product
    ``[1, scalar] . [accum, data]``, priced like any matmul row.
    """
    width = _width((accum, data))
    if scalar == 0:
        return bytes(accum)
    if width < CROSSOVER_BYTES:
        folded = int.from_bytes(accum, "little") ^ int.from_bytes(
            scale(scalar, data), "little"
        )
        return folded.to_bytes(width, "little")
    row = (1, scalar)
    if scalar != 1 and _word_is_cheaper(row, width):
        return _matmul_wide((row,), (accum, data), width)[0]
    # XOR, or the gather row, without the matmul's buffers.
    accum_arr = np.frombuffer(accum, dtype=np.uint8)
    data_arr = np.frombuffer(data, dtype=np.uint8)
    if scalar == 1:
        return np.bitwise_xor(accum_arr, data_arr).tobytes()
    product = np.take(_MUL[scalar], data_arr, mode="wrap")
    np.bitwise_xor(product, accum_arr, out=product)
    return product.tobytes()


def xor_all(blocks: Sequence[Block]) -> bytes:
    """XOR of one or more equal-length blocks."""
    width = _width(blocks)
    raw = [bytes(block) for block in blocks]
    if width < CROSSOVER_BYTES:
        accum = 0
        for block in raw:
            accum ^= int.from_bytes(block, "little")
        return accum.to_bytes(width, "little")
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
