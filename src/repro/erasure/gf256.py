"""Arithmetic in the Galois field GF(2^8).

Reed-Solomon coding (Plank's tutorial [12] in the paper) works over a
finite field; GF(2^8) is the standard choice for storage systems because
field elements are exactly bytes.  We use the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D, the one used by most storage RS
implementations) and precompute log/antilog tables once per process.

Addition in GF(2^8) is XOR.  Multiplication and division go through the
log tables.  Vectorized variants operate on numpy ``uint8`` arrays so
that encoding large blocks is table-lookup bound rather than Python-loop
bound.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import CodingError

__all__ = ["GF256"]

#: The primitive polynomial for the field, with the x^8 term included.
_PRIMITIVE_POLY = 0x11D

#: Order of the multiplicative group.
_GROUP_ORDER = 255


def _build_tables():
    """Build exp/log tables for GF(2^8) with generator 2."""
    exp = np.zeros(2 * _GROUP_ORDER, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(_GROUP_ORDER):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _PRIMITIVE_POLY
    # Duplicate the table so mul can index log[a] + log[b] without a mod.
    exp[_GROUP_ORDER : 2 * _GROUP_ORDER] = exp[:_GROUP_ORDER]
    return exp, log


_EXP, _LOG = _build_tables()

#: Lazily built full 256x256 multiplication table (64 KiB) shared by
#: the bulk kernels and any caller that wants gather-based products.
_MUL_TABLE = None


def _mul_table() -> np.ndarray:
    """The full multiplication table ``T[a, b] = a * b`` (built once)."""
    global _MUL_TABLE
    if _MUL_TABLE is None:
        table = _EXP[_LOG[:, None] + _LOG[None, :]]
        table[0, :] = 0  # _LOG[0] is a placeholder; zero annihilates
        table[:, 0] = 0
        _MUL_TABLE = np.ascontiguousarray(table)
    return _MUL_TABLE


class GF256:
    """The field GF(2^8): scalar and vectorized byte arithmetic.

    All methods are static; the class exists as a namespace so that
    callers write ``GF256.mul(a, b)`` — closer to mathematical notation
    than free functions.
    """

    ORDER = 256
    GENERATOR = 2

    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (XOR)."""
        return a ^ b

    @staticmethod
    def sub(a: int, b: int) -> int:
        """Field subtraction — identical to addition in GF(2^8)."""
        return a ^ b

    @staticmethod
    def mul(a: int, b: int) -> int:
        """Field multiplication via log tables."""
        if a == 0 or b == 0:
            return 0
        return int(_EXP[_LOG[a] + _LOG[b]])

    @staticmethod
    def div(a: int, b: int) -> int:
        """Field division; raises on division by zero."""
        if b == 0:
            raise CodingError("division by zero in GF(2^8)")
        if a == 0:
            return 0
        return int(_EXP[(_LOG[a] - _LOG[b]) % _GROUP_ORDER])

    @staticmethod
    def inv(a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        if a == 0:
            raise CodingError("zero has no inverse in GF(2^8)")
        return int(_EXP[(_GROUP_ORDER - _LOG[a]) % _GROUP_ORDER])

    @staticmethod
    def pow(a: int, exponent: int) -> int:
        """Raise ``a`` to an integer power (negative powers allowed)."""
        if a == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise CodingError("zero has no negative powers in GF(2^8)")
            return 0
        log_a = int(_LOG[a])
        return int(_EXP[(log_a * exponent) % _GROUP_ORDER])

    # ------------------------------------------------------------------
    # Vectorized operations on byte arrays.
    # ------------------------------------------------------------------

    @staticmethod
    def mul_bytes(scalar: int, data: np.ndarray) -> np.ndarray:
        """Multiply every byte of ``data`` by ``scalar``.

        Args:
            scalar: field element in 0..255.
            data: ``uint8`` array.

        Returns:
            A new ``uint8`` array of the same shape.
        """
        if scalar == 0:
            return np.zeros_like(data)
        if scalar == 1:
            return data.copy()
        log_s = int(_LOG[scalar])
        result = np.zeros_like(data)
        nonzero = data != 0
        result[nonzero] = _EXP[log_s + _LOG[data[nonzero]]]
        return result

    @staticmethod
    def addmul_bytes(accum: np.ndarray, scalar: int, data: np.ndarray) -> None:
        """In-place ``accum ^= scalar * data`` — the GEMM kernel of RS."""
        if scalar == 0:
            return
        if scalar == 1:
            np.bitwise_xor(accum, data, out=accum)
            return
        log_s = int(_LOG[scalar])
        nonzero = data != 0
        accum[nonzero] ^= _EXP[log_s + _LOG[data[nonzero]]]

    @staticmethod
    def matmul(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
        """GF(2^8) matrix-times-matrix product.

        Args:
            matrix: ``(rows, cols)`` ``uint8`` coefficient matrix.
            data: ``(cols, width)`` ``uint8`` data matrix (one block per
                row).

        Returns:
            ``(rows, width)`` ``uint8`` product.
        """
        rows, cols = matrix.shape
        if data.shape[0] != cols:
            raise CodingError(
                f"matmul dimension mismatch: matrix cols={cols}, "
                f"data rows={data.shape[0]}"
            )
        out = np.zeros((rows, data.shape[1]), dtype=np.uint8)
        for r in range(rows):
            row = matrix[r]
            accum = out[r]
            for c in range(cols):
                GF256.addmul_bytes(accum, int(row[c]), data[c])
        return out

    @staticmethod
    def mul_table() -> np.ndarray:
        """The full 256x256 multiplication table ``T[a, b] = a * b``.

        64 KiB, built on first use and shared process-wide.  This is
        what turns ``scalar * vec`` into a single gather or translate
        (see :mod:`repro.erasure.kernels`).
        """
        return _mul_table()

    @staticmethod
    def elements() -> List[int]:
        """All 256 field elements, 0 first."""
        return list(range(256))
