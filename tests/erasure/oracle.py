"""The masked log/antilog GF(2^8) kernel — the tests' reference.

The original bulk-arithmetic implementation, built on
:class:`~repro.erasure.gf256.GF256`'s boolean-mask fancy indexing.  It
is never the fastest, so production code does not carry it; it lives
here as the bit-for-bit oracle that :mod:`repro.erasure.kernels` is
checked against.  Same five functions, same ``bytes`` in and out.
"""

from typing import List

import numpy as np

from repro.erasure.gf256 import GF256
from repro.types import Block


def matmul(coeffs, blocks) -> List[bytes]:
    if len(coeffs) == 0:
        return []
    matrix = np.asarray(coeffs, dtype=np.uint8)
    width = len(blocks[0])
    data = np.frombuffer(
        b"".join(bytes(block) for block in blocks), dtype=np.uint8
    ).reshape(len(blocks), width)
    out = GF256.matmul(matrix, data)
    return [out[r].tobytes() for r in range(len(coeffs))]


def scale(scalar: int, data: Block) -> bytes:
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return GF256.mul_bytes(scalar, arr).tobytes()


def addmul(accum: Block, scalar: int, data: Block) -> bytes:
    accum_arr = np.frombuffer(bytes(accum), dtype=np.uint8).copy()
    data_arr = np.frombuffer(bytes(data), dtype=np.uint8)
    GF256.addmul_bytes(accum_arr, scalar, data_arr)
    return accum_arr.tobytes()


def xor_all(blocks) -> bytes:
    arrays = [np.frombuffer(bytes(b), dtype=np.uint8) for b in blocks]
    accum = arrays[0].copy()
    for array in arrays[1:]:
        np.bitwise_xor(accum, array, out=accum)
    return accum.tobytes()


def xor(a: Block, b: Block) -> bytes:
    return xor_all((a, b))


#: The names the coders call on ``repro.erasure.kernels``.
FUNCTIONS = ("matmul", "scale", "addmul", "xor", "xor_all")
