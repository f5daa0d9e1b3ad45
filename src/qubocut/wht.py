"""Fast Walsh-Hadamard transform.

The transform used here is the unnormalized symmetric one,

    out[m] = sum_t values[t] * (-1)**popcount(m & t),

so applying it twice multiplies by ``2**M``.  Tables of spin-polynomial
energies and their coefficient vectors are each other's transforms up to
that factor.

The transform factors over index bits, so it runs in passes of up to six
bits, each a product with the ``64 x 64`` Sylvester Hadamard matrix
``(-1)**popcount(i & j)`` (a smaller one when fewer bits remain).  Every
product is capped at ``64 x 64`` by ``64 x 64``: OpenBLAS runs a product on
one thread only while ``m * n * k <= 64**3``, and the threaded larger
products measured slower than capped ones on a 2-core machine, idle or busy.
Passes alternate between the input copy and one scratch buffer; the
private ``_fwht_rows`` skips the copy and transforms the rows of a buffer
the caller owns.  Complex input is transformed as interleaved float64 with
the real/imaginary bit left untransformed, so both dtypes share one real
path.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError

__all__ = ["fwht"]

_BLOCK_BITS = 6
_BLOCK = 1 << _BLOCK_BITS


@functools.cache
def _sylvester(bits: int, keep: int = 0) -> np.ndarray:
    """The ``2**bits`` Hadamard matrix acting as identity on the low ``keep`` bits."""
    idx = np.arange(1 << bits, dtype=np.uint64)
    low = np.uint64((1 << keep) - 1)
    parity = np.bitwise_count(idx[:, None] & idx & ~low) & 1
    same = (idx[:, None] & low) == (idx & low)
    matrix = np.where(same, 1.0 - 2.0 * parity, 0.0)
    matrix.flags.writeable = False  # one cached copy is shared by every call
    return matrix


def fwht(values) -> np.ndarray:
    """In O(d log d), transform a length-``d`` vector, ``d`` a power of two.

    Complex input stays complex; anything else is transformed as float64.
    """
    is_complex = np.iscomplexobj(values)
    a = np.array(values, dtype=np.complex128 if is_complex else np.float64)
    return _fwht_rows(_power_of_two_vector(a))


def _power_of_two_vector(a: np.ndarray) -> np.ndarray:
    """``a``, refused unless it is a 1-D vector of power-of-two length."""
    if a.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {a.shape}")
    d = a.size
    if d == 0 or d & (d - 1):
        raise DimensionError(f"length must be a power of two, got {d}")
    return a


def _fwht_rows(a: np.ndarray) -> np.ndarray:
    """Transform each row (last axis) of C-contiguous ``a``, overwriting ``a``.

    ``a`` is float64 or complex128 and its rows have a power-of-two length.
    The result is ``a`` itself or one scratch array of its shape, whichever
    the last pass wrote, so the caller must use the returned array.
    """
    if a.shape[-1] == 1:
        return a
    out = np.empty_like(a)
    src, dst = a.view(np.float64), out.view(np.float64)
    keep = int(a.dtype.kind == "c")
    bits = src.shape[-1].bit_length() - 1
    for lo in range(0, bits, _BLOCK_BITS):
        hi = min(lo + _BLOCK_BITS, bits)
        if lo == 0:
            # Rows of 2**hi entries times the matrix, 64 rows per product.
            # The real/imaginary bit of complex input stays as it is.
            shape = (-1, min(_BLOCK, src.shape[-1] >> hi), 1 << hi)
            np.matmul(src.reshape(shape), _sylvester(hi, keep), out=dst.reshape(shape))
        else:
            # The matrix times (2**(hi-lo), 64) column blocks of each slab.
            shape = (-1, 1 << (hi - lo), 1 << (lo - _BLOCK_BITS), _BLOCK)
            np.matmul(
                _sylvester(hi - lo),
                src.reshape(shape).transpose(0, 2, 1, 3),
                out=dst.reshape(shape).transpose(0, 2, 1, 3),
            )
        src, dst = dst, src
        a, out = out, a
    return a
