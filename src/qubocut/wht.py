"""Fast Walsh-Hadamard transform.

The transform used here is the unnormalized symmetric one,

    out[m] = sum_t values[t] * (-1)**popcount(m & t),

so applying it twice multiplies by ``2**M``.  Tables of spin-polynomial
energies and their coefficient vectors are each other's transforms up to
that factor.

The transform factors over index bits (Fino and Algazi, 1976), so it runs
in passes, each a product with a Sylvester Hadamard matrix
``(-1)**popcount(i & j)`` over a few bits.  A pass of ``w`` bits costs
``2**w`` multiply-adds per entry, so a row of at most six bits takes one
pass, and a longer one takes ``ceil(bits / 5)`` passes whose widths differ
by at most one (14 bits as 5 + 5 + 4, 20 as four of 5).  Every product is
capped at ``_PRODUCT_CAP = 64**3`` multiply-adds: OpenBLAS runs a product
on one thread only while ``m * n * k <= 64**3``, and the threaded larger
products measured slower than capped ones on a 2-core machine, idle or
busy.  So a pass of ``w`` bits takes up to ``64**3 / 4**w`` rows or
columns per product.  Product shapes follow from the row length alone,
never from the number of rows, so a row's result does not depend on the
rows stacked with it.  Passes alternate between the input copy and one
scratch buffer; the private ``_fwht_rows`` skips the copy and transforms
the rows of a buffer the caller owns.  Complex input is transformed as
interleaved float64 with the real/imaginary bit left untransformed, so both
dtypes share one real path.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError

__all__ = ["fwht"]

_PRODUCT_CAP = 64**3  # multiply-adds per product; see the module docstring
_ONE_PASS_BITS = 6  # the widest transform that runs as a single pass
_PASS_BITS = 5  # the widest pass of a longer transform


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


@functools.cache
def _passes(bits: int, keep: int) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
    """The ``(shape, matrix)`` of each pass over rows of ``2**bits`` floats.

    The first pass multiplies rows of the reshaped input by its matrix from
    the right; each later one multiplies column blocks of the transposed
    reshape from the left.  The first matrix acts as identity on the low
    ``keep`` bits.
    """
    count = 1 if bits <= _ONE_PASS_BITS else -(-bits // _PASS_BITS)
    lo, plan = 0, []
    for i in range(count):
        w = bits // count + (i < bits % count)
        per_product = _PRODUCT_CAP >> 2 * w
        if lo == 0:
            shape = (-1, min(per_product, 1 << (bits - w)), 1 << w)
            plan.append((shape, _sylvester(w, keep)))
        else:
            columns = min(per_product, 1 << lo)
            plan.append(((-1, 1 << w, (1 << lo) // columns, columns), _sylvester(w)))
        lo += w
    return tuple(plan)


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
    (shape, matrix), *later = _passes(src.shape[-1].bit_length() - 1, int(a.dtype.kind == "c"))
    # The real/imaginary bit of complex input stays as it is.
    np.matmul(src.reshape(shape), matrix, out=dst.reshape(shape))
    for shape, matrix in later:
        src, dst = dst, src
        a, out = out, a
        np.matmul(
            matrix,
            src.reshape(shape).transpose(0, 2, 1, 3),
            out=dst.reshape(shape).transpose(0, 2, 1, 3),
        )
    return out
