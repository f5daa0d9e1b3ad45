"""Fast Walsh-Hadamard transform.

The transform used here is the unnormalized symmetric one,

    out[m] = sum_t values[t] * (-1)**popcount(m & t),

so applying it twice multiplies by ``2**M``.  Tables of spin-polynomial
energies and their coefficient vectors are each other's transforms up to
that factor.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = ["fwht"]


def fwht(values) -> np.ndarray:
    """In O(d log d), transform a length-``d`` vector, ``d`` a power of two.

    Complex input stays complex; anything else is transformed as float64.
    """
    a = np.array(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)
    if a.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {a.shape}")
    d = a.size
    if d == 0 or d & (d - 1):
        raise DimensionError(f"length must be a power of two, got {d}")
    h = 1
    while h < d:
        a = a.reshape(d // (2 * h), 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bottom = a[:, 0, :] - a[:, 1, :]
        a[:, 0, :] = top
        a[:, 1, :] = bottom
        a = a.reshape(d)
        h *= 2
    return a
