"""Bitmask encoding of spin assignments.

Throughout the package an assignment of ``n`` spins is indexed by an integer
mask in ``[0, 2**n)``: variable ``i`` occupies bit ``n - 1 - i`` (the spin
string read left to right), and a set bit means spin ``-1``.  The all-plus
assignment is mask 0, so breaking ties toward the lowest mask prefers ``+1``
on low-index variables.  The helpers here convert one assignment or term at
a time; a walk over all ``2**n`` assignments in mask order needs no decoding,
since ``itertools.product((1, -1), repeat=n)`` yields them in that order.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "index_to_spins",
    "spins_to_index",
    "term_to_index",
    "index_to_term",
    "as_spins",
]


def index_to_spins(mask: int, n: int) -> np.ndarray:
    """Decode a mask into an int8 array of ``n`` spins in {+1, -1}."""
    if n < 0:
        raise ParameterError(f"n must be nonnegative, got {n}")
    if not 0 <= mask < (1 << n):
        raise ParameterError(f"mask {mask} out of range for {n} variables")
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    bits = (np.asarray(mask, dtype=np.uint64) >> shifts) & np.uint64(1)
    return (1 - 2 * bits.astype(np.int8)).astype(np.int8)


def spins_to_index(spins) -> int:
    """Encode a {+1, -1} spin sequence as its bitmask."""
    s = as_spins(spins)
    mask = 0
    for value in s:
        mask = (mask << 1) | (1 if value < 0 else 0)
    return mask


def term_to_index(term, n: int) -> int:
    """Map a set of variable indices to the transform index with those bits set."""
    mask = 0
    for i in term:
        if not 0 <= i < n:
            raise ParameterError(f"variable {i} out of range for {n} variables")
        mask |= 1 << (n - 1 - i)
    return mask


def index_to_term(mask: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`term_to_index`: sorted variable indices of set bits."""
    if not 0 <= mask < (1 << n):
        raise ParameterError(f"mask {mask} out of range for {n} variables")
    return tuple(i for i in range(n) if (mask >> (n - 1 - i)) & 1)


def as_spins(values, num_vars: int | None = None) -> np.ndarray:
    """Validate and convert a spin sequence to a 1-D int8 array of +/-1."""
    s = np.asarray(values)
    if s.ndim != 1:
        raise DimensionError(f"spin assignment must be 1-D, got shape {s.shape}")
    if s.size and not np.all(np.abs(s.astype(np.float64)) == 1.0):
        raise ParameterError("spin values must be +1 or -1")
    if num_vars is not None and s.size != num_vars:
        raise DimensionError(f"expected {num_vars} spins, got {s.size}")
    return s.astype(np.int8)
