"""Sparse multilinear polynomials over spin variables.

A PUBO energy function is stored as a mapping from sorted tuples of variable
indices to float coefficients,

    E(s) = sum_T  alpha_T  prod_{i in T} s_i,        s_i in {+1, -1},

with the empty tuple holding the constant term.  Construction canonicalizes:
repeated indices inside a term cancel in pairs (s_i**2 == 1), terms are keyed
by strictly increasing index tuples, and exact-zero coefficients are dropped.
A NaN or infinite coefficient is rejected.

The module also owns exhaustive search: :func:`energy_table` lists every
energy, and :func:`brute_force_min` finds the exact minimum with ties going
to the lowest bitmask, the one primitive that quench, core freezing, lifting
and the pipeline's exact solves share.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Iterable, Mapping

import numpy as np

from .bitops import as_spins, index_to_spins, term_to_index
from .errors import ParameterError, ResourceLimitError
from .wht import _BLOCK, _fwht_rows

__all__ = ["PuboPolynomial", "energy_table", "brute_force_min", "DEFAULT_BRUTE_CAP"]

DEFAULT_BRUTE_CAP = 30
# Trailing variables per table in brute_force_min, and the size up to which
# it builds one energy table: on a 2-core x86-64 VM a product over one
# leading variable lost to the table at n = 12 and tied at n = 13, and
# limits 10 to 12 timed alike from n = 14 up.
_FULL_TABLE_LIMIT = 12
_BLOCK_ROWS = 64  # leading masks per block of _energy_blocks
_PRODUCT_CAP = _BLOCK**3  # products stay on one BLAS thread up to this size; see wht


def _index(value, what: str) -> int:
    """``value`` as an int: numpy integers pass, while a bool, a float (which
    ``int`` would truncate), a string or another non-integer raises."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _canonical_term(term, num_vars: int) -> tuple[int, ...]:
    # fold duplicates by parity: s_i * s_i == 1
    counts: dict[int, int] = {}
    for i in term:
        i = _index(i, "variable")
        if not 0 <= i < num_vars:
            raise ParameterError(
                f"variable {i} out of range for {num_vars} variables"
            )
        counts[i] = counts.get(i, 0) + 1
    return tuple(sorted(i for i, c in counts.items() if c % 2))


def _validated(items, num_vars: int):
    """Yield ``(canonical term, float coefficient)``; reject non-finite ones."""
    for term, coeff in items:
        coeff = float(coeff)
        if not math.isfinite(coeff):
            raise ParameterError(f"coefficient of term {term} is {coeff}")
        yield _canonical_term(term, num_vars), coeff


def _summed(items) -> dict[tuple[int, ...], float]:
    """Sum ``(term, coeff)`` pairs per term, drop exact zeros, and order the
    terms by degree and then lexicographically."""
    summed: dict[tuple[int, ...], float] = {}
    for key, coeff in items:
        value = summed.get(key, 0.0) + coeff
        if value == 0.0:
            summed.pop(key, None)
        else:
            summed[key] = value
    return dict(sorted(summed.items(), key=lambda kv: (len(kv[0]), kv[0])))


class PuboPolynomial:
    """Immutable-by-convention sparse spin polynomial."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping | Iterable | None = None):
        num_vars = _index(num_vars, "num_vars")
        if num_vars < 0:
            raise ParameterError(f"num_vars must be nonnegative, got {num_vars}")
        self.num_vars = num_vars
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        self.terms = _summed(_validated(items, num_vars))

    @classmethod
    def _from_canonical(cls, num_vars: int, items: Iterable) -> "PuboPolynomial":
        """Trusted constructor: every term is already a strictly increasing
        tuple of indices in ``range(num_vars)`` and every coefficient a finite
        float, so only summing, zero-dropping and sorting remain."""
        poly = cls.__new__(cls)
        poly.num_vars = num_vars
        poly.terms = _summed(items)
        return poly

    def degree(self) -> int:
        """Largest term cardinality; 0 for a constant or empty polynomial."""
        return max((len(t) for t in self.terms), default=0)

    def constant(self) -> float:
        return self.terms.get((), 0.0)

    def evaluate(self, spins) -> float:
        """Energy of one assignment (length must equal ``num_vars``)."""
        s = as_spins(spins, self.num_vars)
        total = 0.0
        for term, coeff in self.terms.items():
            sign = 1
            for i in term:
                sign *= int(s[i])
            total += coeff * sign
        return total

    def restrict(self, fixed: Mapping[int, int]) -> "PuboPolynomial":
        """Pin some variables to concrete spins and drop them.

        The remaining variables are renumbered from 0 in their original
        order, so the result has ``num_vars - len(fixed)`` variables.
        """
        for i, v in fixed.items():
            if not 0 <= i < self.num_vars:
                raise ParameterError(f"variable {i} out of range")
            if v not in (1, -1):
                raise ParameterError(f"spin for variable {i} must be +/-1, got {v}")
        image: list[int | None] = [None] * self.num_vars  # new index of each free variable
        num_free = 0
        for i in range(self.num_vars):
            if i not in fixed:
                image[i] = num_free
                num_free += 1
        out: list[tuple[tuple[int, ...], float]] = []
        for term, coeff in self.terms.items():
            kept = []
            for i in term:
                j = image[i]
                if j is None:
                    if fixed[i] < 0:
                        coeff = -coeff
                else:
                    kept.append(j)
            out.append((tuple(kept), coeff))
        return PuboPolynomial._from_canonical(num_free, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PuboPolynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"PuboPolynomial(num_vars={self.num_vars}, terms={len(self.terms)})"

    def to_json_dict(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "terms": [
                {"vars": list(term), "coeff": coeff}
                for term, coeff in self.terms.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PuboPolynomial":
        try:
            num_vars = data["num_vars"]
            items = [(entry["vars"], entry["coeff"]) for entry in data["terms"]]
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed polynomial JSON: {exc}") from exc
        return cls(num_vars, items)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PuboPolynomial":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def energy_table(poly: PuboPolynomial) -> np.ndarray:
    """Energies of all ``2**num_vars`` assignments, indexed by bitmask.

    Scatters each coefficient to its transform index and applies one fast
    Walsh-Hadamard transform in that buffer, O(2**n * n) total, with two
    ``2**n`` vectors alive at the peak.
    """
    n = poly.num_vars
    coeffs = np.zeros(1 << n, dtype=np.float64)
    for term, coeff in poly.terms.items():
        coeffs[term_to_index(term, n)] += coeff
    return _fwht_rows(coeffs)


def _energy_blocks(poly: PuboPolynomial, high: int):
    """Energies of ``poly`` for ascending blocks of its leading assignments.

    Yields ``(first, energies)``: row ``r`` of ``energies`` holds, indexed by
    the mask of the trailing ``n - high`` variables, the energies under the
    leading-variable mask ``first + r``.  The array is reused, so read it
    before advancing.  Terms are grouped by their leading part ``T``; each
    group's trailing polynomial becomes one row of a table ``F``, and a block
    is ``X @ F`` with ``X[r, g] = (-1)**popcount((first + r) & T_g)``, in
    products of at most ``64**3`` multiply-adds.
    """
    if not 0 <= high <= poly.num_vars:
        raise ParameterError(f"high must be in [0, {poly.num_vars}], got {high}")
    low = poly.num_vars - high
    rows = {0: 0}  # leading mask -> row of F; the empty part keeps F nonempty
    coeffs = []
    for term, coeff in poly.terms.items():
        mask = term_to_index(term, poly.num_vars)
        coeffs.append((rows.setdefault(mask >> low, len(rows)), mask & ((1 << low) - 1), coeff))
    table = np.zeros((len(rows), 1 << low))
    for row, column, coeff in coeffs:
        table[row, column] = coeff
    table = _fwht_rows(table)
    k, width = table.shape
    # P leading masks per block, products of P x k by k x w
    p = min(_BLOCK_ROWS, 1 << high)
    while p > 1 and p * k > _PRODUCT_CAP:
        p //= 2
    w = width
    while w > 1 and p * k * w > _PRODUCT_CAP:
        w //= 2
    parts = np.fromiter(rows, dtype=np.uint64, count=k)
    # first + r has no carry for r < P, so its signs are first's times r's
    within = _character_signs(np.arange(p, dtype=np.uint64), parts)
    stacked = table.reshape(k, width // w, w).transpose(1, 0, 2)
    signs = np.empty((p, k))
    energies = np.empty((p, width))
    out = energies.reshape(p, width // w, w).transpose(1, 0, 2)
    for first in range(0, 1 << high, p):
        np.multiply(within, _character_signs(np.uint64(first), parts), out=signs)
        np.matmul(signs, stacked, out=out)
        yield first, energies


def _character_signs(masks, parts: np.ndarray) -> np.ndarray:
    """``(-1)**popcount(mask & part)`` over the outer product, as float64."""
    return 1.0 - 2.0 * (np.bitwise_count(np.bitwise_and.outer(masks, parts)) & 1)


def brute_force_min(
    poly: PuboPolynomial, cap: int = DEFAULT_BRUTE_CAP
) -> tuple[float, np.ndarray]:
    """Exact minimum energy and its lowest-bitmask witness.

    Up to ``_FULL_TABLE_LIMIT`` variables this is one Walsh-Hadamard energy
    table and its argmin.  Above, the trailing ``_FULL_TABLE_LIMIT``
    variables stay in tables, one per distinct part of a term over the
    leading variables, and the energies of consecutive blocks of leading
    assignments come from products of character signs with those tables
    (:func:`_energy_blocks`), so no table of ``2**n`` entries is built.  A
    later block replaces the best only when strictly lower, so ties go to
    the lowest mask.  With dyadic weights every sum is exact; otherwise the
    energy may differ from the summed terms in the last bits.
    """
    energy, mask = _minimum(poly, cap)
    return energy, index_to_spins(mask, poly.num_vars)


def _minimum(poly: PuboPolynomial, cap: int = DEFAULT_BRUTE_CAP) -> tuple[float, int]:
    """:func:`brute_force_min` with the witness as its bitmask."""
    n = poly.num_vars
    if n > cap:
        raise ResourceLimitError(f"{n} variables exceed the brute-force cap {cap}")
    high = n - _FULL_TABLE_LIMIT
    blocks = _energy_blocks(poly, high) if high > 0 else [(0, energy_table(poly))]
    best_energy, best_mask = np.inf, 0
    for first, energies in blocks:
        local = int(energies.argmin())
        energy = float(energies.flat[local])
        if first == 0 or energy < best_energy:
            best_energy, best_mask = energy, (first << _FULL_TABLE_LIMIT) + local
    return best_energy, best_mask
