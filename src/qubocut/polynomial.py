"""Sparse multilinear polynomials over spin variables.

A PUBO energy function is stored as a mapping from sorted tuples of variable
indices to float coefficients,

    E(s) = sum_T  alpha_T  prod_{i in T} s_i,        s_i in {+1, -1},

with the empty tuple holding the constant term.  Construction canonicalizes:
repeated indices inside a term cancel in pairs (s_i**2 == 1), terms are keyed
by strictly increasing index tuples, and exact-zero coefficients are dropped.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

import numpy as np

from .bitops import as_spins, term_to_index
from .errors import DimensionError, ParameterError
from .wht import fwht

__all__ = ["PuboPolynomial", "energy_table"]


def _canonical_term(term, num_vars: int) -> tuple[int, ...]:
    # fold duplicates by parity: s_i * s_i == 1
    counts: dict[int, int] = {}
    for i in term:
        i = int(i)
        if not 0 <= i < num_vars:
            raise ParameterError(
                f"variable {i} out of range for {num_vars} variables"
            )
        counts[i] = counts.get(i, 0) + 1
    return tuple(sorted(i for i, c in counts.items() if c % 2))


class PuboPolynomial:
    """Immutable-by-convention sparse spin polynomial."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping | Iterable | None = None):
        num_vars = int(num_vars)
        if num_vars < 0:
            raise ParameterError(f"num_vars must be nonnegative, got {num_vars}")
        self.num_vars = num_vars
        canonical: dict[tuple[int, ...], float] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for term, coeff in items:
            key = _canonical_term(term, num_vars)
            value = canonical.get(key, 0.0) + float(coeff)
            if value == 0.0:
                canonical.pop(key, None)
            else:
                canonical[key] = value
        self.terms = dict(sorted(canonical.items(), key=lambda kv: (len(kv[0]), kv[0])))

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
        free = (i for i in range(self.num_vars) if i not in fixed)
        renumber = {i: j for j, i in enumerate(free)}
        out: list[tuple[tuple[int, ...], float]] = []
        for term, coeff in self.terms.items():
            kept = []
            sign = 1
            for i in term:
                j = renumber.get(i)
                if j is None:
                    sign *= fixed[i]
                else:
                    kept.append(j)
            out.append((tuple(kept), coeff * sign))
        return PuboPolynomial(len(renumber), out)

    def reindex(self, mapping: Mapping[int, int], num_vars: int) -> "PuboPolynomial":
        """Rename variables through ``mapping``; every used variable must map."""
        out = []
        for term, coeff in self.terms.items():
            try:
                new_term = tuple(mapping[i] for i in term)
            except KeyError as exc:
                raise ParameterError(f"no mapping for variable {exc.args[0]}") from None
            out.append((new_term, coeff))
        return PuboPolynomial(num_vars, out)

    def __add__(self, other: "PuboPolynomial") -> "PuboPolynomial":
        if not isinstance(other, PuboPolynomial):
            return NotImplemented
        if other.num_vars != self.num_vars:
            raise DimensionError(
                f"cannot add polynomials over {self.num_vars} and {other.num_vars} variables"
            )
        merged = list(self.terms.items()) + list(other.terms.items())
        return PuboPolynomial(self.num_vars, merged)

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
    Walsh-Hadamard transform, O(2**n * n) total.
    """
    n = poly.num_vars
    coeffs = np.zeros(1 << n, dtype=np.float64)
    for term, coeff in poly.terms.items():
        coeffs[term_to_index(term, n)] += coeff
    return fwht(coeffs)
