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
and the pipeline's exact solves share.  It takes one of three paths, chosen
from the polynomial alone: one energy table up to 12 variables; from 20
variables, bucket elimination in min-fill order when no bucket spans more
than 13 variables; otherwise blocked products over the leading variables.
All three return the same pair; with non-dyadic coefficients the energy may
differ between paths in its last bits, because the sums run in another
order.  Callers that keep only the energy (the pipeline's
``e_min_original``, its QAOA comparison and ``qubocut qaoa``) call the
private ``_minimum`` with its witness off, so elimination carries no masks.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Iterable, Mapping

import numpy as np

from .bitops import as_spins, index_to_spins, term_to_index
from .errors import ParameterError, ResourceLimitError
from .wht import _PRODUCT_CAP, _fwht_rows

__all__ = ["PuboPolynomial", "energy_table", "brute_force_min", "DEFAULT_BRUTE_CAP"]

DEFAULT_BRUTE_CAP = 30
# Trailing variables per table in brute_force_min, and the size up to which
# it builds one energy table: on a 2-core x86-64 VM a product over one
# leading variable lost to the table at n = 12 and tied at n = 13, and
# limits 10 to 12 timed alike from n = 14 up.
_FULL_TABLE_LIMIT = 12
_BLOCK_ROWS = 64  # leading masks per block of _energy_blocks
# Size from which brute_force_min eliminates variables instead of taking
# blocked products, when every bucket fits _BUCKET_LIMIT: on a 2-core x86-64
# VM (median of three graphs, best of five runs) elimination took 0.84 ms
# against 0.65 ms for 3-regular MaxCut at n = 18, and 1.64 against 1.43 ms on
# a degree-6 reduced PUBO at n = 19; from n = 20 it won on every instance
# tried (0.64 against 1.41 ms at 3-regular n = 20, 1.01 against 6.85 ms at
# 4-regular n = 22).
_ELIMINATION_MIN_VARS = 20
# Variables per bucket table of the elimination path: at most twice the cells
# of the final table.  Fixed here, so a test that lowers _FULL_TABLE_LIMIT
# does not narrow it.
_BUCKET_LIMIT = _FULL_TABLE_LIMIT + 1


def _index(value, what: str, least: int | None = None) -> int:
    """``value`` as an int of at least ``least``, when that is given: numpy
    integers pass, while a bool, a float (which ``int`` would truncate), a
    string or another non-integer raises."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ParameterError(f"{what} must be at least {least}, got {value}")
    return value


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


def _write_json(data: dict, path) -> None:
    """The one file format of every ``save``: indented JSON, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class PuboPolynomial:
    """Immutable-by-convention sparse spin polynomial."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping | Iterable | None = None):
        self.num_vars = num_vars = _index(num_vars, "num_vars", 0)
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
        for variables, coeff in items:
            if not isinstance(variables, list):
                raise ParameterError(f"term vars must be a JSON array, got {variables!r}")
            if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
                raise ParameterError(f"term coeff must be a JSON number, got {coeff!r}")
        return cls(num_vars, items)

    def save(self, path) -> None:
        _write_json(self.to_json_dict(), path)

    @classmethod
    def load(cls, path) -> "PuboPolynomial":
        return cls.from_json_dict(_read_json(path))


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


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _min_fill_order(poly: PuboPolynomial) -> list[tuple[int, int]] | None:
    """Variables to eliminate, in min-fill order, until ``_FULL_TABLE_LIMIT``
    remain, each with the bitmask (bit ``i`` for variable ``i``) of its
    neighbours when it goes; ``None`` when a bucket would span more than
    ``_BUCKET_LIMIT`` variables.

    Fill is the number of missing edges among the neighbours; ties go to the
    smaller neighbourhood and then to the lower index.
    """
    adjacent = [0] * poly.num_vars
    for term in poly.terms:
        scope = 0
        for i in term:
            scope |= 1 << i
        for i in term:
            adjacent[i] |= scope ^ 1 << i

    def key(v):
        nbrs = rest = adjacent[v]
        missing = 0
        while rest:
            u = rest.bit_length() - 1
            rest ^= 1 << u
            missing += (rest & ~adjacent[u]).bit_count()
        return missing, nbrs.bit_count(), v

    keys = {v: key(v) for v in range(poly.num_vars)}
    order = []
    while len(keys) > _FULL_TABLE_LIMIT:
        _, degree, v = min(keys.values())
        if degree >= _BUCKET_LIMIT:
            return None
        nbrs = around = adjacent[v]
        order.append((v, nbrs))
        del keys[v]
        for u in _bits(nbrs):
            adjacent[u] = (adjacent[u] | nbrs) & ~(1 << u | 1 << v)
            around |= adjacent[u]
        # a key changes with its variable's neighbourhood, or when two of
        # those neighbours gain an edge, which only variables in nbrs do
        for w in _bits(around):
            if nbrs >> w & 1 or (adjacent[w] & nbrs).bit_count() > 1:
                keys[w] = key(w)
    return order


def _scope_energies(terms, scope: tuple[int, ...]) -> np.ndarray:
    """Energies of ``terms`` over the variables in ``scope``, an array with
    one axis of length 2 per variable (index 1 for spin -1), built as
    :func:`energy_table` builds its table."""
    k = len(scope)
    bit = {v: 1 << (k - 1 - j) for j, v in enumerate(scope)}
    coeffs = np.zeros(1 << k)
    for term, coeff in terms:
        coeffs[sum(map(bit.__getitem__, term))] += coeff
    return _fwht_rows(coeffs).reshape((2,) * k)


def _eliminated_minimum(
    poly: PuboPolynomial, order, witness: bool = True
) -> tuple[float, int | None]:
    """:func:`_minimum` by bucket elimination along ``order``.

    Each bucket holds the terms whose first eliminated variable is ``x`` and
    the messages sent to it, over ``x`` and its neighbours.  Every cell
    carries an energy and, with ``witness`` on, the mask of the variables
    eliminated below it; eliminating ``x`` keeps, per assignment of the
    neighbours, the lower energy and, on equal energy, the lower mask.  The
    remaining variables form one table, whose least energy with the lowest
    full mask is the answer, so no back-tracking is needed.  With
    ``witness`` off no mask is built and the mask returned is None: this is
    min-sum bucket elimination, with the same sums in the same order, so the
    energy is bit for bit the one the witness pass returns.
    """
    n = poly.num_vars
    final = len(order)
    step_of = [final] * n
    for step, (v, _) in enumerate(order):
        step_of[v] = step
    terms = [[] for _ in range(final + 1)]
    for term, coeff in poly.terms.items():
        terms[min(map(step_of.__getitem__, term), default=final)].append((term, coeff))
    inbox = [[] for _ in range(final + 1)]

    def gather(step, scope):
        # the bucket's energies, and the masks of what its messages eliminated
        energies = _scope_energies(terms[step], scope)
        masks = np.zeros(energies.shape, dtype=np.int64) if witness else None
        for sub, e, m in inbox[step]:
            shape = tuple([2 if v in sub else 1 for v in scope])
            energies += e.reshape(shape)
            if witness:
                masks |= m.reshape(shape)
        return energies, masks

    for step, (x, nbrs) in enumerate(order):
        scope = tuple(_bits(nbrs | 1 << x))
        energies, masks = gather(step, scope)
        axis = scope.index(x)
        # (variables before x, x, variables after x); messages stay in that
        # C order, which gather reshapes to the receiving bucket's axes
        energies = energies.reshape(1 << axis, 2, -1)
        e0, e1 = energies[:, 0], energies[:, 1]
        if witness:
            masks = masks.reshape(1 << axis, 2, -1)
            m0, m1 = masks[:, 0], masks[:, 1] | 1 << (n - 1 - x)
            pick = (e1 < e0) | ((e1 == e0) & (m1 < m0))
            message = np.where(pick, e1, e0), np.where(pick, m1, m0)
        else:
            message = np.minimum(e0, e1), None
        sub = scope[:axis] + scope[axis + 1:]
        dest = min(map(step_of.__getitem__, sub), default=final)
        inbox[dest].append((sub, *message))

    scope = tuple(v for v in range(n) if step_of[v] == final)
    energies, masks = gather(final, scope)
    best = energies.min()
    if not witness:
        return float(best), None
    for axis, v in enumerate(scope):
        masks.reshape(1 << axis, 2, -1)[:, 1] |= 1 << (n - 1 - v)
    return float(best), int(masks[energies == best].min())


def brute_force_min(
    poly: PuboPolynomial, cap: int = DEFAULT_BRUTE_CAP
) -> tuple[float, np.ndarray]:
    """Exact minimum energy and its lowest-bitmask witness.

    Three paths give the same answer, and the polynomial alone picks one:

    * up to ``_FULL_TABLE_LIMIT`` (12) variables, one Walsh-Hadamard energy
      table and its argmin;
    * from ``_ELIMINATION_MIN_VARS`` (20) variables, when a min-fill order
      keeps every bucket within ``_BUCKET_LIMIT`` (13) variables, bucket
      elimination down to 12 variables (:func:`_eliminated_minimum`), whose
      cost grows with the width of the interaction graph rather than with
      ``2**n``; masks need ``n <= 63``.  On 3- and 4-regular MaxCut at
      n = 20-24 it took 0.45-0.92 ms (median of three graphs, best of seven
      runs, 2-core x86-64 VM);
    * otherwise the trailing 12 variables stay in tables, one per distinct
      part of a term over the leading variables, and the energies of
      consecutive blocks of leading assignments come from products of
      character signs with those tables (:func:`_energy_blocks`).

    No path builds a table of ``2**n`` entries above 12 variables.  The
    crossover at 20 variables was measured (see ``_ELIMINATION_MIN_VARS``):
    below it elimination lost to the blocked products.  Ties go to the
    lowest mask on every path.  With dyadic weights, which cover every
    MaxCut instance, every sum is exact and the paths agree bit for bit;
    otherwise the energy may differ from the summed terms, and between
    paths, in the last bits, since each path sums in its own order.

    The pipeline's ``e_min_original`` and QAOA references and ``qubocut
    qaoa``'s ``e_min`` throw the witness away, so they call ``_minimum``
    with ``witness=False`` instead: on the elimination path each bucket then
    keeps only the lower of each pair of energies, with no masks and no
    63-variable limit, in 0.27-0.51 ms on the same graphs.  The energy is
    bit for bit this function's.  Any other call above 63 variables raises
    :class:`ResourceLimitError` before it builds a table.
    """
    energy, mask = _minimum(poly, _index(cap, "cap", 0))
    return energy, index_to_spins(mask, poly.num_vars)


def _minimum(
    poly: PuboPolynomial, cap: int = DEFAULT_BRUTE_CAP, witness: bool = True
) -> tuple[float, int | None]:
    """:func:`brute_force_min` with the witness as its bitmask; with
    ``witness`` off, the same energy and None for the mask."""
    n = poly.num_vars
    if n > cap:
        raise ResourceLimitError(f"{n} variables exceed the brute-force cap {cap}")
    high = n - _FULL_TABLE_LIMIT
    if high <= 0:
        blocks = [(0, energy_table(poly))]
    # masks are int64, so elimination with a witness stops at 63 variables
    elif (
        _ELIMINATION_MIN_VARS <= n
        and (n < 64 or not witness)
        and (order := _min_fill_order(poly)) is not None
    ):
        return _eliminated_minimum(poly, order, witness)
    elif n >= 64:  # no int64 mask holds the witness, and 2**(n - 12) blocks never end
        raise ResourceLimitError(f"{n} variables exceed 63 without an energy-only elimination")
    else:
        blocks = _energy_blocks(poly, high)
    best_energy, best_mask = np.inf, 0
    for first, energies in blocks:
        local = int(energies.argmin())
        energy = float(energies.flat[local])
        if first == 0 or energy < best_energy:
            best_energy, best_mask = energy, (first << _FULL_TABLE_LIMIT) + local
    return best_energy, best_mask if witness else None
