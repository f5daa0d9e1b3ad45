"""Reduction of a community-partitioned PUBO to a boundary PUBO.

Given a spin polynomial of any degree and a community assignment, the energy
splits as

    E(s) = sum_c E_c(boundary_c, core_c) + E_across(boundary),

with every term inside one community landing in its ``E_c`` and every term
that spans communities, whose variables must all be boundary variables, in
``E_across``.  Quenching a community minimizes ``E_c`` over its core spins
for each of the ``2**|B_c|`` boundary assignments; the resulting table is
exactly representable as a polynomial over the community's boundary spins
via a Walsh-Hadamard transform.  Summing those polynomials with
``E_across`` yields a reduced instance over the global boundary whose
minimum equals the original minimum (exact mode) or upper bounds it
(core-fixed mode, which instead freezes each community's core at one
unconstrained optimum and keeps the reduced degree at most the input's).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitops import as_spins, index_to_term
from .community import CommunityAssignment
from .errors import ParameterError, ResourceLimitError
from .polynomial import DEFAULT_BRUTE_CAP, PuboPolynomial, _index, _minimum, brute_force_min
from .polynomial import _read_json, _write_json
from .wht import _power_of_two_vector, fwht

__all__ = [
    "CommunitySubinstance",
    "ReducedInstance",
    "split_energy",
    "quench",
    "table_to_polynomial",
    "quench_communities",
    "assemble_reduced",
    "reduce_exact",
    "reduce_core_fixed",
    "lift_solution",
    "MODES",
    "WHT_PRUNE_EPS",
    "DEFAULT_BOUNDARY_CAP",
]

MODES = ("exact", "core-fixed")
WHT_PRUNE_EPS = 1e-9
DEFAULT_BOUNDARY_CAP = 24


@dataclass(frozen=True)
class CommunitySubinstance:
    """One community's intra-community energy in local variables.

    Local indices run boundary-first: locals ``0..len(boundary_vars)-1`` are
    the community's boundary vertices (ascending global index), the rest its
    core.  A local assignment is the bitmask ``boundary_mask << |core|
    | core_mask``.
    """

    community: int
    boundary_vars: tuple[int, ...]
    core_vars: tuple[int, ...]
    intra: PuboPolynomial

    @property
    def num_boundary(self) -> int:
        return len(self.boundary_vars)

    @property
    def num_core(self) -> int:
        return len(self.core_vars)


@dataclass(frozen=True)
class ReducedInstance:
    """Reduced PUBO over the global boundary plus lifting data.

    ``var_map[j]`` is the original vertex behind reduced variable ``j``.
    ``mode`` is ``"exact"`` or ``"core-fixed"``.  ``subinstances`` are what
    :func:`lift_solution` needs; they are not serialized.
    """

    poly: PuboPolynomial
    var_map: tuple[int, ...]
    num_original_vars: int
    mode: str
    subinstances: tuple[CommunitySubinstance, ...] = ()

    def to_json_dict(self) -> dict:
        data = self.poly.to_json_dict()
        data["var_map"] = list(self.var_map)
        data["num_original_vars"] = self.num_original_vars
        data["mode"] = self.mode
        return data

    def degree_histogram(self) -> dict[str, int]:
        """Number of reduced terms per degree, keyed by the degree as a string."""
        counts: dict[int, int] = {}
        for term in self.poly.terms:
            counts[len(term)] = counts.get(len(term), 0) + 1
        return {str(k): v for k, v in sorted(counts.items())}

    @classmethod
    def from_json_dict(cls, data) -> "ReducedInstance":
        poly = PuboPolynomial.from_json_dict(data)
        try:
            var_map = tuple(_index(v, "var_map entry") for v in data["var_map"])
            mode = data["mode"]
            num_original = _index(data["num_original_vars"], "num_original_vars")
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed reduced-instance JSON: {exc}") from exc
        if mode not in MODES:
            raise ParameterError(f"unknown mode {mode!r}")
        if len(set(var_map)) != len(var_map) or not all(
            0 <= v < num_original for v in var_map
        ):
            raise ParameterError(
                f"var_map entries must be distinct and in [0, {num_original})"
            )
        if len(var_map) != poly.num_vars:
            raise ParameterError(
                f"var_map has {len(var_map)} entries for {poly.num_vars} variables"
            )
        return cls(poly, var_map, num_original, mode)

    def save(self, path) -> None:
        _write_json(self.to_json_dict(), path)

    @classmethod
    def load(cls, path) -> "ReducedInstance":
        return cls.from_json_dict(_read_json(path))


def split_energy(
    poly: PuboPolynomial, assignment: CommunityAssignment
) -> tuple[list[CommunitySubinstance], PuboPolynomial]:
    """Split a polynomial into per-community and across parts.

    A term whose variables all lie in one community goes to that community's
    subinstance in local variables (boundary first).  Every other term, the
    constant included, goes to the across polynomial over original global
    indices, and each of its variables must be a boundary variable.  Terms
    keep their degree, so no part has a higher degree than ``poly``.  Both
    parts come from ``poly``'s canonical terms, so they skip validation.
    """
    member = assignment.membership.tolist()
    if len(member) != poly.num_vars:
        raise ParameterError(
            f"assignment covers {len(member)} vertices, polynomial has {poly.num_vars}"
        )
    is_boundary = assignment.boundary.tolist()
    local_index: dict[int, int] = {}
    subs_vars: list[tuple[list[int], list[int]]] = []
    for c in range(assignment.num_communities):
        boundary = [int(v) for v in assignment.boundary_of(c)]
        core = [int(v) for v in assignment.core_of(c)]
        subs_vars.append((boundary, core))
        for j, v in enumerate(boundary + core):
            local_index[v] = j

    intra_terms: list[list[tuple[tuple[int, ...], float]]] = [
        [] for _ in range(assignment.num_communities)
    ]
    across_terms: list[tuple[tuple[int, ...], float]] = []
    for term, coeff in poly.terms.items():
        communities = {member[v] for v in term}
        if len(communities) == 1:
            # boundary-first locals are not monotone in the global indices
            intra_terms[communities.pop()].append(
                (tuple(sorted(local_index[v] for v in term)), coeff)
            )
        elif all(is_boundary[v] for v in term):
            across_terms.append((term, coeff))
        else:
            raise ParameterError(
                f"term {term} spans communities but has a core variable"
            )

    trusted = PuboPolynomial._from_canonical
    subs = [
        CommunitySubinstance(
            c, tuple(boundary), tuple(core),
            trusted(len(boundary) + len(core), intra_terms[c]),
        )
        for c, (boundary, core) in enumerate(subs_vars)
    ]
    return subs, trusted(poly.num_vars, across_terms)


def quench(
    sub: CommunitySubinstance, boundary_cap: int = DEFAULT_BOUNDARY_CAP
) -> np.ndarray:
    """Minimize the community energy over its core for every boundary mask.

    Returns the float64 table of ``2**|B_c|`` minima indexed by boundary
    mask, the only allocation of that size.  The boundary assignments are
    walked in mask order, each pins the boundary spins with
    :meth:`PuboPolynomial.restrict`, and the remaining core polynomial is
    solved exactly by :func:`brute_force_min`'s exhaustive search under that
    solver's own variable cap.  ``boundary_cap`` bounds ``|B_c|``; both caps
    are checked before the table is allocated.
    """
    nb = sub.num_boundary
    if nb > _index(boundary_cap, "boundary_cap", 0):
        raise ResourceLimitError(
            f"community {sub.community}: |B_c|={nb} exceeds cap {boundary_cap}"
        )
    if sub.num_core > DEFAULT_BRUTE_CAP:
        raise ResourceLimitError(
            f"community {sub.community}: {sub.num_core} core variables exceed "
            f"the brute-force cap {DEFAULT_BRUTE_CAP}"
        )
    minima = (
        _minimum(sub.intra.restrict(dict(enumerate(spins))))[0]
        for spins in itertools.product((1, -1), repeat=nb)
    )
    return np.fromiter(minima, dtype=np.float64, count=1 << nb)


def table_to_polynomial(table) -> PuboPolynomial:
    """Interpolate a full energy table by a spin polynomial.

    ``table`` is a 1-D array of ``2**M`` energies indexed by bitmask, such as
    :func:`quench` returns (any other shape raises :class:`DimensionError`);
    the result is the unique multilinear polynomial over ``M`` spins whose
    energies reproduce it.  Coefficients are ``fwht(energies) / 2**M``, with
    entries below ``WHT_PRUNE_EPS * max|energies|`` in magnitude dropped, so
    pruning removes rounding noise at any weight scale.  Every coefficient
    sums all entries, so a table holding NaN or an infinity, or one whose
    transform overflows, gives a non-finite coefficient and raises
    :class:`ParameterError`.
    """
    energies = _power_of_two_vector(np.asarray(table, dtype=np.float64))
    m = energies.size.bit_length() - 1
    scale = np.abs(energies).max()
    if scale == 0.0:
        # a zero threshold would keep, and decode, all 2**M zero coefficients
        return PuboPolynomial(m)
    coeffs = fwht(energies) / energies.size
    if not np.isfinite(coeffs).all():
        raise ParameterError("energy table or its transform is not finite")
    threshold = WHT_PRUNE_EPS * scale
    kept = np.flatnonzero(np.abs(coeffs) >= threshold)
    terms = [(index_to_term(int(t), m), float(coeffs[t])) for t in kept]
    return PuboPolynomial._from_canonical(m, terms)


def quench_communities(
    poly: PuboPolynomial,
    assignment: CommunityAssignment,
    mode: str,
    boundary_cap: int = DEFAULT_BOUNDARY_CAP,
) -> tuple[list[CommunitySubinstance], PuboPolynomial, list]:
    """Stage 2: split the energy, then solve each community in ``mode``.

    Returns the subinstances, the across polynomial and per community either
    its :func:`quench` table (exact) or the core spins of the lowest-bitmask
    optimum of its whole subinstance (core-fixed).
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    subs, across = split_energy(poly, assignment)
    if mode == "exact":
        return subs, across, [quench(sub, boundary_cap) for sub in subs]
    cores = [brute_force_min(sub.intra)[1][sub.num_boundary:] for sub in subs]
    return subs, across, cores


def assemble_reduced(
    assignment: CommunityAssignment,
    mode: str,
    subs: Sequence[CommunitySubinstance],
    across: PuboPolynomial,
    solved: Sequence,
) -> ReducedInstance:
    """Stage 3: turn :func:`quench_communities` output into the reduced PUBO.

    Each community's table or frozen core becomes a polynomial over its
    boundary spins.  Those polynomials and the across part are mapped to
    reduced indices and summed in one trusted construction, across terms
    first and then the communities in order; ``var_map`` ascends, so every
    mapped term stays sorted.
    """
    var_map = tuple(int(v) for v in assignment.global_boundary())
    to_reduced = {v: j for j, v in enumerate(var_map)}
    if mode == "exact":
        boundary_polys = [table_to_polynomial(t) for t in solved]
    else:
        boundary_polys = [
            sub.intra.restrict(dict(enumerate(core.tolist(), sub.num_boundary)))
            for sub, core in zip(subs, solved)
        ]
    terms = [(tuple(to_reduced[v] for v in t), c) for t, c in across.terms.items()]
    for sub, bp in zip(subs, boundary_polys):
        reduced_of = [to_reduced[v] for v in sub.boundary_vars]
        terms += [(tuple(reduced_of[j] for j in t), c) for t, c in bp.terms.items()]
    return ReducedInstance(
        poly=PuboPolynomial._from_canonical(len(var_map), terms),
        var_map=var_map,
        num_original_vars=across.num_vars,
        mode=mode,
        subinstances=tuple(subs),
    )


def reduce_exact(
    poly: PuboPolynomial,
    assignment: CommunityAssignment,
    boundary_cap: int = DEFAULT_BOUNDARY_CAP,
) -> ReducedInstance:
    """Quench every community exactly; the reduced minimum equals the original."""
    stage2 = quench_communities(poly, assignment, "exact", boundary_cap)
    return assemble_reduced(assignment, "exact", *stage2)


def reduce_core_fixed(
    poly: PuboPolynomial, assignment: CommunityAssignment
) -> ReducedInstance:
    """Freeze each core at one unconstrained community optimum.

    Each community's full subinstance (boundary and core together) is solved
    once; the core spins of the lowest-bitmask optimum are substituted in.
    The reduced polynomial's degree is at most the input's and its minimum
    upper-bounds the original one.
    """
    stage2 = quench_communities(poly, assignment, "core-fixed")
    return assemble_reduced(assignment, "core-fixed", *stage2)


def lift_solution(instance: ReducedInstance, boundary_spins) -> np.ndarray:
    """Extend a reduced (boundary) assignment to all original variables.

    In both modes each community's core gets the lowest-mask minimizer of
    the community energy with its boundary pinned to the given spins.  In
    exact mode that core attains the minimum :func:`quench` stored for this
    boundary mask, so the lifted energy is the reduced value up to the
    rounding of the interpolation; in core-fixed mode it never exceeds the
    reduced value at the same boundary assignment.
    """
    if not instance.subinstances:
        raise ParameterError(
            "this reduced instance carries no lifting data (loaded from JSON?)"
        )
    b = as_spins(boundary_spins, len(instance.var_map))
    full = np.zeros(instance.num_original_vars, dtype=np.int8)
    full[list(instance.var_map)] = b
    for sub in instance.subinstances:
        pinned = dict(enumerate(full[list(sub.boundary_vars)].tolist()))
        full[list(sub.core_vars)] = brute_force_min(sub.intra.restrict(pinned))[1]
    return full
