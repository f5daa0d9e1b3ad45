"""Reduction of a community-partitioned QUBO to a boundary PUBO.

Given a degree-2 spin polynomial and a community assignment, the energy
splits as

    E(s) = sum_c E_c(boundary_c, core_c) + E_across(boundary),

with every cross-community edge landing in ``E_across`` and every
intra-community term in its community's ``E_c``.  Quenching a community
minimizes ``E_c`` over its core spins for each of the ``2**|B_c|`` boundary
assignments; the resulting table is exactly representable as a polynomial
over the community's boundary spins via a Walsh-Hadamard transform.  Summing
those polynomials with ``E_across`` yields a reduced instance over the global
boundary whose minimum equals the original minimum (exact mode) or upper
bounds it (core-fixed mode, which instead freezes each community's core at
one unconstrained optimum and keeps the reduced degree at 2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitops import index_to_spins, index_to_term, spins_to_index
from .community import CommunityAssignment
from .errors import ParameterError, ResourceLimitError, UnsupportedDegreeError
from .polynomial import PuboPolynomial
from .wht import fwht

__all__ = [
    "CommunitySubinstance",
    "QuenchTable",
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
class QuenchTable:
    """Per-boundary-mask core minima of one community.

    ``energies[b]`` is ``min_core E_c(b, core)`` and ``argmin_cores[b]`` the
    lowest core bitmask attaining it, for each boundary mask ``b``.
    """

    community: int
    energies: np.ndarray
    argmin_cores: np.ndarray


@dataclass(frozen=True)
class ReducedInstance:
    """Reduced PUBO over the global boundary plus lifting data.

    ``var_map[j]`` is the original vertex behind reduced variable ``j``.
    ``mode`` is ``"exact"`` or ``"core-fixed"``; tables are kept in exact
    mode so lifting is a lookup, while core-fixed lifting re-minimizes each
    community's core under the chosen boundary.
    """

    poly: PuboPolynomial
    var_map: tuple[int, ...]
    num_original_vars: int
    mode: str
    subinstances: tuple[CommunitySubinstance, ...] = ()
    tables: tuple[QuenchTable, ...] = ()

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
            var_map = tuple(int(v) for v in data["var_map"])
            mode = data["mode"]
            num_original = int(data["num_original_vars"])
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed reduced-instance JSON: {exc}") from exc
        if mode not in MODES:
            raise ParameterError(f"unknown mode {mode!r}")
        return cls(poly, var_map, num_original, mode)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ReducedInstance":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def split_energy(
    poly: PuboPolynomial, assignment: CommunityAssignment
) -> tuple[list[CommunitySubinstance], PuboPolynomial]:
    """Split a degree-<=2 polynomial into per-community and across parts.

    Returns one subinstance per community (local variables, boundary first)
    and the across polynomial over original global indices, whose support is
    a subset of the global boundary plus the constant.
    """
    if poly.degree() > 2:
        raise UnsupportedDegreeError(
            f"energy splitting requires degree <= 2, got degree {poly.degree()}"
        )
    member = assignment.membership
    if member.size != poly.num_vars:
        raise ParameterError(
            f"assignment covers {member.size} vertices, polynomial has {poly.num_vars}"
        )
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
        if len(term) == 0:
            across_terms.append((term, coeff))
        elif len(term) == 1:
            c = int(member[term[0]])
            intra_terms[c].append(((local_index[term[0]],), coeff))
        else:
            i, j = term
            ci, cj = int(member[i]), int(member[j])
            if ci == cj:
                intra_terms[ci].append(((local_index[i], local_index[j]), coeff))
            else:
                across_terms.append((term, coeff))

    subs = []
    for c, (boundary, core) in enumerate(subs_vars):
        subs.append(
            CommunitySubinstance(
                community=c,
                boundary_vars=tuple(boundary),
                core_vars=tuple(core),
                intra=PuboPolynomial(len(boundary) + len(core), intra_terms[c]),
            )
        )
    return subs, PuboPolynomial(poly.num_vars, across_terms)


def quench(
    sub: CommunitySubinstance, boundary_cap: int = DEFAULT_BOUNDARY_CAP
) -> QuenchTable:
    """Minimize the community energy over its core for every boundary mask.

    Each boundary mask pins the boundary spins with
    :meth:`PuboPolynomial.restrict`, and the remaining core polynomial is
    solved exactly by :func:`brute_force_min` under that solver's own
    variable cap.  ``boundary_cap`` bounds ``|B_c|``.
    """
    if sub.num_boundary > boundary_cap:
        raise ResourceLimitError(
            f"community {sub.community}: |B_c|={sub.num_boundary} exceeds cap {boundary_cap}"
        )
    from .solvers import brute_force_min

    nb = sub.num_boundary
    size = 1 << nb
    energies = np.empty(size, dtype=np.float64)
    argmins = np.empty(size, dtype=np.int64)
    for mask in range(size):
        pinned = dict(enumerate(index_to_spins(mask, nb).tolist()))
        energy, core_spins = brute_force_min(sub.intra.restrict(pinned))
        energies[mask] = energy
        argmins[mask] = spins_to_index(core_spins)
    return QuenchTable(sub.community, energies, argmins)


def table_to_polynomial(table) -> PuboPolynomial:
    """Interpolate a full energy table by a spin polynomial.

    Accepts a :class:`QuenchTable` or a raw array of ``2**M`` energies indexed
    by bitmask; returns the unique multilinear polynomial over ``M`` spins
    whose energies reproduce the table.  Coefficients are ``fwht(energies) /
    2**M``, with entries below ``WHT_PRUNE_EPS * max|energies|`` in magnitude
    dropped, so pruning removes rounding noise at any weight scale.
    """
    energies = np.asarray(getattr(table, "energies", table), dtype=np.float64)
    m = energies.size.bit_length() - 1
    coeffs = fwht(energies) / energies.size
    threshold = WHT_PRUNE_EPS * np.abs(energies).max()
    kept = np.flatnonzero(np.abs(coeffs) >= threshold)
    terms = [(index_to_term(int(t), m), float(coeffs[t])) for t in kept]
    return PuboPolynomial(m, terms)


def quench_communities(
    poly: PuboPolynomial,
    assignment: CommunityAssignment,
    mode: str,
    boundary_cap: int = DEFAULT_BOUNDARY_CAP,
) -> tuple[list[CommunitySubinstance], PuboPolynomial, list]:
    """Stage 2: split the energy, then solve each community in ``mode``.

    Returns the subinstances, the across polynomial and per community either
    its :class:`QuenchTable` (exact) or the core spins of the lowest-bitmask
    optimum of its whole subinstance (core-fixed).
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    subs, across = split_energy(poly, assignment)
    if mode == "exact":
        return subs, across, [quench(sub, boundary_cap) for sub in subs]
    from .solvers import brute_force_min

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
    boundary spins, summed with the across part over the global boundary.
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
    total = across.reindex(to_reduced, len(var_map))
    for sub, bp in zip(subs, boundary_polys):
        mapping = {j: to_reduced[v] for j, v in enumerate(sub.boundary_vars)}
        total = total + bp.reindex(mapping, len(var_map))
    return ReducedInstance(
        poly=total,
        var_map=var_map,
        num_original_vars=across.num_vars,
        mode=mode,
        subinstances=tuple(subs),
        tables=tuple(solved) if mode == "exact" else (),
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
    The reduced polynomial keeps degree <= 2 and its minimum upper-bounds the
    original one.
    """
    stage2 = quench_communities(poly, assignment, "core-fixed")
    return assemble_reduced(assignment, "core-fixed", *stage2)


def lift_solution(instance: ReducedInstance, boundary_spins) -> np.ndarray:
    """Extend a reduced (boundary) assignment to all original variables.

    Exact mode reads each community's stored argmin core for the community's
    boundary mask; core-fixed mode re-minimizes each core under the fixed
    boundary, so the lifted energy never exceeds the reduced value at the
    same boundary assignment.
    """
    if not instance.subinstances:
        raise ParameterError(
            "this reduced instance carries no lifting data (loaded from JSON?)"
        )
    b = np.asarray(boundary_spins, dtype=np.int64)
    if b.shape != (len(instance.var_map),):
        raise ParameterError(
            f"expected {len(instance.var_map)} boundary spins, got {b.shape}"
        )
    to_reduced = {v: j for j, v in enumerate(instance.var_map)}
    full = np.zeros(instance.num_original_vars, dtype=np.int8)
    full[list(instance.var_map)] = b
    from .solvers import brute_force_min

    for idx, sub in enumerate(instance.subinstances):
        local_boundary = [int(b[to_reduced[v]]) for v in sub.boundary_vars]
        mask = spins_to_index(local_boundary)
        if instance.mode == "exact":
            core_mask = int(instance.tables[idx].argmin_cores[mask])
            core_spins = index_to_spins(core_mask, sub.num_core)
        else:
            pinned = dict(enumerate(local_boundary))
            _, core_spins = brute_force_min(sub.intra.restrict(pinned))
        full[list(sub.core_vars)] = core_spins
    return full
