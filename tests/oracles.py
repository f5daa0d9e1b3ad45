"""Independent reference implementations used by the test suite.

Everything here is written the slow, obvious way: explicit loops over
assignments, literal double sums, dense kron products.  None of it calls
into the fast code paths it is used to verify; only the data containers
and the index convention (bit n-1-i of a mask holds variable i, set bit
means spin -1) are shared, since both sides must agree on what an index
means for any comparison to be meaningful.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from qubocut.errors import ParameterError
from qubocut.wcnf import _MAX_SCALE, WcnfInstance


def all_spin_vectors(n):
    """All 2^n spin vectors, listed in mask order.

    itertools.product((1, -1), ...) cycles the last variable fastest and
    starts from all +1, which is exactly the mask order: vector number m
    is the assignment encoded by mask m.
    """
    return [
        np.array(s, dtype=np.int8) for s in itertools.product((1, -1), repeat=n)
    ]


def eval_terms_naive(terms, spins):
    """Plain python evaluation of a {term: coeff} mapping at one point."""
    total = 0.0
    for term, coeff in terms.items():
        value = coeff
        for var in term:
            value *= spins[var]
        total += value
    return total


def eval_terms_int(terms, spins):
    """Integer-exact evaluation; requires integer-valued coefficients."""
    total = 0
    for term, coeff in terms.items():
        value = int(coeff)
        for var in term:
            value *= int(spins[var])
        total += value
    return total


def enumerate_min(poly):
    """Exhaustive minimum of a polynomial, first witness in mask order."""
    best_e = np.inf
    best_s = None
    for spins in all_spin_vectors(poly.num_vars):
        e = eval_terms_naive(poly.terms, spins)
        if e < best_e:
            best_e = e
            best_s = spins
    return best_e, best_s


def quench_naive(sub):
    """Per-mask quench of one community, enumerating every core assignment.

    For each boundary mask, in mask order: the least intra-community energy
    over all core masks, and the first (lowest) core mask that attains it.
    """
    energies, argmins = [], []
    for b in all_spin_vectors(len(sub.boundary_vars)):
        best_e, best_c = np.inf, None
        for cmask, c in enumerate(all_spin_vectors(len(sub.core_vars))):
            e = eval_terms_naive(sub.intra.terms, np.concatenate([b, c]))
            if e < best_e:
                best_e, best_c = e, cmask
        energies.append(best_e)
        argmins.append(best_c)
    return np.array(energies), np.array(argmins, dtype=np.int64)


def cut_weight(g, spins):
    """Total weight of edges crossing the partition encoded by spins."""
    total = 0.0
    for index, (u, v) in enumerate(g.edges):
        if spins[u] != spins[v]:
            total += g.weight(index)
    return total


def max_cut_weight(g):
    """Exhaustive maximum cut weight."""
    best = -np.inf
    for spins in all_spin_vectors(g.num_vertices):
        best = max(best, cut_weight(g, spins))
    return best


def naive_wht(values):
    """Direct double-sum Walsh transform, sign from shared-bit parity."""
    v = np.asarray(values, dtype=np.float64)
    d = v.size
    t = np.arange(d, dtype=np.uint64)
    out = np.empty(d)
    for m in range(d):
        parity = np.bitwise_count(np.uint64(m) & t).astype(np.int64) & 1
        out[m] = (1.0 - 2.0 * parity) @ v
    return out


def fwht_radix2(values):
    """Radix-2 butterfly Walsh transform, one index bit per pass.

    Each pass replaces every pair (a, b) that differs in one bit by
    (a + b, a - b); complex input stays complex.
    """
    a = np.array(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)
    d = a.size
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


def sign_matrix(d):
    """S[m, t] = (-1)^popcount(m & t) as a dense float matrix.

    S @ coefficients evaluates a multilinear polynomial at every mask, and
    (S @ values) / d recovers coefficients; S is its own inverse up to d.
    """
    idx = np.arange(d, dtype=np.uint64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]).astype(np.int8) & 1
    return (1 - 2 * parity).astype(np.float64)


def boundary_flags(g, membership):
    """True for each vertex with a neighbor in another community.

    Only edges of nonzero weight count: the MaxCut polynomial has no term
    for a zero-weight edge.
    """
    flags = np.zeros(g.num_vertices, dtype=bool)
    for idx, (u, v) in enumerate(g.edges):
        if membership[u] != membership[v] and g.weight(idx) != 0:
            flags[u] = True
            flags[v] = True
    return flags


def score_from_scratch(g, membership):
    """max(boundary count, largest community size), recomputed fully."""
    membership = np.asarray(membership)
    flags = boundary_flags(g, membership)
    sizes = np.bincount(membership)
    return max(int(flags.sum()), int(sizes.max()))


def refine_naive(g, assignment, seed):
    """Greedy boundary refinement that rescores every trial move from scratch.

    Each pass draws a fresh permutation from ``default_rng(seed)`` and tries,
    for each vertex in that order, every other nonempty community in
    ascending id order; the first move whose :func:`score_from_scratch` is
    strictly lower is kept.  Stops after a pass with no move.  Returns the
    final membership, ids not compacted.
    """
    rng = np.random.default_rng(seed)
    membership = np.array(assignment.membership)
    score = score_from_scratch(g, membership)
    moved = True
    while moved:
        moved = False
        for v in rng.permutation(g.num_vertices).tolist():
            a = membership[v]
            for b in range(assignment.num_communities):
                if b == a or not np.any(membership == b):
                    continue
                membership[v] = b
                trial = score_from_scratch(g, membership)
                if trial < score:
                    score, moved = trial, True
                    break
                membership[v] = a
    return membership


def modularity_naive(g, membership):
    """Newman modularity from the dense adjacency matrix, double loop."""
    n = g.num_vertices
    a = np.zeros((n, n))
    for index, (u, v) in enumerate(g.edges):
        a[u, v] += g.weight(index)
        a[v, u] += g.weight(index)
    two_m = a.sum()
    k = a.sum(axis=1)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if membership[i] == membership[j]:
                q += a[i, j] - k[i] * k[j] / two_m
    return q / two_m


def satisfied_weight_naive(clauses, spins):
    """Weighted count of satisfied clauses; x_i is true iff s_i = +1."""
    total = 0
    for weight, literals in clauses:
        ok = False
        for lit in literals:
            x = spins[abs(lit) - 1] > 0
            if (lit > 0 and x) or (lit < 0 and not x):
                ok = True
                break
        if ok:
            total += weight
    return total


def pubo_to_wcnf_naive(poly):
    """The weighted-MaxSAT encoding, pattern by pattern.

    Every one of the ``2**k`` spin patterns of a degree-``k`` term is built
    and its sign recounted; the clause for a pattern is kept when that sign
    is the term's unfavorable one.  Patterns run in ascending order with
    the term's first variable on the most significant bit.
    """
    fractions = {}
    denominators = []
    for term, coeff in poly.terms.items():
        frac = Fraction(coeff)
        fractions[term] = frac
        denominators.append(frac.denominator)
    scale = math.lcm(*denominators) if denominators else 1
    if scale > _MAX_SCALE:
        raise ParameterError(
            f"coefficient denominators need scale {scale} > {_MAX_SCALE}; "
            "coefficients must be small rationals"
        )

    clauses = []
    offset = Fraction(0)
    for term, coeff in poly.terms.items():
        frac = fractions[term]
        k = len(term)
        if k == 0:
            offset -= frac
            continue
        offset -= abs(frac) * ((1 << k) - 1)
        weight = int(2 * abs(frac) * scale)
        want = 1 if coeff > 0 else -1
        for pattern in range(1 << k):
            sign = 1
            literals = []
            for j, var in enumerate(term):
                if (pattern >> (k - 1 - j)) & 1:  # sigma_j = -1
                    sign = -sign
                    literals.append(var + 1)
                else:  # sigma_j = +1
                    literals.append(-(var + 1))
            if sign == want:
                clauses.append((weight, tuple(literals)))
    return WcnfInstance(poly.num_vars, tuple(clauses), float(offset), scale)


def dense_qaoa_state(energies, gammas, betas):
    """Kron-built dense simulation of the alternating circuit.

    Cost layer multiplies amplitude m by exp(-i gamma E[m]); the mixer is
    the literal matrix product of exp(-i beta X_q) over every qubit.
    Each factor is a dense 2^n x 2^n matrix, so keep n to about 7.
    """
    energies = np.asarray(energies, dtype=np.float64)
    d = energies.size
    n = int(np.log2(d))
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    state = np.full(d, 1.0 / np.sqrt(d), dtype=np.complex128)
    for gamma, beta in zip(gammas, betas):
        state = np.exp(-1j * gamma * energies) * state
        for q in range(n):
            factor = np.ones((1, 1))
            for j in range(n):
                factor = np.kron(factor, x if j == q else eye)
            u = np.cos(beta) * np.eye(d) - 1j * np.sin(beta) * factor
            state = u @ state
    return state


def expectation_naive(state, energies):
    """<state| diag(energies) |state> via an explicit sum."""
    total = 0.0
    for amp, e in zip(state, energies):
        total += (amp.real**2 + amp.imag**2) * e
    return total


def optimize_sequential(poly, p, budget, starts, seed, e_min=None):
    """``qaoa.optimize`` as one scipy ``minimize`` call per start, in turn.

    The loop ``optimize`` ran before its starts moved to lockstep: the same
    initial points, the same objective closure and scipy's own Nelder-Mead.
    It evaluates through the simulator's one-point path, so a comparison
    with ``optimize`` checks the optimizer and the batching bit for bit.
    """
    from scipy.optimize import minimize

    from qubocut.qaoa import (
        QaoaParams, QaoaResult, _Simulator, approximation_ratio, diagonal_energies,
    )

    simulator = _Simulator(diagonal_energies(poly))
    rng = np.random.default_rng(seed)
    x0s = [
        np.concatenate([rng.uniform(0, 2 * np.pi, p), rng.uniform(0, np.pi, p)])
        for _ in range(starts)
    ]
    trace = []
    best = {"value": np.inf, "x": x0s[0]}

    class BudgetExhausted(Exception):
        pass

    def objective(x):
        if len(trace) >= budget:
            raise BudgetExhausted
        value = simulator.expectation(QaoaParams.from_flat(x))
        trace.append(value)
        if value < best["value"]:
            best["value"] = value
            best["x"] = np.array(x, copy=True)
        return value

    share = max(1, budget // starts)
    try:
        for x0 in x0s:
            remaining = budget - len(trace)
            if remaining <= 0:
                break
            minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"maxfev": min(share, remaining), "xatol": 1e-4, "fatol": 1e-8},
            )
    except BudgetExhausted:
        pass

    value = float(best["value"])
    ratio = approximation_ratio(value, e_min) if e_min else None
    return QaoaResult(QaoaParams.from_flat(best["x"]), value, ratio, len(trace), trace)
