"""Energy splitting, quenching, table interpolation, reduction, lifting."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubocut import (
    CommunityAssignment,
    CommunitySubinstance,
    Graph,
    PuboPolynomial,
    ReducedInstance,
    brute_force_min,
    detect_multilevel,
    index_to_spins,
    lift_solution,
    maxcut_to_qubo,
    quench,
    random_erdos_renyi,
    random_regular,
    reduce_core_fixed,
    reduce_exact,
    refine_boundary,
    spins_to_index,
    split_energy,
    table_to_polynomial,
)
from qubocut.errors import DimensionError, ParameterError, ResourceLimitError

from oracles import (
    all_spin_vectors,
    enumerate_min,
    eval_terms_naive,
    naive_wht,
    quench_naive,
)


def _k3():
    g = Graph(3, ((0, 1), (0, 2), (1, 2)))
    return g, maxcut_to_qubo(g)


def _reduced_oracle_table(poly, var_map):
    """Exhaustive min of the original over each boundary restriction."""
    best = {}
    for spins in all_spin_vectors(poly.num_vars):
        key = tuple(int(spins[v]) for v in var_map)
        e = eval_terms_naive(poly.terms, spins)
        if key not in best or e < best[key]:
            best[key] = e
    return best


def test_split_single_community():
    g, poly = _k3()
    ca = CommunityAssignment.from_membership(g, [0, 0, 0])
    subs, across = split_energy(poly, ca)
    assert len(subs) == 1
    assert across.terms == {(): -1.5}
    nonconstant = {t: c for t, c in poly.terms.items() if t}
    assert subs[0].intra.terms == nonconstant


def test_split_k3_buckets():
    g, poly = _k3()
    ca = CommunityAssignment.from_membership(g, [0, 0, 1])
    subs, across = split_energy(poly, ca)
    assert subs[0].boundary_vars == (0, 1)
    assert subs[0].core_vars == ()
    assert subs[0].intra.terms == {(0, 1): 0.5}
    assert subs[1].boundary_vars == (2,)
    assert subs[1].intra.terms == {}
    assert across.terms == {(): -1.5, (0, 2): 0.5, (1, 2): 0.5}


def test_split_reassembles_to_original():
    rng = np.random.default_rng(41)
    g = random_regular(20, 3, seed=41)
    poly = maxcut_to_qubo(g)
    ca = detect_multilevel(g, seed=41)
    subs, across = split_energy(poly, ca)
    for _ in range(100):
        spins = rng.choice([1, -1], size=20).astype(np.int8)
        total = eval_terms_naive(across.terms, spins)
        for sub in subs:
            local = [spins[v] for v in sub.boundary_vars + sub.core_vars]
            total += eval_terms_naive(sub.intra.terms, local)
        assert total == pytest.approx(eval_terms_naive(poly.terms, spins), abs=1e-12)


def test_split_cubic_term_inside_one_community_stays_intra():
    # interaction graph of the terms; community 0 = {0, 1, 2}, boundary {1, 2}
    g = Graph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
    poly = PuboPolynomial(4, [((0, 1, 2), 1.0), ((0,), 0.25), ((1, 2, 3), 0.5)])
    ca = CommunityAssignment.from_membership(g, [0, 0, 0, 1])
    subs, across = split_energy(poly, ca)
    assert subs[0].boundary_vars == (1, 2)
    assert subs[0].core_vars == (0,)
    # locals run boundary first: 1 -> 0, 2 -> 1, 0 -> 2
    assert subs[0].intra.terms == {(2,): 0.25, (0, 1, 2): 1.0}
    assert subs[1].intra.terms == {}
    assert across.terms == {(1, 2, 3): 0.5}


def test_split_spanning_term_on_a_core_variable_is_rejected():
    g = Graph(3, ((0, 1),))
    ca = CommunityAssignment.from_membership(g, [0, 0, 1])
    poly = PuboPolynomial(3, [((0, 1, 2), 1.0)])
    with pytest.raises(ParameterError, match=r"\(0, 1, 2\)"):
        split_energy(poly, ca)


def test_quench_no_core_copies_intra():
    g, poly = _k3()
    ca = CommunityAssignment.from_membership(g, [0, 0, 1])
    subs, _ = split_energy(poly, ca)
    table = quench(subs[0])
    for mask in range(4):
        spins = index_to_spins(mask, 2)
        assert table[mask] == pytest.approx(subs[0].intra.evaluate(spins))


def test_quench_path_graph_example():
    # path 0-1-2, boundary {0, 2}, core {1}; locals: 0->0, 2->1, 1->2
    intra = PuboPolynomial(3, [((), -1.0), ((0, 2), 0.5), ((1, 2), 0.5)])
    sub = CommunitySubinstance(0, (0, 2), (1,), intra)
    table = quench(sub)
    # boundary (+1, +1): core -1 cuts both edges
    assert table[0] == -2.0
    np.testing.assert_array_equal(table, [-2.0, -1.0, -1.0, -2.0])


def test_quench_matches_exhaustive_minimum():
    g = random_regular(14, 3, seed=42)
    poly = maxcut_to_qubo(g)
    ca = refine_boundary(g, detect_multilevel(g, seed=42), seed=42)
    subs, _ = split_energy(poly, ca)
    for sub in subs:
        nb, nc = len(sub.boundary_vars), len(sub.core_vars)
        table = quench(sub)
        assert table.shape == (1 << nb,)
        for bmask in range(1 << nb):
            b = index_to_spins(bmask, nb)
            values = []
            for cmask in range(1 << nc):
                c = index_to_spins(cmask, nc)
                values.append(sub.intra.evaluate(np.concatenate([b, c])))
            assert table[bmask] == pytest.approx(min(values), abs=1e-12)
            # table energy is a lower bound on any fixed-core slice
            assert table[bmask] <= values[0] + 1e-12


def test_quench_matches_naive_per_mask_quench():
    # dyadic weights keep every energy exact, so the minima compare bit for bit
    rng = np.random.default_rng(48)
    for trial in range(12):
        n = int(rng.integers(4, 11))
        g = random_erdos_renyi(n, 0.5, seed=trial)
        terms = [((u, v), float(rng.integers(-4, 5)) / 4) for u, v in g.edges]
        terms += [((v,), float(rng.integers(-2, 3)) / 2) for v in range(n)]
        poly = PuboPolynomial(n, terms)
        ca = CommunityAssignment.from_membership(g, rng.integers(0, 3, size=n))
        subs, _ = split_energy(poly, ca)
        for sub in subs:
            energies, _ = quench_naive(sub)
            np.testing.assert_array_equal(quench(sub), energies)


def test_quench_memory_is_its_table():
    # |B_c| = 12 with a 2-variable core: a 32 KB table and nothing of its size besides
    nb = 12
    terms = [((i, i + 1), 1.0) for i in range(nb + 1)] + [((0, nb, nb + 1), -0.5)]
    sub = CommunitySubinstance(0, tuple(range(nb)), (nb, nb + 1), PuboPolynomial(nb + 2, terms))
    quench(CommunitySubinstance(0, (0,), (1, 2), PuboPolynomial(3, terms[:2])))  # warm caches
    tracemalloc.start()
    try:
        table = quench(sub)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == 8 << nb
    assert peak < 4 * table.nbytes


def test_quench_boundary_cap():
    intra = PuboPolynomial(3, [((0, 1), 1.0)])
    sub = CommunitySubinstance(5, (0, 1, 2), (), intra)
    with pytest.raises(ResourceLimitError, match="community 5"):
        quench(sub, boundary_cap=2)


def test_quench_boundary_cap_is_an_integer():
    sub = CommunitySubinstance(5, (0, 1, 2), (), PuboPolynomial(3, [((0, 1), 1.0)]))
    with pytest.raises(ParameterError, match="boundary_cap must be an integer"):
        quench(sub, boundary_cap=2.5)
    np.testing.assert_array_equal(quench(sub, boundary_cap=np.int64(3)), quench(sub))


def test_quench_refuses_a_large_core_before_allocating():
    # |B_c| = 20 with a 32-variable core: the per-mask solve cannot take the
    # core, so the 8 MB table must never be allocated
    nb, nc = 20, 32
    terms = [((i, i + 1), 1.0) for i in range(nb + nc - 1)]
    sub = CommunitySubinstance(
        3, tuple(range(nb)), tuple(range(nb, nb + nc)), PuboPolynomial(nb + nc, terms)
    )
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="brute-force cap 30") as refusal:
            quench(sub)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "community 3" in str(refusal.value)


def test_table_to_polynomial_two_point():
    poly = table_to_polynomial(np.array([3.0, 7.0]))
    assert poly.terms == {(): 5.0, (0,): -2.0}


def test_table_to_polynomial_constant():
    poly = table_to_polynomial(np.full(8, 2.5))
    assert poly.terms == {(): 2.5}


def test_table_to_polynomial_all_zero_table_is_empty():
    start = time.perf_counter()
    poly = table_to_polynomial(np.zeros(1 << 16))
    assert time.perf_counter() - start < 0.1
    assert poly == PuboPolynomial(16)


def test_table_to_polynomial_reconstructs_random_table():
    rng = np.random.default_rng(43)
    table = rng.standard_normal(256)
    poly = table_to_polynomial(table)
    assert poly.num_vars == 8
    for mask in range(256):
        spins = index_to_spins(mask, 8)
        assert poly.evaluate(spins) == pytest.approx(table[mask], abs=1e-12)
    # coefficients agree with the naive transform
    coeffs = naive_wht(table) / 256.0
    for term, coeff in poly.terms.items():
        mask = sum(1 << (8 - 1 - i) for i in term)
        assert coeff == pytest.approx(coeffs[mask], abs=1e-12)


def test_table_to_polynomial_prunes_tiny_coefficients():
    base = PuboPolynomial(3, [((0, 1), 1.0), ((2,), 1e-12)])
    from qubocut import energy_table

    poly = table_to_polynomial(energy_table(base))
    assert (2,) not in poly.terms
    assert poly.terms[(0, 1)] == pytest.approx(1.0)


def test_table_to_polynomial_rejects_bad_length():
    # the shape check runs before the all-zero shortcut, which used to return
    # a 2-variable polynomial for np.zeros(6) and np.zeros((2, 2))
    for table in (np.ones(3), np.zeros(6), np.zeros(0), np.zeros((2, 2))):
        with pytest.raises(DimensionError):
            table_to_polynomial(table)


@pytest.mark.parametrize(
    "table",
    [
        [np.nan, 0.0],
        [0.0, 1.0, np.nan, 2.0],
        [np.inf, 0.0],
        [0.0, -np.inf],
        pytest.param([1e308, 1e308], marks=pytest.mark.filterwarnings("ignore:overflow")),
    ],
)
def test_table_to_polynomial_rejects_non_finite_tables(table):
    # NaN fails every prune comparison, so it must not pass as an empty polynomial
    with pytest.raises(ParameterError):
        table_to_polynomial(np.array(table))


def test_reduce_exact_single_community_constant():
    g, poly = _k3()
    ca = CommunityAssignment.from_membership(g, [0, 0, 0])
    ri = reduce_exact(poly, ca)
    assert ri.var_map == ()
    assert ri.mode == "exact"
    e_min, _ = enumerate_min(poly)
    assert ri.poly.terms == {(): pytest.approx(e_min)}
    lifted = lift_solution(ri, [])
    assert poly.evaluate(lifted) == pytest.approx(e_min)


def test_reduce_exact_semantics_pointwise():
    # reduced energy at b equals the best original energy consistent with b
    for seed in (0, 3, 8):
        g = random_regular(12, 3, seed=seed)
        poly = maxcut_to_qubo(g)
        ca = refine_boundary(g, detect_multilevel(g, seed=seed), seed=seed)
        ri = reduce_exact(poly, ca)
        assert ri.var_map == tuple(np.flatnonzero(ca.boundary).tolist())
        oracle = _reduced_oracle_table(poly, ri.var_map)
        for b, expected in oracle.items():
            assert ri.poly.evaluate(np.array(b, dtype=np.int8)) == pytest.approx(
                expected, abs=1e-9
            )


def test_reduce_exact_preserves_ground_energy():
    for seed in range(5):
        g = random_regular(12, 3, seed=seed)
        poly = maxcut_to_qubo(g)
        ca = refine_boundary(g, detect_multilevel(g, seed=seed), seed=seed)
        ri = reduce_exact(poly, ca)
        e_orig, _ = enumerate_min(poly)
        e_red, _ = enumerate_min(ri.poly)
        assert e_red == e_orig


def test_reduce_exact_degree_bounded_by_boundary():
    g = random_regular(16, 3, seed=44)
    poly = maxcut_to_qubo(g)
    ca = refine_boundary(g, detect_multilevel(g, seed=44), seed=44)
    subs, _ = split_energy(poly, ca)
    for sub in subs:
        community_poly = table_to_polynomial(quench(sub))
        assert community_poly.degree() <= len(sub.boundary_vars)


def test_reduce_exact_parity_property():
    # MaxCut has no linear terms, so reduced terms pair spins up
    for seed in (1, 6):
        g = random_regular(14, 3, seed=seed)
        ca = refine_boundary(g, detect_multilevel(g, seed=seed), seed=seed)
        ri = reduce_exact(maxcut_to_qubo(g), ca)
        assert all(len(term) % 2 == 0 for term in ri.poly.terms)


def test_reduce_core_fixed_equals_exact_without_cores():
    g, poly = _k3()
    ca = CommunityAssignment.from_membership(g, [0, 0, 1])
    exact = reduce_exact(poly, ca)
    fixed = reduce_core_fixed(poly, ca)
    assert fixed.mode == "core-fixed"
    assert set(exact.poly.terms) == set(fixed.poly.terms)
    for term, coeff in exact.poly.terms.items():
        assert fixed.poly.terms[term] == pytest.approx(coeff, abs=1e-12)


def test_reduce_core_fixed_degree_and_upper_bound():
    for seed in range(5):
        g = random_regular(12, 3, seed=seed)
        poly = maxcut_to_qubo(g)
        ca = refine_boundary(g, detect_multilevel(g, seed=seed), seed=seed)
        ri = reduce_core_fixed(poly, ca)
        assert ri.poly.degree() <= 2
        e_orig, _ = enumerate_min(poly)
        e_red, _ = enumerate_min(ri.poly)
        assert e_red >= e_orig - 1e-12


def test_lift_exact_mode_is_pointwise_faithful():
    g = random_regular(10, 3, seed=45)
    poly = maxcut_to_qubo(g)
    ca = refine_boundary(g, detect_multilevel(g, seed=45), seed=45)
    ri = reduce_exact(poly, ca)
    nb = len(ri.var_map)
    for b in all_spin_vectors(nb):
        lifted = lift_solution(ri, b)
        assert lifted.shape == (10,)
        for j, v in enumerate(ri.var_map):
            assert lifted[v] == b[j]
        assert poly.evaluate(lifted) == pytest.approx(
            ri.poly.evaluate(b), abs=1e-9
        )


def test_lift_exact_mode_reaches_global_minimum():
    for seed in (2, 9):
        g = random_regular(12, 3, seed=seed)
        poly = maxcut_to_qubo(g)
        ca = refine_boundary(g, detect_multilevel(g, seed=seed), seed=seed)
        ri = reduce_exact(poly, ca)
        e_red, b_best = enumerate_min(ri.poly)
        lifted = lift_solution(ri, b_best)
        e_orig, _ = enumerate_min(poly)
        assert poly.evaluate(lifted) == pytest.approx(e_orig, abs=1e-12)


def test_lift_core_fixed_reminimizes():
    rng = np.random.default_rng(46)
    g = random_regular(12, 3, seed=46)
    poly = maxcut_to_qubo(g)
    ca = refine_boundary(g, detect_multilevel(g, seed=46), seed=46)
    ri = reduce_core_fixed(poly, ca)
    nb = len(ri.var_map)
    for _ in range(20):
        b = rng.choice([1, -1], size=nb).astype(np.int8)
        lifted = lift_solution(ri, b)
        # constrained re-minimization never evaluates worse than the
        # frozen-core reduced polynomial at the same boundary
        assert poly.evaluate(lifted) <= ri.poly.evaluate(b) + 1e-12


def test_lift_rejects_bad_boundary_spins():
    g = random_regular(12, 3, seed=46)
    poly = maxcut_to_qubo(g)
    ri = reduce_exact(poly, refine_boundary(g, detect_multilevel(g, seed=46), seed=46))
    nb = len(ri.var_map)
    for bad in (1.7, 0.4):
        # neither value is rounded to a spin
        with pytest.raises(ParameterError, match="must be \\+1 or -1"):
            lift_solution(ri, [bad] + [1] * (nb - 1))
    for length in (nb - 1, nb + 1):
        with pytest.raises(DimensionError):
            lift_solution(ri, [1] * length)


def test_reduced_instance_round_trip(tmp_path):
    g = random_regular(12, 3, seed=47)
    poly = maxcut_to_qubo(g)
    ca = refine_boundary(g, detect_multilevel(g, seed=47), seed=47)
    ri = reduce_exact(poly, ca)
    path = tmp_path / "reduced.json"
    ri.save(path)
    back = ReducedInstance.load(path)
    assert back.poly == ri.poly
    assert back.var_map == ri.var_map
    assert back.mode == ri.mode
    assert back.num_original_vars == ri.num_original_vars
    # lifting data is not serialized
    with pytest.raises(ParameterError):
        lift_solution(back, [1] * len(back.var_map))


def test_reduced_instance_json_checks_var_map():
    base = {"num_vars": 2, "terms": [], "num_original_vars": 3, "mode": "exact"}
    assert ReducedInstance.from_json_dict({**base, "var_map": [2, 0]}).var_map == (2, 0)
    for var_map in ([0], [0, 1, 2], [1, 1], [0, 3], [-1, 0], [0.2, 1.9], [True, 0]):
        with pytest.raises(ParameterError, match="var_map"):
            ReducedInstance.from_json_dict({**base, "var_map": var_map})


def test_membership_must_cover_polynomial():
    g, poly = _k3()
    ca = CommunityAssignment.from_membership(Graph(2, ((0, 1),)), [0, 0])
    with pytest.raises(ParameterError):
        split_energy(poly, ca)


@st.composite
def _weighted_partitioned_graphs(draw, scale):
    """A graph of n <= 12 vertices, weights times ``scale``, and a partition."""
    n = draw(st.integers(3, 12))
    p = draw(st.sampled_from((0.3, 0.5, 0.8)))
    edges = random_erdos_renyi(n, p, seed=draw(st.integers(0, 2**16))).edges
    if draw(st.booleans()):
        base = st.integers(1, 9).map(float)
    else:
        base = st.floats(0.1, 10.0)
    weights = draw(st.lists(base, min_size=len(edges), max_size=len(edges)))
    g = Graph(n, edges, tuple(scale * w for w in weights))
    if draw(st.booleans()):
        ca = refine_boundary(g, detect_multilevel(g, seed=0), seed=0)
    else:
        membership = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        ca = CommunityAssignment.from_membership(g, membership)
    return g, ca


@pytest.mark.parametrize("exponent", [-12, -9, -4, 0, 4, 9, 12])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_reduction_exact_at_every_weight_scale(exponent, data):
    g, ca = data.draw(_weighted_partitioned_graphs(10.0**exponent))
    poly = maxcut_to_qubo(g)
    tol = 1e-9 * g.total_weight()
    e_orig, _ = enumerate_min(poly)

    ri = reduce_exact(poly, ca)
    e_red, b_best = brute_force_min(ri.poly)
    assert e_red == pytest.approx(e_orig, rel=0, abs=tol)
    assert poly.evaluate(lift_solution(ri, b_best)) == pytest.approx(e_red, rel=0, abs=tol)

    e_fixed, _ = brute_force_min(reduce_core_fixed(poly, ca).poly)
    assert e_fixed >= e_orig - tol


@st.composite
def _dyadic_pubos_with_partitions(draw):
    """A degree-<=4 dyadic PUBO over n <= 10 spins and a partition of its
    interaction graph (an edge joins every two variables sharing a term)."""
    n = draw(st.integers(1, 10))
    scopes = st.lists(st.integers(0, n - 1), max_size=4, unique=True).map(tuple)
    coeffs = st.integers(-8, 8).map(lambda k: k / 4)
    poly = PuboPolynomial(n, draw(st.lists(st.tuples(scopes, coeffs), max_size=3 * n)))
    pairs = {pair for term in poly.terms for pair in itertools.combinations(term, 2)}
    g = Graph(n, tuple(sorted(pairs)))
    if draw(st.booleans()):
        ca = detect_multilevel(g, seed=draw(st.integers(0, 3)))
    else:
        membership = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        ca = CommunityAssignment.from_membership(g, membership)
    return poly, ca


@settings(max_examples=150, deadline=None)
@given(_dyadic_pubos_with_partitions())
def test_reduction_of_higher_degree_pubos(case):
    # dyadic coefficients keep every sum exact, so energies compare with ==
    poly, ca = case
    e_orig, _ = enumerate_min(poly)

    ri = reduce_exact(poly, ca)
    e_red, b_best = enumerate_min(ri.poly)
    assert e_red == e_orig
    assert poly.evaluate(lift_solution(ri, b_best)) == e_red

    fixed = reduce_core_fixed(poly, ca)
    assert fixed.poly.degree() <= poly.degree()
    assert enumerate_min(fixed.poly)[0] >= e_orig


@settings(max_examples=60, deadline=None)
@given(_dyadic_pubos_with_partitions())
def test_lift_gives_the_lowest_mask_quench_core_in_both_modes(case):
    # dyadic coefficients keep every sum exact, so ties are real ties, the
    # lowest-mask tie-break is compared bit for bit and energies with ==
    poly, ca = case
    exact, fixed = reduce_exact(poly, ca), reduce_core_fixed(poly, ca)
    position = {v: j for j, v in enumerate(exact.var_map)}
    naive_argmins = [quench_naive(sub)[1] for sub in exact.subinstances]
    core_spins = [all_spin_vectors(sub.num_core) for sub in exact.subinstances]
    for b in all_spin_vectors(len(exact.var_map)):
        lifts = [lift_solution(ri, b) for ri in (exact, fixed)]
        for lifted in lifts:
            np.testing.assert_array_equal(lifted[list(exact.var_map)], b)
            for sub, argmins, cores in zip(exact.subinstances, naive_argmins, core_spins):
                bmask = spins_to_index([b[position[v]] for v in sub.boundary_vars])
                np.testing.assert_array_equal(
                    lifted[list(sub.core_vars)], cores[argmins[bmask]]
                )
        assert poly.evaluate(lifts[0]) == exact.poly.evaluate(b)


@settings(max_examples=150, deadline=None)
@given(_dyadic_pubos_with_partitions())
def test_trusted_builders_match_the_validating_constructor(case):
    # energies do not depend on the order inside a term, so compare the items
    # themselves, key order included
    poly, ca = case
    subs, across = split_energy(poly, ca)
    built = [across] + [sub.intra for sub in subs]
    built += [table_to_polynomial(quench(sub)) for sub in subs]
    built += [reduce_exact(poly, ca).poly, reduce_core_fixed(poly, ca).poly]
    for p in built:
        items = list(p.terms.items())
        assert items == list(PuboPolynomial(p.num_vars, items).terms.items())
