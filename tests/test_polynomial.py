"""PuboPolynomial canonicalization, algebra, and the energy table."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubocut import PuboPolynomial, energy_table, index_to_spins, maxcut_to_qubo, random_regular
from qubocut.errors import ParameterError
from qubocut.polynomial import _energy_blocks

from oracles import all_spin_vectors, eval_terms_int, eval_terms_naive


def _random_poly(rng, n, num_terms, max_degree):
    terms = []
    for _ in range(num_terms):
        k = int(rng.integers(0, max_degree + 1))
        term = tuple(rng.choice(n, size=k, replace=False)) if k else ()
        terms.append((term, float(rng.integers(-5, 6)) or 1.0))
    return PuboPolynomial(n, terms)


def test_empty_polynomial():
    p = PuboPolynomial(3)
    assert p.terms == {}
    assert p.degree() == 0
    assert p.constant() == 0.0
    assert p.evaluate([1, -1, 1]) == 0.0


def test_duplicate_indices_fold_by_parity():
    # s1*s1 == 1, so (1, 1, 2) collapses to (2,) and (0, 0) to the constant
    p = PuboPolynomial(3, [((1, 1, 2), 2.0), ((0, 0), 5.0)])
    assert p.terms == {(): 5.0, (2,): 2.0}


def test_terms_merge_and_zero_drop():
    p = PuboPolynomial(2, [((0, 1), 1.5), ((1, 0), -1.5), ((0,), 2.0)])
    assert p.terms == {(0,): 2.0}


def test_terms_sorted_by_cardinality_then_index():
    p = PuboPolynomial(4, [((2, 3), 1.0), ((1,), 1.0), ((), 1.0), ((0, 1), 1.0)])
    assert list(p.terms) == [(), (1,), (0, 1), (2, 3)]


def test_degree_and_constant():
    p = PuboPolynomial(5, [((), -3.0), ((0, 2, 4), 1.0), ((1,), 0.5)])
    assert p.degree() == 3
    assert p.constant() == -3.0


def test_evaluate_matches_naive():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(1, 8))
        p = _random_poly(rng, n, num_terms=10, max_degree=min(4, n))
        for spins in all_spin_vectors(n):
            assert p.evaluate(spins) == pytest.approx(
                eval_terms_naive(p.terms, spins), abs=1e-12
            )


def test_evaluate_validates_length():
    p = PuboPolynomial(3, [((0,), 1.0)])
    with pytest.raises(ValueError):
        p.evaluate([1, -1])
    with pytest.raises(ValueError):
        p.evaluate([1, 0, -1])


def test_restrict_renumbers_free_variables():
    rng = np.random.default_rng(23)
    p = _random_poly(rng, 6, num_terms=12, max_degree=3)
    fixed = {1: -1, 4: 1}
    r = p.restrict(fixed)
    # free variables 0, 2, 3, 5 become 0, 1, 2, 3 in their original order
    assert r.num_vars == 4
    for spins in all_spin_vectors(4):
        full = np.array([spins[0], -1, spins[1], spins[2], 1, spins[3]])
        assert r.evaluate(spins) == pytest.approx(p.evaluate(full), abs=1e-12)
    q = PuboPolynomial(4, [((0, 2), 2.0), ((1, 3), -1.0), ((2,), 0.5), ((0,), 3.0)])
    assert q.restrict({0: -1, 3: 1}).terms == {(): -3.0, (1,): -1.5, (0,): -1.0}


_COEFFS = st.one_of(
    st.integers(-64, 64).map(lambda k: k / 8),  # dyadic
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 1 / 3, -2 / 7, 1e-300]),
)


@st.composite
def _polys_with_pins(draw):
    """A degree <= 4 polynomial, a pin set, and term pairs that restrict to
    exact-zero sums."""
    n = draw(st.integers(1, 8))
    pinned = draw(st.sets(st.integers(0, n - 1)))
    fixed = {i: draw(st.sampled_from([1, -1])) for i in sorted(pinned)}
    terms = st.sets(st.integers(0, n - 1), max_size=min(4, n)).map(sorted).map(tuple)
    items = draw(st.lists(st.tuples(terms, _COEFFS), max_size=12))
    for term, coeff in draw(st.lists(st.tuples(terms, _COEFFS), max_size=3)):
        spare = [i for i in pinned if i not in term and len(term) < 4]
        if spare:
            # term + {i} restricts to term's image times fixed[i]: the pair cancels
            i = draw(st.sampled_from(spare))
            items += [(tuple(sorted(term + (i,))), coeff), (term, -coeff * fixed[i])]
    if draw(st.booleans()):
        fixed = {i: np.int8(v) for i, v in fixed.items()}
    return PuboPolynomial(n, items), fixed


@settings(deadline=None)
@given(_polys_with_pins())
def test_restrict_equals_validating_construction(case):
    p, fixed = case
    renumber = {i: j for j, i in enumerate(i for i in range(p.num_vars) if i not in fixed)}
    items = []
    for term, coeff in p.terms.items():
        sign = 1
        for i in term:
            if i in fixed:
                sign *= int(fixed[i])
        items.append((tuple(renumber[i] for i in term if i in renumber), coeff * sign))
    expected = PuboPolynomial(len(renumber), items)
    r = p.restrict(fixed)
    assert r.num_vars == expected.num_vars
    assert list(r.terms) == list(expected.terms)
    assert [type(c) for c in r.terms.values()] == [float] * len(r.terms)
    assert [c.hex() for c in r.terms.values()] == [c.hex() for c in expected.terms.values()]


def test_restrict_rejects_bad_input():
    p = PuboPolynomial(3, [((0, 1), 1.0)])
    with pytest.raises(ParameterError):
        p.restrict({3: 1})
    with pytest.raises(ParameterError):
        p.restrict({-1: 1})
    with pytest.raises(ParameterError):
        p.restrict({0: 0})
    with pytest.raises(ParameterError):
        p.restrict({0: 2})


def test_restrict_all_variables_gives_constant():
    rng = np.random.default_rng(24)
    p = _random_poly(rng, 5, num_terms=10, max_degree=3)
    spins = np.array([1, -1, -1, 1, -1])
    r = p.restrict(dict(enumerate(spins.tolist())))
    assert r.num_vars == 0
    assert set(r.terms) <= {()}
    assert r.constant() == pytest.approx(p.evaluate(spins), abs=1e-12)
    assert p.restrict({}) == p


def test_equality():
    a = PuboPolynomial(2, [((0, 1), 1.0)])
    b = PuboPolynomial(2, {(1, 0): 1.0})
    assert a == b
    assert a != PuboPolynomial(3, [((0, 1), 1.0)])


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    p = _random_poly(rng, 7, num_terms=15, max_degree=4)
    q = PuboPolynomial.from_json_dict(p.to_json_dict())
    assert q == p
    path = tmp_path / "poly.json"
    p.save(path)
    assert PuboPolynomial.load(path) == p


def test_from_json_rejects_malformed():
    with pytest.raises(ParameterError):
        PuboPolynomial.from_json_dict({"num_vars": 2})
    with pytest.raises(ParameterError):
        PuboPolynomial.from_json_dict({"num_vars": 2, "terms": [{"vars": [0]}]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficient_rejected(bad):
    with pytest.raises(ParameterError, match="coefficient"):
        PuboPolynomial(2, [((0,), 1.0), ((0, 1), bad)])
    with pytest.raises(ParameterError, match="coefficient"):
        PuboPolynomial.from_json_dict(
            {"num_vars": 2, "terms": [{"vars": [1], "coeff": bad}]}
        )


def test_out_of_range_variable_rejected():
    with pytest.raises(ParameterError):
        PuboPolynomial(2, [((2,), 1.0)])
    with pytest.raises(ParameterError, match="num_vars must be at least 0, got -1"):
        PuboPolynomial(-1)


@pytest.mark.parametrize(
    "num_vars, term",
    [(3.9, [0, 2]), (3, [0.7, 2]), (3, [0, "2"]), (3, [True]), (True, [0])],
    ids=["float-num-vars", "float-var", "string-var", "bool-var", "bool-num-vars"],
)
def test_non_integer_indices_rejected(num_vars, term):
    # int() would truncate 3.9 and 0.7 and read "2" and True as indices
    with pytest.raises(ParameterError, match="must be an integer"):
        PuboPolynomial.from_json_dict(
            {"num_vars": num_vars, "terms": [{"vars": term, "coeff": 1.0}]}
        )
    with pytest.raises(ParameterError, match="must be an integer"):
        PuboPolynomial(num_vars, [(term, 1.0)])


def test_numpy_integer_indices_accepted():
    p = PuboPolynomial(np.int64(3), [(np.array([2, 0]), 1.0), ((np.int32(1),), 2.0)])
    assert p == PuboPolynomial(3, {(0, 2): 1.0, (1,): 2.0})
    assert all(type(i) is int for term in p.terms for i in term)


def test_energy_table_matches_pointwise_evaluation():
    rng = np.random.default_rng(24)
    for trial in range(10):
        n = int(rng.integers(1, 9))
        p = _random_poly(rng, n, num_terms=12, max_degree=min(4, n))
        table = energy_table(p)
        assert table.shape == (1 << n,)
        for mask in range(1 << n):
            spins = index_to_spins(mask, n)
            assert table[mask] == pytest.approx(
                eval_terms_naive(p.terms, spins), abs=1e-10
            )


@pytest.mark.parametrize("n", [7, 13])
def test_energy_table_is_exact_for_integer_coefficients(n):
    # Integer sums are exact in any order, so the blocked WHT must be too.
    rng = np.random.default_rng(25 + n)
    p = _random_poly(rng, n, num_terms=40, max_degree=4)
    table = energy_table(p)
    for mask, spins in enumerate(all_spin_vectors(n)):
        assert table[mask] == eval_terms_int(p.terms, spins)


def test_energy_table_constant_only():
    p = PuboPolynomial(3, [((), -2.5)])
    np.testing.assert_allclose(energy_table(p), np.full(8, -2.5))


def test_energy_table_holds_two_vectors():
    # the coefficient buffer is transformed where it lies: 2 x 32 MB at n = 22
    poly = maxcut_to_qubo(random_regular(22, 3, seed=1))
    tracemalloc.start()
    try:
        energy_table(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 72e6


@pytest.mark.parametrize("n", [0, 1, 5, 9])
def test_energy_blocks_tile_the_energy_table(n):
    rng = np.random.default_rng(26 + n)
    p = _random_poly(rng, n, num_terms=30, max_degree=min(5, n))
    table = energy_table(p).reshape(-1)
    for high in range(n + 1):
        blocks = [(first, energies.copy()) for first, energies in _energy_blocks(p, high)]
        starts = [first for first, _ in blocks]
        assert starts == sorted(starts) and starts[0] == 0
        # integer sums are exact, so the blocks equal the table bit for bit
        np.testing.assert_array_equal(np.concatenate([e.ravel() for _, e in blocks]), table)


def test_energy_blocks_rejects_bad_split():
    for high in (-1, 4):
        with pytest.raises(ParameterError):
            next(_energy_blocks(PuboPolynomial(3), high))
