"""PuboPolynomial canonicalization, algebra, and the energy table."""

import numpy as np
import pytest

from qubocut import PuboPolynomial, energy_table, index_to_spins
from qubocut.errors import DimensionError, ParameterError

from oracles import all_spin_vectors, eval_terms_naive


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


def test_reindex_permutation():
    p = PuboPolynomial(3, [((0, 1), 2.0), ((2,), -1.0)])
    q = p.reindex({0: 2, 1: 0, 2: 1}, 3)
    assert q.terms == {(1,): -1.0, (0, 2): 2.0}
    # energies agree when spins are permuted the same way
    for spins in all_spin_vectors(3):
        permuted = np.empty(3, dtype=np.int8)
        for old, new in {0: 2, 1: 0, 2: 1}.items():
            permuted[new] = spins[old]
        assert q.evaluate(permuted) == pytest.approx(p.evaluate(spins))


def test_reindex_into_smaller_space():
    p = PuboPolynomial(10, [((3, 7), 1.5), ((), 4.0)])
    q = p.reindex({3: 0, 7: 1}, 2)
    assert q.num_vars == 2
    assert q.terms == {(): 4.0, (0, 1): 1.5}


def test_reindex_requires_complete_mapping():
    p = PuboPolynomial(3, [((0, 2), 1.0)])
    with pytest.raises(ParameterError):
        p.reindex({0: 0}, 2)


def test_add_merges_coefficients():
    a = PuboPolynomial(2, [((0,), 1.0), ((0, 1), 2.0)])
    b = PuboPolynomial(2, [((0,), -1.0), ((1,), 3.0)])
    c = a + b
    assert c.terms == {(1,): 3.0, (0, 1): 2.0}
    with pytest.raises(DimensionError):
        a + PuboPolynomial(3)


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


def test_out_of_range_variable_rejected():
    with pytest.raises(ParameterError):
        PuboPolynomial(2, [((2,), 1.0)])
    with pytest.raises(ParameterError):
        PuboPolynomial(-1)


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


def test_energy_table_constant_only():
    p = PuboPolynomial(3, [((), -2.5)])
    np.testing.assert_allclose(energy_table(p), np.full(8, -2.5))
