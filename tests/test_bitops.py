"""Bitmask <-> spin conventions.

The whole package hangs off one convention: variable i sits at bit
n-1-i of a mask and a set bit means spin -1, so mask 0 is all +1 and
mask order starts from the assignment that favors +1 on low variables.
"""

import numpy as np
import pytest

from qubocut import (
    as_spins,
    index_to_spins,
    index_to_term,
    spins_to_index,
    term_to_index,
)
from qubocut.errors import DimensionError, ParameterError

from oracles import all_spin_vectors


def test_mask_zero_is_all_plus():
    np.testing.assert_array_equal(index_to_spins(0, 5), np.ones(5, dtype=np.int8))


def test_low_bit_is_last_variable():
    # bit 0 belongs to variable n-1
    np.testing.assert_array_equal(index_to_spins(1, 3), [1, 1, -1])
    # bit n-1 belongs to variable 0
    np.testing.assert_array_equal(index_to_spins(4, 3), [-1, 1, 1])
    np.testing.assert_array_equal(index_to_spins(6, 3), [-1, -1, 1])


def test_round_trip_matches_product_order():
    for n in range(1, 7):
        vectors = all_spin_vectors(n)
        for mask in range(1 << n):
            np.testing.assert_array_equal(index_to_spins(mask, n), vectors[mask])
            assert spins_to_index(vectors[mask]) == mask


def test_index_to_spins_dtype_and_range():
    s = index_to_spins(13, 4)
    assert s.dtype == np.int8
    assert set(s.tolist()) <= {1, -1}
    with pytest.raises(ValueError):
        index_to_spins(16, 4)
    with pytest.raises(ValueError):
        index_to_spins(-1, 4)


def test_term_index_pins():
    assert term_to_index((), 3) == 0
    assert term_to_index((0,), 3) == 4
    assert term_to_index((2,), 3) == 1
    assert term_to_index((0, 1), 3) == 6
    assert term_to_index((0, 1, 2), 3) == 7


def test_term_index_round_trip():
    n = 6
    for mask in range(1 << n):
        term = index_to_term(mask, n)
        assert term == tuple(sorted(term))
        assert term_to_index(term, n) == mask


def test_term_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        term_to_index((3,), 3)
    with pytest.raises(ValueError):
        index_to_term(8, 3)


def test_term_bit_consistency_with_spins():
    # the monomial value at a point is the parity of shared set bits
    n = 4
    for term in [(0,), (1, 3), (0, 2, 3), (0, 1, 2, 3)]:
        t_mask = term_to_index(term, n)
        for mask in range(1 << n):
            spins = index_to_spins(mask, n)
            prod = int(np.prod(spins[list(term)]))
            parity = bin(mask & t_mask).count("1") & 1
            assert prod == (-1) ** parity


def test_as_spins_validation():
    out = as_spins([1, -1, 1])
    assert out.dtype == np.int8
    with pytest.raises(ValueError):
        as_spins([1, 0, -1])
    with pytest.raises(ValueError):
        as_spins([[1, -1]])
    with pytest.raises(ValueError):
        as_spins([1, -1], num_vars=3)
    assert as_spins([], num_vars=0).size == 0


def test_errors_use_package_types():
    # a length or shape error is a DimensionError, a bad value a ParameterError
    for call in (
        lambda: index_to_spins(0, -1),
        lambda: index_to_spins(16, 4),
        lambda: term_to_index((3,), 3),
        lambda: index_to_term(8, 3),
        lambda: as_spins([1, 0, -1]),
    ):
        with pytest.raises(ParameterError):
            call()
    for call in (lambda: as_spins([[1, -1]]), lambda: as_spins([1, -1], num_vars=3)):
        with pytest.raises(DimensionError):
            call()
