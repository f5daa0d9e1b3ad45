"""Fast Walsh-Hadamard transform against the definition."""

import numpy as np
import pytest

from qubocut import fwht, wht
from qubocut.errors import DimensionError

from oracles import fwht_radix2, naive_wht, sign_matrix


def test_single_element():
    np.testing.assert_array_equal(fwht([3.5]), [3.5])


def test_two_elements():
    np.testing.assert_array_equal(fwht([1.0, 2.0]), [3.0, -1.0])


def test_known_four_point():
    # H4 rows applied to (1, 0, 0, 0) pick out column 0: all ones
    np.testing.assert_array_equal(fwht([1.0, 0.0, 0.0, 0.0]), [1, 1, 1, 1])
    # delta at t=3 alternates with popcount(m & 3)
    np.testing.assert_array_equal(fwht([0.0, 0.0, 0.0, 1.0]), [1, -1, -1, 1])


def test_matches_naive_double_sum():
    rng = np.random.default_rng(11)
    for d in (2, 8, 64, 256):
        v = rng.standard_normal(d)
        np.testing.assert_allclose(fwht(v), naive_wht(v), atol=1e-10)


def test_matches_sign_matrix():
    rng = np.random.default_rng(12)
    for d in (4, 32, 128):
        v = rng.standard_normal(d)
        np.testing.assert_allclose(fwht(v), sign_matrix(d) @ v, atol=1e-10)


def test_involution_up_to_dimension():
    rng = np.random.default_rng(13)
    for d in (1, 2, 16, 512):
        v = rng.standard_normal(d)
        np.testing.assert_allclose(fwht(fwht(v)) / d, v, atol=1e-10)


def test_parseval():
    rng = np.random.default_rng(14)
    v = rng.standard_normal(128)
    w = fwht(v)
    np.testing.assert_allclose(w @ w, 128.0 * (v @ v), rtol=1e-12)


def test_linearity():
    rng = np.random.default_rng(15)
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    np.testing.assert_allclose(
        fwht(2.0 * a - 0.5 * b), 2.0 * fwht(a) - 0.5 * fwht(b), atol=1e-10
    )


def test_input_not_mutated():
    for d in (8, 1 << 13):
        for v in (np.arange(d, dtype=np.float64), np.arange(d) * (1 - 0.5j)):
            copy = v.copy()
            fwht(v)
            np.testing.assert_array_equal(v, copy)


@pytest.mark.parametrize("n", [*range(17), 17, 20])
def test_matches_radix2_loop(n):
    # Real and complex, 2^0..2^16 takes zero to four passes of every width
    # from 1 to 6 bits; real 2^17 and 2^20 take four passes of 5 and 4 bits.
    rng = np.random.default_rng(100 + n)
    d = 1 << n
    real = rng.integers(-64, 65, d) / 8.0
    cplx = real + 1j * rng.integers(-64, 65, d) / 16.0
    for dyadic in (real, cplx):
        out = fwht(dyadic)
        assert out.dtype == dyadic.dtype
        assert np.array_equal(out, fwht_radix2(dyadic))
    for v in (rng.standard_normal(d), rng.standard_normal(d) + 1j * rng.standard_normal(d)):
        ref = fwht_radix2(v)
        assert np.abs(fwht(v) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("rows", [1, 3, 4, 36])
def test_stacked_rows_match_one_row_calls(rows):
    # Product shapes follow from the row length alone, so a row gets the same
    # bits whatever is stacked with it; the batched QAOA passes rely on this.
    rng = np.random.default_rng(200 + rows)
    for n in range(17):
        real = rng.standard_normal((rows, 1 << n))
        for stack in (real, real + 1j * rng.standard_normal((rows, 1 << n))):
            got = wht._fwht_rows(stack.copy())
            for row, expected in zip(stack, got):
                assert np.array_equal(wht._fwht_rows(row.copy()), expected)


@pytest.mark.parametrize("n", range(1, 23))
def test_products_stay_within_one_thread_cap(n, monkeypatch):
    # n counts float64 entries per row; complex rows hold half as many values.
    products = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        products.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    for row in (np.ones(1 << n), np.ones(1 << (n - 1), dtype=np.complex128)):
        products.clear()
        wht._fwht_rows(row)
        assert max(products, default=0) <= 64**3
        if n <= 6:
            assert len(products) == (row.size > 1)


def test_rejects_bad_lengths():
    with pytest.raises(DimensionError):
        fwht([1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        fwht([])
    with pytest.raises(DimensionError):
        fwht(np.ones((2, 2)))
