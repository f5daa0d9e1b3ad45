"""Statevector QAOA simulator and budgeted multistart optimization."""

import numpy as np
import pytest

from qubocut import (
    Graph,
    PuboPolynomial,
    brute_force_min,
    maxcut_to_qubo,
    random_regular,
)
from qubocut.errors import DimensionError, ParameterError, ResourceLimitError
from qubocut.qaoa import (
    QaoaParams,
    approximation_ratio,
    diagonal_energies,
    expectation,
    mixer_layer,
    optimize,
    run_circuit,
)

from oracles import dense_qaoa_state, expectation_naive


def test_params_validation():
    p = QaoaParams(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    assert p.depth == 2
    with pytest.raises(DimensionError):
        QaoaParams(np.array([0.1]), np.array([0.3, 0.4]))
    flat = QaoaParams.from_flat([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(flat.gammas, [1.0, 2.0])
    np.testing.assert_array_equal(flat.betas, [3.0, 4.0])


def test_diagonal_energies_constant():
    poly = PuboPolynomial(3, [((), 2.0)])
    np.testing.assert_array_equal(diagonal_energies(poly), np.full(8, 2.0))


def test_diagonal_energies_single_edge():
    poly = maxcut_to_qubo(Graph(2, ((0, 1),)))
    np.testing.assert_array_equal(diagonal_energies(poly), [0.0, -1.0, -1.0, 0.0])


def test_diagonal_energies_matches_evaluate():
    rng = np.random.default_rng(61)
    for n in (1, 4, 8):
        terms = [(tuple(rng.choice(n, size=min(2, n), replace=False)), 1.0)
                 for _ in range(n)]
        poly = PuboPolynomial(n, terms)
        energies = diagonal_energies(poly)
        from qubocut import index_to_spins

        for mask in range(1 << n):
            assert energies[mask] == pytest.approx(
                poly.evaluate(index_to_spins(mask, n)), abs=1e-12
            )


def test_diagonal_energies_min_is_brute_force_min():
    g = random_regular(10, 3, seed=62)
    poly = maxcut_to_qubo(g)
    energy, _ = brute_force_min(poly)
    assert diagonal_energies(poly).min() == pytest.approx(energy)


def test_diagonal_energies_cap():
    poly = PuboPolynomial(6, [((0,), 1.0)])
    with pytest.raises(ResourceLimitError):
        diagonal_energies(poly, cap=5)


def test_run_circuit_p0_is_uniform():
    energies = np.zeros(8)
    state = run_circuit(energies, QaoaParams(np.zeros(0), np.zeros(0)))
    np.testing.assert_allclose(state, np.full(8, 2 ** -1.5), atol=1e-12)


def test_run_circuit_zero_beta_keeps_uniform_probabilities():
    g = random_regular(6, 3, seed=63)
    energies = diagonal_energies(maxcut_to_qubo(g))
    params = QaoaParams(np.array([0.7, 1.3]), np.zeros(2))
    state = run_circuit(energies, params)
    np.testing.assert_allclose(np.abs(state) ** 2, np.full(64, 1 / 64), atol=1e-12)


def test_run_circuit_single_qubit_trivial_energies():
    state = run_circuit(np.zeros(2), QaoaParams(np.array([0.9]), np.array([0.4])))
    expected = (np.cos(0.4) - 1j * np.sin(0.4)) / np.sqrt(2.0)
    np.testing.assert_allclose(state, [expected, expected], atol=1e-12)
    np.testing.assert_allclose(np.abs(state) ** 2, [0.5, 0.5], atol=1e-12)


def test_run_circuit_matches_dense_oracle():
    rng = np.random.default_rng(64)
    for n in (1, 2, 3):
        energies = rng.standard_normal(1 << n)
        for p in (1, 2, 3):
            gammas = rng.uniform(0, 2 * np.pi, size=p)
            betas = rng.uniform(0, np.pi, size=p)
            fast = run_circuit(energies, QaoaParams(gammas, betas))
            dense = dense_qaoa_state(energies, gammas, betas)
            np.testing.assert_allclose(fast, dense, atol=1e-10)


def test_run_circuit_preserves_norm():
    rng = np.random.default_rng(65)
    energies = rng.standard_normal(32)
    params = QaoaParams(rng.uniform(0, 6, size=4), rng.uniform(0, 3, size=4))
    state = run_circuit(energies, params)
    assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_mixer_half_pi_flips_all_bits():
    # at beta = pi/2 the mixer sends |m> to a global phase times |~m>
    d = 16
    for m in (0, 5, 15):
        basis = np.zeros(d, dtype=np.complex128)
        basis[m] = 1.0
        flipped = mixer_layer(basis, np.pi / 2)
        probs = np.abs(flipped) ** 2
        assert probs[d - 1 - m] == pytest.approx(1.0, abs=1e-12)


def test_full_flip_layer_keeps_z2_expectation():
    g = random_regular(8, 3, seed=66)
    energies = diagonal_energies(maxcut_to_qubo(g))
    state = run_circuit(energies, QaoaParams(np.array([0.8]), np.array([0.3])))
    before = expectation(state, energies)
    after = expectation(mixer_layer(state, np.pi / 2), energies)
    assert after == pytest.approx(before, abs=1e-9)


def test_expectation_uniform_maxcut_is_minus_half_m():
    g = random_regular(10, 3, seed=67)  # 15 edges
    energies = diagonal_energies(maxcut_to_qubo(g))
    uniform = np.full(1 << 10, 2 ** -5.0, dtype=np.complex128)
    assert expectation(uniform, energies) == pytest.approx(-7.5, abs=1e-12)


def test_expectation_basis_state_and_bounds():
    rng = np.random.default_rng(68)
    energies = rng.standard_normal(16)
    basis = np.zeros(16, dtype=np.complex128)
    basis[int(np.argmin(energies))] = 1.0
    assert expectation(basis, energies) == pytest.approx(energies.min())
    state = run_circuit(energies, QaoaParams(np.array([1.1]), np.array([0.6])))
    value = expectation(state, energies)
    assert energies.min() - 1e-12 <= value <= energies.max() + 1e-12
    assert value == pytest.approx(expectation_naive(state, energies), abs=1e-12)


def test_approximation_ratio():
    assert approximation_ratio(-3.0, -3.0) == 1.0
    assert approximation_ratio(0.0, -3.0) == 0.0
    with pytest.raises(ParameterError):
        approximation_ratio(-1.0, 0.0)


def test_optimize_respects_budget_and_traces():
    g = random_regular(8, 3, seed=69)
    poly = maxcut_to_qubo(g)
    result = optimize(poly, p=2, budget=50, starts=3, seed=0)
    assert result.evals_used <= 50
    assert len(result.trace) == result.evals_used
    assert result.expectation == min(result.trace)
    assert result.ratio is None


def test_optimize_ratio_undefined_at_zero_minimum():
    poly = maxcut_to_qubo(random_regular(6, 3, seed=71))
    for p in (0, 1):
        result = optimize(poly, p=p, budget=8, starts=2, seed=0, e_min=0.0)
        assert result.ratio is None


def test_optimize_deterministic():
    g = random_regular(8, 3, seed=70)
    poly = maxcut_to_qubo(g)
    a = optimize(poly, p=2, budget=80, starts=2, seed=5, e_min=-10.0)
    b = optimize(poly, p=2, budget=80, starts=2, seed=5, e_min=-10.0)
    assert a.expectation == b.expectation
    assert a.evals_used == b.evals_used
    np.testing.assert_array_equal(a.params.gammas, b.params.gammas)


def test_optimize_single_edge_beats_uniform_baseline():
    # grid-scan oracle: the p=1 landscape on one edge peaks at ratio 1
    poly = maxcut_to_qubo(Graph(2, ((0, 1),)))
    energies = diagonal_energies(poly)
    grid_best = 0.0
    for gamma in np.linspace(0, 2 * np.pi, 60, endpoint=False):
        for beta in np.linspace(0, np.pi, 60, endpoint=False):
            state = run_circuit(energies, QaoaParams(np.array([gamma]), np.array([beta])))
            grid_best = min(grid_best, expectation(state, energies))
    assert grid_best == pytest.approx(-1.0, abs=1e-2)
    result = optimize(poly, p=1, budget=300, starts=3, seed=1, e_min=-1.0)
    assert result.ratio > 0.5
    assert result.ratio >= -grid_best - 1e-6


def test_optimize_p0_reports_uniform_expectation():
    g = random_regular(8, 3, seed=71)
    poly = maxcut_to_qubo(g)
    result = optimize(poly, p=0, budget=10, starts=1, seed=0, e_min=-10.0)
    assert result.expectation == pytest.approx(-6.0, abs=1e-12)


def test_zero_padded_parameters_nest_depths():
    # a depth-1 optimum stays feasible at depth 4 with zeroed extra layers
    poly = maxcut_to_qubo(Graph(2, ((0, 1),)))
    energies = diagonal_energies(poly)
    r1 = optimize(poly, p=1, budget=300, starts=3, seed=2, e_min=-1.0)
    padded = QaoaParams(
        np.concatenate([r1.params.gammas, np.zeros(3)]),
        np.concatenate([r1.params.betas, np.zeros(3)]),
    )
    state = run_circuit(energies, padded)
    assert expectation(state, energies) == pytest.approx(r1.expectation, abs=1e-12)
    r4 = optimize(poly, p=4, budget=600, starts=3, seed=2, e_min=-1.0)
    assert r4.ratio >= r1.ratio - 1e-6


def test_optimize_validates_arguments():
    poly = maxcut_to_qubo(Graph(2, ((0, 1),)))
    with pytest.raises(ParameterError):
        optimize(poly, p=-1, budget=10, starts=1, seed=0)
    with pytest.raises(ParameterError):
        optimize(poly, p=1, budget=2, starts=3, seed=0)
    with pytest.raises(ParameterError):
        optimize(poly, p=1, budget=10, starts=0, seed=0)
