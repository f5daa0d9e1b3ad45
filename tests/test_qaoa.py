"""Statevector QAOA simulator and budgeted multistart optimization."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubocut
from qubocut import (
    Graph,
    PuboPolynomial,
    brute_force_min,
    detect_multilevel,
    maxcut_to_qubo,
    random_regular,
    reduce_core_fixed,
    reduce_exact,
    refine_boundary,
)
from qubocut import qaoa
from qubocut.errors import DimensionError, ParameterError, ResourceLimitError
from qubocut.qaoa import (
    QaoaParams,
    _nelder_mead,
    _Simulator,
    approximation_ratio,
    diagonal_energies,
    expectation,
    mixer_layer,
    optimize,
    run_circuit,
)

from oracles import dense_qaoa_state, expectation_naive, optimize_sequential


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


def test_diagonal_energies_cap_is_an_integer():
    poly = PuboPolynomial(2, [((0,), 1.0)])
    with pytest.raises(ParameterError, match="cap must be an integer"):
        diagonal_energies(poly, cap=2.5)
    assert diagonal_energies(poly, cap=np.int64(2)).size == 4


def test_run_circuit_p0_is_uniform():
    energies = np.zeros(8)
    state = run_circuit(energies, QaoaParams(np.zeros(0), np.zeros(0)))
    np.testing.assert_allclose(state, np.full(8, 2 ** -1.5), atol=1e-12)


def test_run_circuit_refuses_a_2d_energy_table():
    # a (2, 2) table used to run as two batched rows and return a (2, 2) state
    params = QaoaParams(np.array([0.3]), np.array([0.2]))
    with pytest.raises(DimensionError, match="expected a 1-D vector"):
        run_circuit(np.zeros((2, 2)), params)
    with pytest.raises(DimensionError, match="length must be a power of two"):
        run_circuit(np.zeros(6), params)
    with pytest.raises(DimensionError, match="expected a 1-D vector"):
        mixer_layer(np.zeros((2, 2)), 0.2)


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
    for n in (1, 2, 3, 7):  # n = 7 is the first size the WHT does in two passes
        energies = rng.standard_normal(1 << n)
        for p in (1, 2, 3):
            gammas = rng.uniform(0, 2 * np.pi, size=p)
            betas = rng.uniform(0, np.pi, size=p)
            fast = run_circuit(energies, QaoaParams(gammas, betas))
            dense = dense_qaoa_state(energies, gammas, betas)
            np.testing.assert_allclose(fast, dense, atol=1e-10)


def _symmetric_tables():
    """Flip-symmetric energy tables: MaxCut, an exact reduction, palindromes, d = 2."""
    for n in (4, 6, 8, 10):
        yield f"maxcut-{n}", diagonal_energies(maxcut_to_qubo(random_regular(n, 3, seed=n)))
    g = random_regular(12, 3, seed=1)
    assignment = refine_boundary(g, detect_multilevel(g, seed=1), seed=1)
    yield "reduce-exact", diagonal_energies(reduce_exact(maxcut_to_qubo(g), assignment).poly)
    rng = np.random.default_rng(72)
    for n in (1, 3, 5, 7):  # n = 1 is d = 2, a one-amplitude half
        e = rng.standard_normal(1 << n)
        yield f"palindrome-{n}", e + e[::-1]


@pytest.mark.parametrize("name, energies", list(_symmetric_tables()))
def test_half_path_matches_dense_oracle(name, energies):
    assert _Simulator(energies).half
    rng = np.random.default_rng(73)
    for p in (1, 2, 3, 4):
        gammas = rng.uniform(0, 2 * np.pi, size=p)
        betas = rng.uniform(0, np.pi, size=p)
        fast = run_circuit(energies, QaoaParams(gammas, betas))
        dense = dense_qaoa_state(energies, gammas, betas)
        np.testing.assert_allclose(fast, dense, atol=1e-10)


def test_half_path_runs_only_on_an_exact_mirror():
    energies = diagonal_energies(maxcut_to_qubo(random_regular(8, 3, seed=74)))
    params = QaoaParams(np.array([0.4, 1.2]), np.array([0.7, 0.2]))
    assert _Simulator(energies).run(params).size == 128
    for mask in (0, 5, 255):
        broken = energies.copy()
        broken[mask] += 0.5  # its mirror 255 - mask keeps the old value
        simulator = _Simulator(broken)
        assert not simulator.half
        assert simulator.run(params).size == 256
        np.testing.assert_allclose(
            run_circuit(broken, params),
            dense_qaoa_state(broken, params.gammas, params.betas), atol=1e-10,
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(0, 3),
)
def test_simulator_expectation_matches_naive(n, symmetric, seed, p):
    rng = np.random.default_rng(seed)
    energies = rng.integers(-4, 5, size=1 << n).astype(np.float64)
    if symmetric:
        energies = energies + energies[::-1]
    gammas = rng.uniform(0, 2 * np.pi, size=p)
    betas = rng.uniform(0, np.pi, size=p)
    simulator = _Simulator(energies)
    assert simulator.half == (symmetric or np.array_equal(energies, energies[::-1]))
    dense = dense_qaoa_state(energies, gammas, betas)
    assert simulator.expectation(QaoaParams(gammas, betas)) == pytest.approx(
        expectation_naive(dense, energies), abs=1e-10
    )


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
    valid = {"p": 1, "budget": 10, "starts": 1, "seed": 0}
    for bad in (
        {"p": -1}, {"p": 2.0}, {"p": True}, {"budget": 2, "starts": 3},
        {"budget": 0}, {"budget": 10.5}, {"starts": 0}, {"starts": 2.0},
        {"starts": np.True_}, {"seed": -1}, {"seed": 1.0}, {"seed": None},
        {"e_min": float("nan")}, {"e_min": float("-inf")}, {"e_min": "-1"},
        {"e_min": True}, {"e_min": False},
    ):
        with pytest.raises(ParameterError):
            optimize(poly, **(valid | bad))


def test_optimize_accepts_numpy_integers():
    poly = maxcut_to_qubo(Graph(2, ((0, 1),)))
    plain = optimize(poly, p=2, budget=30, starts=2, seed=3, e_min=-1.0)
    numpy = optimize(
        poly, p=np.int64(2), budget=np.int32(30), starts=np.uint8(2), seed=np.int64(3),
        e_min=np.float64(-1.0),
    )
    assert numpy.trace == plain.trace
    assert numpy.ratio == plain.ratio


def _optimize_tables():
    """MaxCut (half path), both reductions and a non-dyadic polynomial."""
    for n in (4, 6, 8, 10):
        yield f"maxcut-{n}", maxcut_to_qubo(random_regular(n, 3, seed=n))
    g = random_regular(12, 3, seed=1)
    poly = maxcut_to_qubo(g)
    assignment = refine_boundary(g, detect_multilevel(g, seed=1), seed=1)
    yield "reduce-exact", reduce_exact(poly, assignment).poly
    yield "reduce-core-fixed", reduce_core_fixed(poly, assignment).poly
    rng = np.random.default_rng(75)
    terms = [(tuple(rng.choice(7, size=k, replace=False)), float(rng.normal()))
             for k in (1, 1, 2, 2, 2, 3, 3, 4)]
    yield "random-non-dyadic", PuboPolynomial(7, terms)
    yield "zero", PuboPolynomial(5, [])  # every value ties, so the first best must win


def _assert_same_result(fast, slow):
    assert [v.hex() for v in fast.trace] == [v.hex() for v in slow.trace]
    assert fast.evals_used == slow.evals_used == len(fast.trace)
    assert fast.expectation.hex() == slow.expectation.hex()
    np.testing.assert_array_equal(fast.params.gammas, slow.params.gammas)
    np.testing.assert_array_equal(fast.params.betas, slow.params.betas)
    assert (fast.ratio is None and slow.ratio is None) or fast.ratio.hex() == slow.ratio.hex()


@pytest.mark.parametrize("name, poly", list(_optimize_tables()))
def test_optimize_matches_sequential_scipy(name, poly):
    energies = diagonal_energies(poly)
    assert _Simulator(energies).half == name.startswith(("maxcut", "reduce-exact", "zero"))
    e_min = float(energies.min())
    # (budget, starts): a remainder left over, shares below the initial
    # simplex of 2p + 1 points (budget 8 over 2 starts at p = 4), one to five starts
    cases = [(50, 3), (10, 4), (8, 2), (25, 1), (41, 2), (62, 4), (77, 5)]
    for p in (1, 2, 3, 4):
        for budget, starts in cases:
            seed = 10 * p + starts
            fast = optimize(poly, p, budget=budget, starts=starts, seed=seed, e_min=e_min)
            slow = optimize_sequential(poly, p, budget, starts, seed, e_min=e_min)
            _assert_same_result(fast, slow)


def test_optimize_matches_sequential_scipy_when_starts_converge(monkeypatch):
    # shares large enough that each start stops on xatol/fatol, after its own count
    seen = []

    def spy(x0):
        seen.append(0)
        k = len(seen) - 1
        search = _nelder_mead(x0)
        points = next(search)
        while True:
            values = yield points
            seen[k] += len(values)
            try:
                points = search.send(values)
            except StopIteration:
                return

    poly = maxcut_to_qubo(random_regular(6, 3, seed=76))
    monkeypatch.setattr(qaoa, "_nelder_mead", spy)
    fast = optimize(poly, p=1, budget=3000, starts=3, seed=4, e_min=-7.0)
    slow = optimize_sequential(poly, 1, 3000, 3, 4, e_min=-7.0)
    _assert_same_result(fast, slow)
    assert sum(seen) == fast.evals_used
    assert max(seen) < 1000 and len(set(seen)) == 3


@settings(max_examples=150, deadline=None)
@given(
    poly=st.sampled_from([
        maxcut_to_qubo(random_regular(8, 3, seed=79)),
        # every value ties, so each step contracts and then shrinks the simplex
        PuboPolynomial(5, []),
        # a constant of 2**53 leaves every expectation a whole number within 40
        # of it: values tie often, so shrinks are common, but differ enough
        # that the order of the points inside a shrink shows in the trace
        PuboPolynomial(3, [((), 2.0**53), ((0,), 24.0), ((1, 2), 16.0)]),
    ]),
    p=st.integers(1, 4),
    starts=st.integers(1, 5),
    data=st.data(),
)
def test_optimize_matches_sequential_scipy_at_every_share(poly, p, starts, data):
    # budgets from one evaluation per start to 80 end a start's share inside
    # its initial simplex, inside a shrink and between single points
    budget = data.draw(st.integers(starts, 80), label="budget")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fast = optimize(poly, p, budget=budget, starts=starts, seed=seed, e_min=-10.0)
    slow = optimize_sequential(poly, p, budget, starts, seed, e_min=-10.0)
    _assert_same_result(fast, slow)


def test_optimize_batches_each_simplex_into_one_call(monkeypatch):
    # a depth-4 start names its 9-point initial simplex at once, so four starts
    # fill the first call with 36 rows; one point per start and call would
    # need a call per evaluation of the 16-evaluation share, lists need half
    calls = []
    expectations = _Simulator.expectations

    def spy(self, angles):
        calls.append(len(angles))
        return expectations(self, angles)

    g = random_regular(12, 3, seed=4)
    assignment = refine_boundary(g, detect_multilevel(g, seed=4), seed=4)
    poly = reduce_exact(maxcut_to_qubo(g), assignment).poly
    monkeypatch.setattr(_Simulator, "expectations", spy)
    result = optimize(poly, p=4, budget=64, starts=4, seed=4)
    assert result.evals_used == sum(calls) == 64
    assert calls[0] == 36
    assert len(calls) == 8


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def _rounded_bowl(x):
    return float(np.round(np.sum((x - 0.3) ** 2) * 4) / 4)  # plateaus: many equal values


def _holed_rosenbrock(x):
    # NaN on stripes of x[0]: every comparison with NaN is false
    return np.nan if (x[0] * 10) % 1 < 0.3 else _rosenbrock(x)


@pytest.mark.parametrize(
    "fn, x0",
    [
        (_rosenbrock, np.array([-1.2, 1.0, 0.5, -0.7])),
        (_rounded_bowl, np.array([1.3, -0.4, 2.2])),
        (_rosenbrock, np.array([0.0, 1.5, 0.0, -2.0])),
        (_holed_rosenbrock, np.array([-1.2, 1.0, 0.5, -0.7])),
        (_rounded_bowl, np.array([0.0, 0.0, 0.7])),
        (_rounded_bowl, np.array([1.1, -0.6, 0.0, 2.4, 0.9, -1.3, 0.2, 1.7])),
    ],
)
@pytest.mark.parametrize("maxfev", [3, 40, 400, 5000])
def test_nelder_mead_visits_scipys_points(fn, x0, maxfev):
    from scipy.optimize import minimize

    expected = []

    def record(x):
        expected.append(np.array(x, copy=True))
        return fn(x)

    minimize(record, x0, method="Nelder-Mead",
             options={"maxfev": maxfev, "xatol": 1e-4, "fatol": 1e-8})
    got = []
    search = _nelder_mead(x0)
    points = next(search)
    while True:
        points = points[: maxfev - len(got)]  # the budget may end inside a list
        got += [point.copy() for point in points]
        if len(got) == maxfev:
            break
        values = [fn(point) for point in points]
        for point in points:
            point.fill(np.nan)  # the caller owns each point, as scipy's objective owns its copy
        try:
            points = search.send(values)
        except StopIteration:
            break
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert [v.hex() for v in mine] == [v.hex() for v in theirs]


@pytest.mark.parametrize("cap", [1, 16, 1 << 13])
def test_batched_expectations_match_one_point_path(monkeypatch, cap):
    monkeypatch.setattr(qaoa, "_BATCH_AMPLITUDES", cap)
    rng = np.random.default_rng(77)
    tables = [diagonal_energies(maxcut_to_qubo(random_regular(8, 3, seed=78))),
              rng.standard_normal(1 << 7), np.array([0.5, 0.5]), np.array([1.5])]
    for energies in tables:
        simulator = _Simulator(energies)
        for p in (1, 3):
            angles = np.concatenate(
                [rng.uniform(0, 2 * np.pi, (5, p)), rng.uniform(0, np.pi, (5, p))], axis=1)
            batched = simulator.expectations(angles)
            single = [simulator.expectation(QaoaParams.from_flat(row)) for row in angles]
            assert [v.hex() for v in batched] == [v.hex() for v in single]


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize costs about 0.5 s and 47 MB to import, and the package needs none of it
    code = (
        "import sys, qubocut\n"
        "print('scipy.optimize' in sys.modules)\n"
        "g = qubocut.Graph(3, ((0, 1), (1, 2)))\n"
        "r = qubocut.qaoa_optimize(qubocut.maxcut_to_qubo(g), p=2, budget=40, starts=2)\n"
        "print(r.evals_used, 'scipy.optimize' in sys.modules)"
    )
    src = Path(qubocut.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert done.stdout.split() == ["False", "40", "False"]
