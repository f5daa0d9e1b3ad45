"""Statevector QAOA simulation for diagonal spin Hamiltonians.

The ansatz alternates a diagonal phase layer ``exp(-i gamma E)`` with a full
transverse mixer ``prod_q exp(-i beta X_q)`` on the uniform superposition;
for ``p`` layers the parameters are ``gamma_1..gamma_p, beta_1..beta_p``.
Classical optimization is a multistart Nelder-Mead search under a hard total
budget of energy-expectation evaluations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, ResourceLimitError
from .polynomial import PuboPolynomial, energy_table
from .wht import fwht

__all__ = [
    "QaoaParams",
    "QaoaResult",
    "diagonal_energies",
    "run_circuit",
    "mixer_layer",
    "expectation",
    "approximation_ratio",
    "optimize",
    "DEFAULT_QAOA_CAP",
    "DEFAULT_QAOA_DEPTH",
    "DEFAULT_QAOA_BUDGET",
    "DEFAULT_QAOA_STARTS",
]

DEFAULT_QAOA_CAP = 24
DEFAULT_QAOA_DEPTH = 4
DEFAULT_QAOA_BUDGET = 10_000
DEFAULT_QAOA_STARTS = 4


@dataclass(frozen=True)
class QaoaParams:
    """Angles of a depth-``p`` circuit: one (gamma, beta) pair per layer."""

    gammas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=np.float64)
        b = np.asarray(self.betas, dtype=np.float64)
        if g.ndim != 1 or b.ndim != 1 or g.size != b.size:
            raise DimensionError("gammas and betas must be 1-D and equally long")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "betas", b)

    @property
    def depth(self) -> int:
        return self.gammas.size

    @classmethod
    def from_flat(cls, x) -> "QaoaParams":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size % 2:
            raise DimensionError("flat parameter vector must have even length")
        p = x.size // 2
        return cls(x[:p], x[p:])


def diagonal_energies(poly: PuboPolynomial, cap: int = DEFAULT_QAOA_CAP) -> np.ndarray:
    """Energy of every computational basis state, indexed by bitmask."""
    if poly.num_vars > cap:
        raise ResourceLimitError(
            f"{poly.num_vars} qubits exceed the statevector cap {cap}"
        )
    return energy_table(poly)


@functools.cache
def _mixer_phases(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n + 1`` values ``n - 2k`` and the bitcount ``k`` of each index."""
    n = d.bit_length() - 1
    values = n - 2.0 * np.arange(n + 1)
    bitcounts = np.bitwise_count(np.arange(d, dtype=np.uint64)).astype(np.int64)
    for array in (values, bitcounts):
        array.flags.writeable = False  # one cached copy is shared by every call
    return values, bitcounts


def mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """Apply ``exp(-i beta X)`` on every qubit of a statevector.

    Uses X = H Z H per qubit: a Hadamard sandwich around a diagonal phase
    that depends only on the bitcount of the basis index, so only its
    ``n + 1`` distinct values are exponentiated.
    """
    state = fwht(np.asarray(state, dtype=np.complex128))
    values, bitcounts = _mixer_phases(state.size)
    state *= np.exp(-1j * beta * values)[bitcounts]
    state = fwht(state)
    state /= state.size
    return state


class _Simulator:
    """One instance's circuit runner with phase tables precompressed.

    The diagonal energies and the mixer's popcount phase take few distinct
    values, so per evaluation only those are exponentiated and fanned out by
    integer indexing.
    """

    def __init__(self, energies: np.ndarray):
        energies = np.asarray(energies, dtype=np.float64)
        d = energies.size
        if d == 0 or d & (d - 1):
            raise DimensionError(
                f"energy table length must be a power of two, got {d}"
            )
        self.energies = energies
        self.d = d
        self.unique_e, self.e_index = np.unique(energies, return_inverse=True)

    def run(self, params: QaoaParams) -> np.ndarray:
        state = np.full(self.d, 1.0 / np.sqrt(self.d), dtype=np.complex128)
        for gamma, beta in zip(params.gammas, params.betas):
            state *= np.exp(-1j * gamma * self.unique_e)[self.e_index]
            state = mixer_layer(state, beta)
        return state

    def expectation(self, params: QaoaParams) -> float:
        return expectation(self.run(params), self.energies)


def run_circuit(energies: np.ndarray, params: QaoaParams) -> np.ndarray:
    """Statevector after the full circuit, starting from |+...+>."""
    return _Simulator(energies).run(params)


def expectation(state: np.ndarray, energies: np.ndarray) -> float:
    """<E> of a statevector under a diagonal Hamiltonian."""
    state = np.asarray(state)
    energies = np.asarray(energies, dtype=np.float64)
    if state.size != energies.size:
        raise DimensionError("state and energy table lengths differ")
    return float(np.real(np.sum(np.abs(state) ** 2 * energies)))


def approximation_ratio(value: float, e_min: float) -> float:
    """value / e_min with both negative; 1.0 means the exact ground energy."""
    if e_min == 0:
        raise ParameterError("approximation ratio undefined when e_min is zero")
    return value / e_min


@dataclass
class QaoaResult:
    """Best parameters found, their expectation, and the evaluation trace."""

    params: QaoaParams
    expectation: float
    ratio: float | None
    evals_used: int
    trace: list[float] = field(default_factory=list)


class _BudgetExhausted(Exception):
    pass


def optimize(
    poly: PuboPolynomial,
    p: int,
    budget: int = DEFAULT_QAOA_BUDGET,
    starts: int = DEFAULT_QAOA_STARTS,
    seed: int = 0,
    e_min: float | None = None,
    cap: int = DEFAULT_QAOA_CAP,
) -> QaoaResult:
    """Multistart Nelder-Mead over the 2p angles under a hard evaluation budget.

    Initial points draw gamma from [0, 2pi) and beta from [0, pi); the budget
    counts every expectation evaluation across all starts and is never
    exceeded.  With a nonzero ``e_min`` the returned ratio is best/e_min;
    it is None when ``e_min`` is None or zero, where the ratio is undefined.
    """
    if p < 0:
        raise ParameterError(f"depth must be nonnegative, got {p}")
    if budget < 1:
        raise ParameterError(f"budget must be positive, got {budget}")
    if starts < 1:
        raise ParameterError(f"starts must be positive, got {starts}")
    if budget < starts:
        raise ParameterError(
            f"budget {budget} cannot cover {starts} starts"
        )
    energies = diagonal_energies(poly, cap)

    if p == 0:
        state = np.full(energies.size, 1.0 / np.sqrt(energies.size), np.complex128)
        value = expectation(state, energies)
        ratio = approximation_ratio(value, e_min) if e_min else None
        return QaoaResult(
            QaoaParams(np.zeros(0), np.zeros(0)), value, ratio, 1, [value]
        )

    rng = np.random.default_rng(seed)
    x0s = [
        np.concatenate([rng.uniform(0, 2 * np.pi, p), rng.uniform(0, np.pi, p)])
        for _ in range(starts)
    ]

    # imported here so that importing the package does not load scipy.optimize
    from scipy.optimize import minimize

    simulator = _Simulator(energies)
    trace: list[float] = []
    best = {"value": np.inf, "x": x0s[0]}

    def objective(x):
        if len(trace) >= budget:
            raise _BudgetExhausted
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
    except _BudgetExhausted:
        pass

    params = QaoaParams.from_flat(best["x"])
    value = float(best["value"])
    ratio = approximation_ratio(value, e_min) if e_min else None
    return QaoaResult(params, value, ratio, len(trace), trace)
