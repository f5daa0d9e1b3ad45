"""Statevector QAOA simulation for diagonal spin Hamiltonians.

The ansatz alternates a diagonal phase layer ``exp(-i gamma E)`` with a full
transverse mixer ``prod_q exp(-i beta X_q)`` on the uniform superposition;
for ``p`` layers the parameters are ``gamma_1..gamma_p, beta_1..beta_p``.
Classical optimization is a multistart Nelder-Mead search under a hard total
budget of energy-expectation evaluations.

The mixer is ``H D_beta H / d``: two Walsh-Hadamard transforms around the
phase ``exp(-i beta (n - 2k))`` of each basis index of bitcount ``k``.
The uniform amplitude ``1/sqrt(d)`` is folded into the first cost phase and
``1/d`` into the mixer phase, so no pass over the state only rescales it.

A table equal to its own reverse is invariant under the global spin flip,
since the complement of mask ``m`` is ``d-1-m``: every MaxCut table and every
exact reduction of one is, core-fixed reductions generally are not.  The
state then stays flip-symmetric, and only the ``d/2`` amplitudes ``phi``
with top bit 0 are simulated.  The ``n``-qubit transform of a symmetric
state vanishes at odd bitcount and equals ``2 H_{n-1} phi`` at even
bitcount, where the top bit is the parity of the rest; so the mixer on the
half is ``H_{n-1}``, the phase with ``k = |m| + (|m| & 1)`` scaled by
``2/d``, and ``H_{n-1}`` again, and ``<E> = 2 sum_half |phi|^2 E``.  The test
is exact equality, so a table symmetric only up to rounding takes the full
path.  The qubit cap still counts qubits, not stored amplitudes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, ResourceLimitError
from .polynomial import PuboPolynomial, energy_table
from .wht import _fwht_rows

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


def _check_length(d: int) -> None:
    if d == 0 or d & (d - 1):
        raise DimensionError(f"length must be a power of two, got {d}")


@functools.cache
def _mixer_phases(size: int, half: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """The values ``n - 2k``, each stored amplitude's ``k``, and the scale.

    On the half path ``k`` counts the top bit that the transform of a
    symmetric state sets, and the scale is ``2/d`` (see the module docstring).
    """
    n = size.bit_length() - 1 + half
    values = n - 2.0 * np.arange(n + 1)
    counts = np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(np.intp)
    if half:
        counts += counts & 1
    for array in (values, counts):
        array.flags.writeable = False  # one cached copy is shared by every call
    return values, counts, (1 + half) / (size << half)


def _mix(state: np.ndarray, beta: float, half: bool) -> np.ndarray:
    """The mixer on a complex128 buffer the caller owns and gives up."""
    values, counts, scale = _mixer_phases(state.size, half)
    state = _fwht_rows(state)
    state *= (np.exp(-1j * beta * values) * scale)[counts]
    return _fwht_rows(state)


def mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """Apply ``exp(-i beta X)`` on every qubit of a statevector.

    Uses X = H Z H per qubit: a Hadamard sandwich around a diagonal phase
    that depends only on the bitcount of the basis index, so only its
    ``n + 1`` distinct values are exponentiated.
    """
    state = np.array(state, dtype=np.complex128)
    if state.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {state.shape}")
    _check_length(state.size)
    return _mix(state, beta, False)


class _Simulator:
    """One instance's circuit runner with phase tables precompressed.

    The diagonal energies and the mixer's popcount phase take few distinct
    values, so per evaluation only those are exponentiated and fanned out by
    integer indexing.  On a flip-symmetric table (``half``) only the
    amplitudes with top bit 0 are stored, and :meth:`run` returns those.
    """

    def __init__(self, energies: np.ndarray):
        energies = np.asarray(energies, dtype=np.float64)
        d = energies.size
        _check_length(d)
        self.d = d
        # the complement of mask m is d-1-m, so the reversed table is the flipped one
        self.half = d > 1 and np.array_equal(energies, energies[::-1])
        stored = energies[: d >> self.half]
        # each stored amplitude stands for itself and its mirror on the half path
        self.weights = stored * (1 + self.half)
        self.unique_e, self.e_index = np.unique(stored, return_inverse=True)

    def run(self, params: QaoaParams) -> np.ndarray:
        amplitude = 1 / np.sqrt(self.d)
        if params.depth == 0:
            return np.full(self.weights.size, amplitude, dtype=np.complex128)
        state = None
        for gamma, beta in zip(params.gammas, params.betas):
            phase = np.exp(-1j * gamma * self.unique_e)
            if state is None:  # the uniform start folds into the first phase
                state = (phase * amplitude)[self.e_index]
            else:
                state *= phase[self.e_index]
            state = _mix(state, beta, self.half)
        return state

    def expectation(self, params: QaoaParams) -> float:
        return expectation(self.run(params), self.weights)


def run_circuit(energies: np.ndarray, params: QaoaParams) -> np.ndarray:
    """Statevector after the full circuit, starting from |+...+>."""
    simulator = _Simulator(energies)
    state = simulator.run(params)
    return np.concatenate([state, state[::-1]]) if simulator.half else state


def expectation(state: np.ndarray, energies: np.ndarray) -> float:
    """<E> of a statevector under a diagonal Hamiltonian."""
    state = np.asarray(state)
    energies = np.asarray(energies, dtype=np.float64)
    if state.size != energies.size:
        raise DimensionError("state and energy table lengths differ")
    return float((state.real**2 + state.imag**2) @ energies)


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
    simulator = _Simulator(diagonal_energies(poly, cap))

    if p == 0:
        params = QaoaParams(np.zeros(0), np.zeros(0))
        value = simulator.expectation(params)
        ratio = approximation_ratio(value, e_min) if e_min else None
        return QaoaResult(params, value, ratio, 1, [value])

    rng = np.random.default_rng(seed)
    x0s = [
        np.concatenate([rng.uniform(0, 2 * np.pi, p), rng.uniform(0, np.pi, p)])
        for _ in range(starts)
    ]

    # imported here so that importing the package does not load scipy.optimize
    from scipy.optimize import minimize

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
