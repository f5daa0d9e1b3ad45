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

Each start of the multistart search gets exactly ``budget // starts``
evaluations, or fewer if it converges; the remainder of the budget is never
used.  Since no start's share depends on the others, the starts run in
lockstep.  The optimizer hands over every point it can name before it needs
a value: the whole initial simplex (2p + 1 points), the whole shrink (2p
points), or the one reflection, expansion or contraction.  Each round
stacks every live start's list, cut to what is left of its share, into one
angle matrix, whose rows the simulator evaluates in as few passes as the
amplitude cap allows; each pass exponentiates the distinct cost and mixer
phases of all p layers at once.  A start leaves the batch when it converges
or spends its share.  So a depth-4 share of 16 takes 8 rounds, not 16: on
the benchmark's qaoa-p4 targets (budget 64, 4 starts, seeds 1-3) every op
took 8 rounds, and the reduced targets took 8.9 passes per op where one
point per start took 16.  The optimizer is a port of scipy's default
Nelder-Mead (no bounds, coefficients rho = 1, chi = 2, psi = sigma = 1/2,
initial simplex +5% on each nonzero coordinate and 0.00025 on a zero one,
``xatol = 1e-4``, ``fatol = 1e-8``, the same sorts), so every start visits
the points scipy's ``minimize`` would, and the trace is the per-start traces
joined in start order.  A batch stores at most ``2**13`` amplitudes.  On
a 2-core x86-64 VM at p = 4 (3-regular originals, seeds 1-3, median of
seven timings each), four rows of ``2**11`` stored amplitudes (n = 12) took
0.60-0.78 of the time of four one-row passes, and four rows of ``2**13``
(n = 14) took 1.20-1.24 of it, so rows that large run one at a time.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, ResourceLimitError
from .polynomial import PuboPolynomial, _index, energy_table
from .wht import _fwht_rows, _power_of_two_vector

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

# the most stored amplitudes one batched pass transforms
_BATCH_AMPLITUDES = 1 << 13


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
    if poly.num_vars > _index(cap, "cap", 0):
        raise ResourceLimitError(
            f"{poly.num_vars} qubits exceed the statevector cap {cap}"
        )
    return energy_table(poly)


@functools.cache
def _mixer_tables(size: int, half: bool) -> tuple[np.ndarray, np.ndarray, float]:
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


def _mixer_phases(betas: np.ndarray, size: int, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """The mixer's distinct phases for each angle in ``betas``, and their fan-out.

    All ``n + 1`` phases of every angle come from one exponential, shape
    ``betas.shape + (n + 1,)``; taking each stored amplitude's bitcount
    (the second array) from a row of them gives that angle's diagonal.
    """
    values, counts, scale = _mixer_tables(size, half)
    return np.exp(-1j * betas[..., None] * values) * scale, counts


def _mix(state: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The mixer on each row of a complex128 buffer the caller owns and gives up.

    ``phase`` is the mixer's diagonal, one row per state row or one for all.
    This is the one place the mixer's transforms run.
    """
    state = _fwht_rows(state)
    state *= phase
    return _fwht_rows(state)


def mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """Apply ``exp(-i beta X)`` on every qubit of a statevector.

    Uses X = H Z H per qubit: a Hadamard sandwich around a diagonal phase
    that depends only on the bitcount of the basis index, so only its
    ``n + 1`` distinct values are exponentiated.
    """
    state = _power_of_two_vector(np.array(state, dtype=np.complex128))
    phases, counts = _mixer_phases(np.asarray(beta, dtype=np.float64), state.size, False)
    return _mix(state, phases.take(counts))


class _Simulator:
    """One instance's circuit runner with phase tables precompressed.

    The diagonal energies and the mixer's popcount phase take few distinct
    values, so per evaluation only those are exponentiated and fanned out by
    integer indexing.  On a flip-symmetric table (``half``) only the
    amplitudes with top bit 0 are stored, and :meth:`run` returns those.
    """

    def __init__(self, energies: np.ndarray):
        energies = _power_of_two_vector(np.asarray(energies, dtype=np.float64))
        self.d = d = energies.size
        # the complement of mask m is d-1-m, so the reversed table is the flipped one
        self.half = d > 1 and np.array_equal(energies, energies[::-1])
        stored = energies[: d >> self.half]
        # each stored amplitude stands for itself and its mirror on the half path
        self.weights = stored * (1 + self.half)
        self.unique_e, self.e_index = np.unique(stored, return_inverse=True)

    def run(self, params: QaoaParams) -> np.ndarray:
        if params.depth == 0:
            return np.full(self.weights.size, 1 / np.sqrt(self.d), dtype=np.complex128)
        return self._run_rows(np.concatenate([params.gammas, params.betas])[None])[0]

    def _run_rows(self, angles: np.ndarray) -> np.ndarray:
        """The stored states for each row of gammas then betas, ``p >= 1``.

        The distinct cost and mixer phases of all ``p`` layers come from one
        exponential each; each layer fans its own out to the state's length.
        """
        p = angles.shape[1] // 2
        cost = np.exp(-1j * angles.T[:p, :, None] * self.unique_e)
        cost[0] *= 1 / np.sqrt(self.d)  # the uniform start folds into the first phase
        mix, counts = _mixer_phases(angles.T[p:], self.weights.size, self.half)
        state = cost[0].take(self.e_index, axis=-1)
        for layer in range(p):
            if layer:
                state *= cost[layer].take(self.e_index, axis=-1)
            state = _mix(state, mix[layer].take(counts, axis=-1))
        return state

    def expectation(self, params: QaoaParams) -> float:
        return expectation(self.run(params), self.weights)

    def expectations(self, angles: np.ndarray) -> list[float]:
        """<E> at each row of gammas then betas, batched under the amplitude cap.

        Each row's value is the same 1-D dot product :meth:`expectation`
        takes, so both give the same bits.
        """
        size = self.weights.size
        # numpy multiplies a one-element complex array in a scalar loop that
        # rounds unlike its vector loop, so one-amplitude rows go one at a time
        rows = max(1, _BATCH_AMPLITUDES // size) if size > 1 else 1
        values = []
        for lo in range(0, len(angles), rows):
            state = self._run_rows(angles[lo : lo + rows])
            values += [float(row @ self.weights) for row in state.real**2 + state.imag**2]
        return values


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


def _nelder_mead(x0: np.ndarray):
    """Scipy's default Nelder-Mead as a generator of the points it evaluates.

    A port of scipy 1.17's ``_minimize_neldermead`` with no bounds, the
    non-adaptive coefficients, the default initial simplex and
    ``xatol = 1e-4``, ``fatol = 1e-8``.  Each yield is a list of every point
    the method can name before it needs a value: the whole initial simplex
    (``n + 1`` points), the whole shrink (``n`` points, each from the best
    vertex and its own old one), or the single reflection, expansion or
    contraction.  Each point is a copy the caller owns, and the list is
    answered with ``send`` of a list of their values in order.  Scipy
    evaluates the same points in the same order one at a time.  The
    generator returns once the simplex converges and never on its own
    otherwise, so the caller stops it at its budget, inside a list if need be.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    xatol, fatol = 1e-4, 1e-8
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + nonzdelt) * x0[k] if x0[k] != 0 else zdelt
    fsim = np.array((yield list(sim.copy())), dtype=np.float64)
    for _ in range(2):  # scipy sorts the initial simplex twice
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)

    while True:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            return
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        [fxr] = yield [xr.copy()]
        doshrink = False
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            [fxe] = yield [xe.copy()]
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
            [fxc] = yield [xc.copy()]
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                doshrink = True
        else:
            xcc = (1 - psi) * xbar + psi * sim[-1]
            [fxcc] = yield [xcc.copy()]
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                doshrink = True
        if doshrink:
            sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
            fsim[1:] = yield list(sim[1:].copy())
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)


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

    Initial points draw gamma from [0, 2pi) and beta from [0, pi).  Each
    start runs until it converges or has made ``budget // starts``
    evaluations; the starts run in lockstep, and the trace lists each
    start's evaluations in turn.  The best point is the first to reach the
    least value in that order.  With a nonzero ``e_min`` the returned ratio
    is best/e_min; it is None when ``e_min`` is None or zero, where the ratio
    is undefined.
    """
    p = _index(p, "depth", 0)
    budget = _index(budget, "budget", 1)
    starts = _index(starts, "starts", 1)
    seed = _index(seed, "seed", 0)
    if budget < starts:
        raise ParameterError(
            f"budget {budget} cannot cover {starts} starts"
        )
    if e_min is not None and (
        isinstance(e_min, bool) or not (isinstance(e_min, numbers.Real) and math.isfinite(e_min))
    ):
        raise ParameterError(f"e_min must be a finite number or None, got {e_min!r}")
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

    share = budget // starts
    searches = [_nelder_mead(x0) for x0 in x0s]
    points = [next(search) for search in searches]
    runs: list[list[tuple[float, np.ndarray]]] = [[] for _ in x0s]
    live = list(range(starts))
    while live:
        for i in live:  # a start's share may end inside a simplex or shrink list
            del points[i][share - len(runs[i]):]
        values = iter(simulator.expectations(np.array([x for i in live for x in points[i]])))
        still = []
        for i in live:
            answers = [next(values) for _ in points[i]]
            runs[i] += zip(answers, points[i])
            if len(runs[i]) < share:
                try:
                    points[i] = searches[i].send(answers)
                except StopIteration:
                    continue
                still.append(i)
        live = still

    trace: list[float] = []
    best_value, best_x = np.inf, x0s[0]
    for value, x in (pair for run in runs for pair in run):
        trace.append(value)
        if value < best_value:
            best_value, best_x = value, x

    params = QaoaParams.from_flat(best_x)
    value = float(best_value)
    ratio = approximation_ratio(value, e_min) if e_min else None
    return QaoaResult(params, value, ratio, len(trace), trace)
