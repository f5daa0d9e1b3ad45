"""PUBO to weighted MaxSAT, DIMACS WCNF files, and an external-solver adapter.

A term ``c * s_{i1}..s_{ik}`` is compiled to the ``2**(k-1)`` clauses of ``k``
literals whose violating assignments are exactly the spin patterns on which
the term takes its unfavorable sign, so that for every assignment

    (sum of satisfied weights) / scale + offset == -E(s).

Satisfied weight is thus an affine, decreasing image of the energy: MaxSAT
optima and PUBO minima coincide, and boolean ``x_i = true`` encodes spin
``s_i = +1``.  Weights are scaled by the least common denominator of the
coefficients so every clause weight is a positive integer.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bitops import as_spins
from .errors import ExternalSolverError, ParameterError, SolverIntegrityError
from .polynomial import PuboPolynomial

__all__ = [
    "WcnfInstance",
    "ExternalSolveResult",
    "pubo_to_wcnf",
    "write_wcnf",
    "parse_wcnf",
    "run_external_solver",
]

_MAX_SCALE = 10**12


@dataclass(frozen=True)
class WcnfInstance:
    """Weighted CNF with the affine map back to energies.

    Clauses are ``(weight, literals)`` with 1-based DIMACS literals; negative
    means negated.  For an assignment ``s``, ``satisfied/scale + offset`` is
    ``-E(s)``.
    """

    num_vars: int
    clauses: tuple[tuple[int, tuple[int, ...]], ...]
    offset: float
    scale: int

    def total_weight(self) -> int:
        return sum(w for w, _ in self.clauses)

    def satisfied_weight(self, spins) -> int:
        """Total weight of clauses satisfied by a spin assignment."""
        s = as_spins(spins, self.num_vars)
        total = 0
        for weight, literals in self.clauses:
            for lit in literals:
                value = s[abs(lit) - 1] > 0  # x_i true <=> s_i = +1
                if value == (lit > 0):
                    total += weight
                    break
        return total


def pubo_to_wcnf(poly: PuboPolynomial) -> WcnfInstance:
    """Compile a spin polynomial to weighted MaxSAT.

    Each nonconstant term of cardinality ``k`` yields ``2**(k-1)`` clauses of
    weight ``2|c|*scale``; a clause is emitted for the spin patterns sigma
    with ``prod sigma == +1`` when ``c > 0`` and ``-1`` when ``c < 0``
    (literal ``not x_j`` for ``sigma_j = +1``, ``x_j`` otherwise), i.e. the
    clause is falsified exactly by the assignments matching sigma on the
    term's variables.  The offset collects ``-|c|(2**k - 1)`` per term minus
    the constant.
    """
    fractions = {}
    denominators = []
    for term, coeff in poly.terms.items():
        frac = Fraction(coeff)
        fractions[term] = frac
        denominators.append(frac.denominator)
    scale = math.lcm(*denominators) if denominators else 1
    if scale > _MAX_SCALE:
        raise ParameterError(
            f"coefficient denominators need scale {scale} > {_MAX_SCALE}; "
            "coefficients must be small rationals"
        )

    clauses: list[tuple[int, tuple[int, ...]]] = []
    offset = Fraction(0)
    for term, coeff in poly.terms.items():
        frac = fractions[term]
        k = len(term)
        if k == 0:
            offset -= frac
            continue
        offset -= abs(frac) * ((1 << k) - 1)
        weight = int(2 * abs(frac) * scale)
        want = 1 if coeff > 0 else -1
        for pattern in range(1 << k):
            sign = 1
            literals = []
            for j, var in enumerate(term):
                if (pattern >> (k - 1 - j)) & 1:  # sigma_j = -1
                    sign = -sign
                    literals.append(var + 1)
                else:  # sigma_j = +1
                    literals.append(-(var + 1))
            if sign == want:
                clauses.append((weight, tuple(literals)))
    return WcnfInstance(poly.num_vars, tuple(clauses), float(offset), scale)


def write_wcnf(instance: WcnfInstance, path=None) -> str:
    """Serialize to DIMACS WCNF; returns the text, optionally writing a file.

    The header top weight is one more than the sum of all clause weights.
    Offset and scale ride along as comment lines so parsing round-trips.
    """
    lines = [
        f"c offset {instance.offset!r}",
        f"c scale {instance.scale}",
        f"p wcnf {instance.num_vars} {len(instance.clauses)} "
        f"{instance.total_weight() + 1}",
    ]
    for weight, literals in instance.clauses:
        lines.append(f"{weight} {' '.join(str(l) for l in literals)} 0")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def parse_wcnf(source) -> WcnfInstance:
    """Parse DIMACS WCNF text (or a path to it).

    A :class:`~pathlib.Path` is always read as a file.  A string is text when
    it spans several lines or its first token is a ``p`` or ``c`` line marker,
    and a file path otherwise.
    """
    text = source
    if isinstance(source, Path) or (
        isinstance(source, str)
        and "\n" not in source
        and source.split(maxsplit=1)[:1] not in (["p"], ["c"])
    ):
        text = Path(source).read_text(encoding="utf-8")
    num_vars = None
    declared = None
    offset = 0.0
    scale = 1
    clauses: list[tuple[int, tuple[int, ...]]] = []
    for ln in str(text).splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("c"):
            parts = ln.split()
            if len(parts) == 3 and parts[1] == "offset":
                offset = float(parts[2])
            elif len(parts) == 3 and parts[1] == "scale":
                scale = int(parts[2])
            continue
        if ln.startswith("p"):
            parts = ln.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise ParameterError(f"malformed problem line {ln!r}")
            num_vars, declared = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise ParameterError("clause before problem line")
        tokens = [int(t) for t in ln.split()]
        if tokens[-1] != 0:
            raise ParameterError(f"clause line missing 0 terminator: {ln!r}")
        weight, literals = tokens[0], tokens[1:-1]
        if weight <= 0 or not literals:
            raise ParameterError(f"bad clause line {ln!r}")
        if any(abs(l) < 1 or abs(l) > num_vars for l in literals):
            raise ParameterError(f"literal out of range in {ln!r}")
        clauses.append((weight, tuple(literals)))
    if num_vars is None:
        raise ParameterError("no problem line found")
    if declared != len(clauses):
        raise ParameterError(
            f"problem line declares {declared} clauses, found {len(clauses)}"
        )
    return WcnfInstance(num_vars, tuple(clauses), offset, scale)


@dataclass(frozen=True)
class ExternalSolveResult:
    """Solver-reported optimum mapped back to spins and energy."""

    energy: float
    spins: np.ndarray
    satisfied_weight: int
    falsified_cost: int


def run_external_solver(
    instance: WcnfInstance,
    command,
    poly: PuboPolynomial,
    timeout: float | None = None,
) -> ExternalSolveResult:
    """Run a MaxSAT solver on the instance and validate its answer.

    ``command`` (string or argv list) is invoked with the path of a temporary
    WCNF file appended.  Output is expected in MaxSAT-evaluation style: the
    last ``o <cost>`` line is the falsified-weight optimum and ``v`` lines
    carry the assignment as signed literals.  The reported optimum is checked
    against re-evaluating ``poly`` on the decoded spins.
    """
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    with tempfile.NamedTemporaryFile("w", suffix=".wcnf", delete=False) as fh:
        fh.write(write_wcnf(instance))
        path = fh.name
    try:
        try:
            proc = subprocess.run(
                argv + [path],
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except FileNotFoundError as exc:
            raise ExternalSolverError(f"solver not found: {argv[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            raise ExternalSolverError(
                f"solver timed out after {timeout}s"
            ) from exc
        if proc.returncode != 0:
            raise ExternalSolverError(
                f"solver exited with status {proc.returncode}",
                raw_output=proc.stdout + proc.stderr,
            )
        cost = None
        literal_tokens: list[str] = []
        for ln in proc.stdout.splitlines():
            ln = ln.strip()
            if ln.startswith("o "):
                try:
                    cost = int(ln.split()[1])
                except (IndexError, ValueError):
                    raise ExternalSolverError(
                        f"unparseable objective line {ln!r}", raw_output=proc.stdout
                    ) from None
            elif ln.startswith("v ") or ln == "v":
                literal_tokens.extend(ln.split()[1:])
        if cost is None or not literal_tokens:
            raise ExternalSolverError(
                "solver output lacks 'o' and 'v' lines", raw_output=proc.stdout
            )
        spins = np.ones(instance.num_vars, dtype=np.int8)
        try:
            for tok in literal_tokens:
                lit = int(tok)
                if lit == 0:
                    continue
                if abs(lit) > instance.num_vars:
                    raise ExternalSolverError(
                        f"assignment names variable {abs(lit)} of {instance.num_vars}",
                        raw_output=proc.stdout,
                    )
                spins[abs(lit) - 1] = 1 if lit > 0 else -1
        except ValueError:
            raise ExternalSolverError(
                f"unparseable assignment token {tok!r}", raw_output=proc.stdout
            ) from None
    finally:
        Path(path).unlink(missing_ok=True)

    satisfied = instance.total_weight() - cost
    energy = -(satisfied / instance.scale + instance.offset)
    check = poly.evaluate(spins)
    if abs(check - energy) > 1e-6:
        raise SolverIntegrityError(
            f"solver-reported optimum {energy} disagrees with re-evaluation {check}"
        )
    return ExternalSolveResult(
        energy=float(check),
        spins=spins,
        satisfied_weight=satisfied,
        falsified_cost=cost,
    )
