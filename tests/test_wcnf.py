"""Tests for the weighted-MaxSAT bridge and the external solver adapter."""

import shlex
import sys

import numpy as np
import pytest

from qubocut import (
    PipelineConfig,
    PuboPolynomial,
    WcnfInstance,
    classical_pipeline,
    maxcut_to_qubo,
    parse_wcnf,
    pubo_to_wcnf,
    random_regular,
    run_external_solver,
    write_wcnf,
)
from qubocut.errors import (
    ExternalSolverError,
    ParameterError,
    SolverIntegrityError,
)
from oracles import (
    all_spin_vectors,
    enumerate_min,
    eval_terms_int,
    satisfied_weight_naive,
)


def _random_int_poly(rng, num_vars, num_terms, max_deg):
    terms = {}
    for _ in range(num_terms):
        k = int(rng.integers(1, max_deg + 1))
        term = tuple(sorted(rng.choice(num_vars, size=k, replace=False)))
        coeff = 0
        while coeff == 0:
            coeff = int(rng.integers(-3, 4))
        terms[term] = coeff
    terms[()] = int(rng.integers(-3, 4))
    return PuboPolynomial(num_vars, terms)


# ---------------------------------------------------------------------------
# clause compilation


def test_two_body_clause_sets():
    plus = pubo_to_wcnf(PuboPolynomial(2, {(0, 1): 1.0}))
    assert plus.num_vars == 2
    assert plus.scale == 1
    assert plus.offset == -3.0
    assert sorted(lits for _, lits in plus.clauses) == [(-1, -2), (1, 2)]
    assert all(w == 2 for w, _ in plus.clauses)

    minus = pubo_to_wcnf(PuboPolynomial(2, {(0, 1): -1.0}))
    assert sorted(lits for _, lits in minus.clauses) == [(-1, 2), (1, -2)]
    assert all(w == 2 for w, _ in minus.clauses)


def test_three_body_clause_sets():
    plus = pubo_to_wcnf(PuboPolynomial(3, {(0, 1, 2): 1.0}))
    assert plus.offset == -7.0
    assert sorted(lits for _, lits in plus.clauses) == [
        (-1, -2, -3),
        (-1, 2, 3),
        (1, -2, 3),
        (1, 2, -3),
    ]

    minus = pubo_to_wcnf(PuboPolynomial(3, {(0, 1, 2): -1.0}))
    assert sorted(lits for _, lits in minus.clauses) == [
        (-1, -2, 3),
        (-1, 2, -3),
        (1, -2, -3),
        (1, 2, 3),
    ]


def test_clause_counts_and_shapes():
    rng = np.random.default_rng(7)
    poly = _random_int_poly(rng, num_vars=8, num_terms=14, max_deg=4)
    inst = pubo_to_wcnf(poly)
    nonconstant = [t for t in poly.terms if t]
    assert len(inst.clauses) == sum(2 ** (len(t) - 1) for t in nonconstant)
    expected_lengths = sorted(
        len(t) for t in nonconstant for _ in range(2 ** (len(t) - 1))
    )
    assert sorted(len(lits) for _, lits in inst.clauses) == expected_lengths
    for weight, literals in inst.clauses:
        assert isinstance(weight, int) and weight > 0
        names = [abs(l) for l in literals]
        assert len(set(names)) == len(names)
        assert all(1 <= v <= poly.num_vars for v in names)
    expected_weights = sorted(
        int(2 * abs(c) * inst.scale)
        for t, c in poly.terms.items()
        if t
        for _ in range(2 ** (len(t) - 1))
    )
    assert sorted(w for w, _ in inst.clauses) == expected_weights


@pytest.mark.parametrize("seed", range(6))
def test_affine_identity_exhaustive(seed):
    rng = np.random.default_rng(seed)
    poly = _random_int_poly(rng, num_vars=7, num_terms=12, max_deg=4)
    inst = pubo_to_wcnf(poly)
    assert inst.scale == 1
    for s in all_spin_vectors(poly.num_vars):
        sat = inst.satisfied_weight(s)
        assert sat == satisfied_weight_naive(inst.clauses, s)
        energy = eval_terms_int(poly.terms, s)
        assert sat / inst.scale + inst.offset == -energy


def test_maxcut_halves_need_scale_two():
    g = random_regular(8, 3, seed=2)
    poly = maxcut_to_qubo(g)
    inst = pubo_to_wcnf(poly)
    assert inst.scale == 2
    assert all(w == 2 for w, _ in inst.clauses)
    for s in all_spin_vectors(poly.num_vars):
        sat = inst.satisfied_weight(s)
        assert sat / inst.scale + inst.offset == -poly.evaluate(s)


def test_quarter_coefficients_scale():
    poly = PuboPolynomial(3, {(0,): 0.25, (1, 2): -0.5, (): 0.75})
    inst = pubo_to_wcnf(poly)
    assert inst.scale == 4
    assert sorted(w for w, _ in inst.clauses) == [2, 4, 4]
    assert inst.offset == -2.5
    for s in all_spin_vectors(3):
        sat = inst.satisfied_weight(s)
        assert sat / inst.scale + inst.offset == -poly.evaluate(s)


def test_unrepresentable_denominator_rejected():
    with pytest.raises(ParameterError, match="small rationals"):
        pubo_to_wcnf(PuboPolynomial(2, {(0, 1): 1.0 / 3.0}))


def test_constant_only_polynomial():
    inst = pubo_to_wcnf(PuboPolynomial(2, {(): 2.5}))
    assert inst.clauses == ()
    assert inst.offset == -2.5
    assert inst.satisfied_weight([1, -1]) == 0
    assert 0 / inst.scale + inst.offset == -2.5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maxsat_optima_match_energy_minima(seed):
    rng = np.random.default_rng(seed)
    poly = _random_int_poly(rng, num_vars=6, num_terms=9, max_deg=3)
    inst = pubo_to_wcnf(poly)
    spins = all_spin_vectors(poly.num_vars)
    sats = [inst.satisfied_weight(s) for s in spins]
    energies = [eval_terms_int(poly.terms, s) for s in spins]
    best_sat = max(sats)
    e_min = min(energies)
    argmax = {i for i, v in enumerate(sats) if v == best_sat}
    argmin = {i for i, e in enumerate(energies) if e == e_min}
    assert argmax == argmin


# ---------------------------------------------------------------------------
# DIMACS serialization


def test_write_header_and_clause_lines():
    inst = pubo_to_wcnf(PuboPolynomial(2, {(0, 1): 1.0}))
    text = write_wcnf(inst)
    lines = text.splitlines()
    assert lines[0] == "c offset -3.0"
    assert lines[1] == "c scale 1"
    assert lines[2] == "p wcnf 2 2 5"
    assert lines[3:] == ["2 -1 -2 0", "2 1 2 0"]
    assert text.endswith("\n")


def test_write_empty_instance():
    inst = pubo_to_wcnf(PuboPolynomial(3, {(): 1.0}))
    assert "p wcnf 3 0 1" in write_wcnf(inst)


def test_round_trip_identity():
    rng = np.random.default_rng(11)
    poly = _random_int_poly(rng, num_vars=6, num_terms=10, max_deg=4)
    inst = pubo_to_wcnf(poly)
    again = parse_wcnf(write_wcnf(inst))
    assert again == inst
    assert write_wcnf(again) == write_wcnf(inst)


def test_parse_never_reads_a_file(tmp_path):
    # a file name is parsed as WCNF text, which it is not
    path = tmp_path / "inst.wcnf"
    inst = pubo_to_wcnf(PuboPolynomial(2, {(0, 1): 1.0}))
    path.write_text(write_wcnf(inst), encoding="utf-8")
    with pytest.raises(ParameterError, match="clause before problem line"):
        parse_wcnf(str(path))


def test_parse_single_line_text():
    # one line of WCNF text is text, not a file name
    inst = parse_wcnf("p wcnf 2 0 1")
    assert inst == WcnfInstance(2, (), 0.0, 1)
    assert inst.total_weight() == 0


def test_parse_rejects_malformed():
    with pytest.raises(ParameterError, match="missing 0 terminator"):
        parse_wcnf("p wcnf 2 1 3\n1 1 2\n")
    with pytest.raises(ParameterError, match="clause before problem line"):
        parse_wcnf("2 1 -2 0\np wcnf 2 1 5\n")
    with pytest.raises(ParameterError, match="literal out of range"):
        parse_wcnf("p wcnf 2 1 3\n2 3 0\n")
    with pytest.raises(ParameterError, match="declares 2 clauses"):
        parse_wcnf("p wcnf 2 2 5\n2 1 -2 0\n")
    with pytest.raises(ParameterError, match="no problem line"):
        parse_wcnf("c nothing here\n")
    with pytest.raises(ParameterError, match="malformed problem line"):
        parse_wcnf("p cnf 2 1 3\n2 1 -2 0\n")
    with pytest.raises(ParameterError, match="bad clause line"):
        parse_wcnf("p wcnf 2 1 3\n0 1 0\n")
    with pytest.raises(ParameterError, match="bad clause line"):
        parse_wcnf("p wcnf 2 1 3\n2 0\n")


# ---------------------------------------------------------------------------
# external solver adapter

EXHAUSTIVE_SOLVER = """\
import sys

num = 0
clauses = []
for ln in open(sys.argv[-1]):
    ln = ln.strip()
    if not ln or ln.startswith("c"):
        continue
    if ln.startswith("p"):
        num = int(ln.split()[2])
        continue
    tok = [int(t) for t in ln.split()]
    clauses.append((tok[0], tok[1:-1]))
total = sum(w for w, _ in clauses)
best = None
for mask in range(1 << num):
    xs = [not ((mask >> (num - 1 - i)) & 1) for i in range(num)]
    sat = 0
    for w, lits in clauses:
        if any(xs[abs(l) - 1] == (l > 0) for l in lits):
            sat += w
    if best is None or sat > best[0]:
        best = (sat, mask)
sat, mask = best
print("s OPTIMUM FOUND")
print("o", total - sat)
lits = []
for i in range(num):
    x = not ((mask >> (num - 1 - i)) & 1)
    lits.append(i + 1 if x else -(i + 1))
print("v", " ".join(str(l) for l in lits), 0)
"""


def _script_cmd(tmp_path, body, name="mocksat.py"):
    script = tmp_path / name
    script.write_text(body, encoding="utf-8")
    return [sys.executable, str(script)]


@pytest.fixture
def solver_cmd(tmp_path):
    return _script_cmd(tmp_path, EXHAUSTIVE_SOLVER)


def test_external_solver_single_edge(solver_cmd):
    poly = maxcut_to_qubo(random_regular(2, 1, seed=0))
    energy, spins = run_external_solver(poly, solver_cmd)
    assert type(energy) is float and spins.dtype == np.int8
    assert energy == -1.0
    assert spins[0] * spins[1] == -1


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_external_solver_matches_enumeration(solver_cmd, seed):
    rng = np.random.default_rng(seed)
    poly = _random_int_poly(rng, num_vars=6, num_terms=9, max_deg=3)
    energy, spins = run_external_solver(poly, solver_cmd)
    e_min, witness = enumerate_min(poly)
    assert energy == e_min
    assert np.array_equal(spins, witness)


def test_external_solver_string_command(tmp_path):
    cmd = _script_cmd(tmp_path, EXHAUSTIVE_SOLVER)
    poly = maxcut_to_qubo(random_regular(4, 3, seed=1))
    energy, _ = run_external_solver(poly, shlex.join(cmd))
    e_min, _ = enumerate_min(poly)
    assert energy == e_min


def test_missing_assignment_defaults_to_plus(tmp_path):
    cmd = _script_cmd(tmp_path, 'print("o 0")\nprint("v -1 0")\n')
    poly = PuboPolynomial(2, {(0, 1): 1.0})
    energy, spins = run_external_solver(poly, cmd)
    assert list(spins) == [-1, 1]
    assert energy == -1.0


def test_solver_not_found():
    poly = PuboPolynomial(2, {(0, 1): 1.0})
    with pytest.raises(ExternalSolverError, match="solver not found"):
        run_external_solver(poly, ["/no/such/solver"])


def test_solver_bad_exit(tmp_path):
    cmd = _script_cmd(
        tmp_path, 'import sys\nsys.stderr.write("boom\\n")\nsys.exit(3)\n'
    )
    poly = PuboPolynomial(2, {(0, 1): 1.0})
    with pytest.raises(ExternalSolverError, match="status 3") as excinfo:
        run_external_solver(poly, cmd)
    assert "boom" in excinfo.value.raw_output


def test_solver_lying_about_optimum(tmp_path):
    cmd = _script_cmd(tmp_path, 'print("o 0")\nprint("v 1 2 0")\n')
    poly = PuboPolynomial(2, {(0, 1): 1.0})
    with pytest.raises(SolverIntegrityError):
        run_external_solver(poly, cmd)


def test_solver_output_without_o_or_v(tmp_path):
    cmd = _script_cmd(tmp_path, 'print("hello")\n')
    poly = PuboPolynomial(2, {(0, 1): 1.0})
    with pytest.raises(ExternalSolverError, match="lacks"):
        run_external_solver(poly, cmd)


def test_solver_timeout(tmp_path):
    cmd = _script_cmd(tmp_path, "import time\ntime.sleep(10)\n")
    poly = PuboPolynomial(2, {(0, 1): 1.0})
    with pytest.raises(ExternalSolverError, match="timed out"):
        run_external_solver(poly, cmd, timeout=0.3)


def test_solver_bad_assignment_token(tmp_path):
    cmd = _script_cmd(tmp_path, 'print("o 0")\nprint("v x1 0")\n')
    poly = PuboPolynomial(2, {(0, 1): 1.0})
    with pytest.raises(ExternalSolverError, match="unparseable assignment"):
        run_external_solver(poly, cmd)


def test_solver_variable_out_of_range(tmp_path):
    cmd = _script_cmd(tmp_path, 'print("o 0")\nprint("v 1 2 99 0")\n')
    poly = PuboPolynomial(2, {(0, 1): 1.0})
    with pytest.raises(ExternalSolverError, match="names variable 99"):
        run_external_solver(poly, cmd)


def test_pipeline_with_mock_solver(solver_cmd):
    g = random_regular(12, 3, seed=6)
    cfg_sat = PipelineConfig(mode="exact", backend="wcnf", seed=6,
                             solver_cmd=solver_cmd)
    cfg_ref = PipelineConfig(mode="exact", backend="oracle", seed=6)
    via_sat = classical_pipeline(g, cfg_sat)
    via_oracle = classical_pipeline(g, cfg_ref)
    assert via_sat.e_min_reduced == via_oracle.e_min_reduced
    assert via_sat.e_min_original == via_oracle.e_min_original
