"""Brute-force oracle and the four-step classical pipeline."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubocut import (
    CSV_HEADER,
    Graph,
    PipelineConfig,
    PuboPolynomial,
    brute_force_min,
    classical_pipeline,
    detect_multilevel,
    lift_solution,
    maxcut_to_qubo,
    polynomial,
    random_regular,
    reduce_core_fixed,
    reduce_exact,
    refine_boundary,
    solvers,
)
from qubocut.errors import (
    ExternalSolverError,
    ParameterError,
    PipelineStepError,
    ResourceLimitError,
)

from oracles import enumerate_min, score_from_scratch


def test_constant_polynomial():
    poly = PuboPolynomial(3, [((), 2.5)])
    energy, spins = brute_force_min(poly)
    assert energy == 2.5
    np.testing.assert_array_equal(spins, [1, 1, 1])


def test_single_edge_maxcut():
    g = Graph(2, ((0, 1),))
    energy, spins = brute_force_min(maxcut_to_qubo(g))
    assert energy == -1.0
    # lowest-mask tie break picks s0 = +1 among the two cuts
    np.testing.assert_array_equal(spins, [1, -1])


def test_k4_maxcut():
    g = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
    energy, spins = brute_force_min(maxcut_to_qubo(g))
    assert energy == -4.0
    assert maxcut_to_qubo(g).evaluate(spins) == -4.0


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(51)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        terms = []
        for _ in range(12):
            k = int(rng.integers(0, min(4, n) + 1))
            term = tuple(rng.choice(n, size=k, replace=False)) if k else ()
            terms.append((term, float(rng.integers(-4, 5))))
        poly = PuboPolynomial(n, terms)
        energy, spins = brute_force_min(poly)
        e_oracle, s_oracle = enumerate_min(poly)
        assert energy == pytest.approx(e_oracle, abs=1e-12)
        np.testing.assert_array_equal(spins, s_oracle)


def test_maxcut_minimum_is_doubly_degenerate():
    g = random_regular(10, 3, seed=52)
    poly = maxcut_to_qubo(g)
    energy, spins = brute_force_min(poly)
    assert poly.evaluate(-spins) == pytest.approx(energy)


def test_large_instance_chunked_path_embedding():
    # 12-variable problems embedded in 23 and 25 variables are eliminated
    # down to 12; unused variables resolve to +1 by mask order
    g = random_regular(12, 3, seed=53)
    unit = maxcut_to_qubo(g)
    rng = np.random.default_rng(53)
    # dyadic non-unit weights keep every sum exact; the field on variable 0
    # puts the optimum at s_0 = -1, outside the first block
    dyadic = PuboPolynomial(
        12,
        [(t, c * int(rng.integers(1, 9)) / 4) for t, c in unit.terms.items()]
        + [((i,), int(rng.integers(-4, 5)) / 8) for i in range(12)]
        + [((0,), 4.0)],
    )
    for small in (unit, dyadic):
        e_small, s_small = brute_force_min(small)
        for n in (23, 25):
            big = PuboPolynomial(n, list(small.terms.items()))
            e_big, s_big = brute_force_min(big)
            assert e_big == e_small
            np.testing.assert_array_equal(s_big[:12], s_small)
            np.testing.assert_array_equal(s_big[12:], np.ones(n - 12, dtype=np.int8))
    assert s_small[0] == -1


@st.composite
def _polynomials(draw):
    """Empty, constant-only, unit MaxCut or dyadic PUBOs of 0 to 10 variables.

    Unit MaxCut minima come in mirror pairs, so the lowest mask must win a
    tie; the dyadic kind has linear fields and terms of degree up to 5, as
    reduced instances do, and every sum of its energies is exact.
    """
    n = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["empty", "constant", "maxcut", "dyadic"]))
    dyadic = st.integers(-32, 32).map(lambda k: k / 8)
    if kind == "empty":
        return PuboPolynomial(n)
    if kind == "constant":
        return PuboPolynomial(n, [((), draw(dyadic))])
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "maxcut":
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return maxcut_to_qubo(Graph(n, edges))
    term = st.lists(st.integers(0, n - 1), min_size=1, max_size=5) if n else st.just([])
    terms = draw(st.lists(st.tuples(term, dyadic), max_size=24))
    fields = [((i,), draw(dyadic)) for i in range(n)]
    return PuboPolynomial(n, terms + fields)


@settings(max_examples=60, deadline=None)
@given(poly=_polynomials(), rows=st.sampled_from([1, 4, 64]))
def test_blocked_minimum_matches_enumeration(poly, rows):
    # three trailing variables per table and few leading masks per product
    # put block boundaries everywhere the minimum could lie
    blocked = []
    energy_blocks = polynomial._energy_blocks

    def spy(p, high):
        blocked.append(high)
        return energy_blocks(p, high)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomial, "_FULL_TABLE_LIMIT", 3)
        mp.setattr(polynomial, "_BLOCK_ROWS", rows)
        mp.setattr(polynomial, "_energy_blocks", spy)
        energy, spins = brute_force_min(poly)
    assert blocked == ([poly.num_vars - 3] if poly.num_vars > 3 else [])
    e_oracle, s_oracle = enumerate_min(poly)
    assert energy == e_oracle
    np.testing.assert_array_equal(spins, s_oracle)


def test_blocked_minimum_stays_small(monkeypatch):
    # no 2**22 table: the whole call stays under 8 MB, and no product is
    # large enough for OpenBLAS to start its threads
    poly = maxcut_to_qubo(random_regular(22, 3, seed=1))
    products = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        products.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    tracemalloc.start()
    try:
        energy, spins = brute_force_min(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert products and max(products) <= 64**3
    assert poly.evaluate(spins) == energy


@st.composite
def _with_isolated_variables(draw):
    """A `_polynomials()` draw spread over one or two more variables that no
    term touches, at drawn positions, so isolated variables sit between the
    others; at most 12 variables in all."""
    poly = draw(_polynomials())
    n = poly.num_vars + draw(st.integers(1, 2))
    slots = sorted(draw(st.permutations(range(n)))[: poly.num_vars])
    return PuboPolynomial(
        n, [(tuple(slots[i] for i in term), c) for term, c in poly.terms.items()]
    )


@settings(max_examples=60, deadline=None)
@given(poly=st.one_of(_polynomials(), _with_isolated_variables()))
def test_eliminated_minimum_matches_enumeration(poly):
    # with the full table at three variables and no size threshold, every
    # polynomial above three variables is eliminated down to three
    eliminated = []
    eliminated_minimum = polynomial._eliminated_minimum

    def spy(p, order, *witness):
        eliminated.append(len(order))
        return eliminated_minimum(p, order, *witness)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomial, "_FULL_TABLE_LIMIT", 3)
        mp.setattr(polynomial, "_ELIMINATION_MIN_VARS", 0)
        mp.setattr(polynomial, "_eliminated_minimum", spy)
        energy, spins = brute_force_min(poly)
    assert eliminated == ([poly.num_vars - 3] if poly.num_vars > 3 else [])
    e_oracle, s_oracle = enumerate_min(poly)
    assert energy == e_oracle
    np.testing.assert_array_equal(spins, s_oracle)


@st.composite
def _float_polynomials(draw):
    """PUBOs of 4 to 10 variables with terms of degree up to 5 and arbitrary
    finite coefficients, whose sums round: a check on the order of the sums."""
    n = draw(st.integers(4, 10))
    coeff = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    term = st.lists(st.integers(0, n - 1), min_size=1, max_size=5)
    return PuboPolynomial(n, draw(st.lists(st.tuples(term, coeff), max_size=24)))


@settings(max_examples=80, deadline=None)
@given(case=st.one_of(
    st.tuples(st.one_of(_polynomials(), _with_isolated_variables()), st.just(True)),
    st.tuples(_float_polynomials(), st.just(False)),
))
def test_energy_only_elimination_matches_the_witness_pass(case):
    # under the limits above every polynomial past three variables is
    # eliminated down to three, once without and once with the witness
    poly, dyadic = case
    calls = []
    eliminated_minimum = polynomial._eliminated_minimum

    def spy(p, order, witness=True):
        calls.append(witness)
        return eliminated_minimum(p, order, witness)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomial, "_FULL_TABLE_LIMIT", 3)
        mp.setattr(polynomial, "_ELIMINATION_MIN_VARS", 0)
        mp.setattr(polynomial, "_eliminated_minimum", spy)
        energy, mask = polynomial._minimum(poly, witness=False)
        e_witness, _ = polynomial._minimum(poly)
    assert calls == ([False, True] if poly.num_vars > 3 else [])
    assert mask is None
    assert float.hex(energy) == float.hex(e_witness)
    if dyadic:
        assert energy == enumerate_min(poly)[0]


def test_energy_only_elimination_peaks_below_the_witness_pass():
    # no int64 mask array beside each energy table
    poly = maxcut_to_qubo(random_regular(26, 3, seed=26))
    peaks = {}
    for witness in (True, False):
        tracemalloc.start()
        try:
            energy, _ = polynomial._minimum(poly, witness=witness)
            peaks[witness] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energy == brute_force_min(poly)[0]
    assert peaks[False] < peaks[True]


def test_energy_only_elimination_passes_63_variables(monkeypatch):
    # 100 variables overflow an int64 mask, but the energy-only pass keeps
    # none; an even ring is cut along every edge
    poly = maxcut_to_qubo(Graph(100, [(i, (i + 1) % 100) for i in range(100)]))
    taken = _paths(monkeypatch)
    assert polynomial._minimum(poly, cap=100, witness=False) == (-100.0, None)
    assert taken == ["_eliminated_minimum"]


def test_witness_past_63_variables_is_refused(monkeypatch):
    # no int64 mask holds the witness, and the blocked path would walk 2**52
    # leading masks: refused before any table is built
    poly = maxcut_to_qubo(Graph(64, [(i, (i + 1) % 64) for i in range(64)]))
    taken = _paths(monkeypatch)
    with pytest.raises(ResourceLimitError, match="64 variables exceed 63"):
        brute_force_min(poly, cap=64)
    assert taken == []


def test_energy_only_solve_without_an_order_past_63_variables_is_refused(monkeypatch):
    # every min-fill bucket of a complete graph spans all its vertices
    poly = maxcut_to_qubo(Graph(64, [(i, j) for i in range(64) for j in range(i + 1, 64)]))
    assert polynomial._min_fill_order(poly) is None
    taken = _paths(monkeypatch)
    with pytest.raises(ResourceLimitError, match="64 variables exceed 63"):
        polynomial._minimum(poly, cap=64, witness=False)
    assert taken == []


def _paths(monkeypatch):
    """Record which of the two paths above the full table each call takes."""
    taken = []
    for name in ("_eliminated_minimum", "_energy_blocks"):
        def spy(*args, _name=name, _fn=getattr(polynomial, name)):
            taken.append(_name)
            return _fn(*args)

        monkeypatch.setattr(polynomial, name, spy)
    return taken


def test_wide_instance_keeps_the_blocked_path(monkeypatch):
    # dense degree-3 terms over 22 variables: min-fill needs a bucket of more
    # than 13 variables, so the blocked products run, as small as before
    rng = np.random.default_rng(22)
    poly = PuboPolynomial(
        22,
        [(tuple(rng.choice(22, size=3, replace=False)), int(rng.integers(-4, 5)) / 4)
         for _ in range(100)],
    )
    assert polynomial._min_fill_order(poly) is None
    taken = _paths(monkeypatch)
    products = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        products.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    tracemalloc.start()
    try:
        energy, spins = brute_force_min(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == ["_energy_blocks"]
    assert peak < 8 * 2**20
    assert products and max(products) <= 64**3
    assert poly.evaluate(spins) == energy


@pytest.mark.parametrize("n", [24, 26])
def test_regular_maxcut_takes_elimination(monkeypatch, n):
    # narrow 3-regular graphs are eliminated; the blocked path, forced by
    # raising the size threshold, gives the same energy bits and witness
    poly = maxcut_to_qubo(random_regular(n, 3, seed=n))
    taken = _paths(monkeypatch)
    energy, spins = brute_force_min(poly)
    assert taken == ["_eliminated_minimum"]
    monkeypatch.setattr(polynomial, "_ELIMINATION_MIN_VARS", n + 1)
    e_blocked, s_blocked = brute_force_min(poly)
    assert taken == ["_eliminated_minimum", "_energy_blocks"]
    assert float.hex(energy) == float.hex(e_blocked)
    np.testing.assert_array_equal(spins, s_blocked)


def test_large_instance_unique_linear_minimum():
    poly = PuboPolynomial(25, [((i,), 1.0) for i in range(25)])
    energy, spins = brute_force_min(poly)
    assert energy == -25.0
    np.testing.assert_array_equal(spins, -np.ones(25, dtype=np.int8))


def test_variable_cap():
    poly = PuboPolynomial(5, [((0,), 1.0)])
    with pytest.raises(ResourceLimitError):
        brute_force_min(poly, cap=4)


def test_variable_cap_is_an_integer():
    # a float cap used to be compared as is, and True to be read as 1
    poly = PuboPolynomial(5, [((0,), 1.0)])
    for cap in (12.5, True, "30", -1):
        with pytest.raises(ParameterError, match="cap must be"):
            brute_force_min(poly, cap=cap)
    assert brute_force_min(poly, cap=np.int64(5))[0] == -1.0


def test_pipeline_config_validation():
    with pytest.raises(ParameterError):
        PipelineConfig(mode="fast")
    with pytest.raises(ParameterError):
        PipelineConfig(backend="quantum")
    # a solver command goes with backend wcnf, and only with it
    for backend, solver_cmd in (("wcnf", None), ("oracle", "maxsat"), ("qaoa", "maxsat")):
        with pytest.raises(ParameterError, match="solver command"):
            PipelineConfig(backend=backend, solver_cmd=solver_cmd)


def test_pipeline_config_integer_fields():
    # a string cap used to build, then fail at step 'solve' with a TypeError
    with pytest.raises(ParameterError, match="brute_cap must be an integer"):
        PipelineConfig(brute_cap="30")
    for bad in (
        {"seed": -1}, {"seed": 1.0}, {"boundary_cap": 2.5}, {"brute_cap": True},
        {"qaoa_depth": -1}, {"qaoa_budget": 0}, {"qaoa_starts": 2.0}, {"qaoa_cap": None},
    ):
        with pytest.raises(ParameterError):
            PipelineConfig(**bad)
    cfg = PipelineConfig(seed=np.int64(4), brute_cap=np.uint8(20))
    assert (cfg.seed, cfg.brute_cap) == (4, 20)
    assert all(type(v) is int for v in (cfg.seed, cfg.brute_cap))


def test_pipeline_exact_matches_brute_force():
    for seed in range(6):
        g = random_regular(16, 3, seed=seed)
        report = classical_pipeline(g, PipelineConfig(mode="exact", seed=seed))
        e_direct, _ = brute_force_min(maxcut_to_qubo(g))
        assert report.e_min_original == e_direct
        assert report.e_min_reduced == e_direct
        assert report.lifted_energy == e_direct
        assert maxcut_to_qubo(g).evaluate(report.lifted_spins) == e_direct


@pytest.mark.parametrize("n, k", [(20, 3), (22, 3), (20, 4), (22, 4)])
def test_pipeline_e_min_original_is_brute_force_min(n, k):
    # the energy-only pass gives brute_force_min's bits, also with weights
    # whose sums round
    rng = np.random.default_rng(n * k)
    unit = random_regular(n, k, seed=n + k)
    weighted = Graph(n, unit.edges, weights=tuple(rng.uniform(0.1, 2.0, unit.num_edges)))
    for g in (unit, weighted):
        e_direct, _ = brute_force_min(maxcut_to_qubo(g))
        for mode in ("exact", "core-fixed"):
            report = classical_pipeline(g, PipelineConfig(mode=mode, seed=n + k))
            assert float.hex(report.e_min_original) == float.hex(e_direct)


def test_pipeline_core_fixed_upper_bounds():
    for seed in range(6):
        g = random_regular(16, 3, seed=seed)
        report = classical_pipeline(g, PipelineConfig(mode="core-fixed", seed=seed))
        assert report.e_min_reduced >= report.e_min_original - 1e-12
        # lifting re-minimizes cores, so it can only improve on the bound
        assert report.lifted_energy <= report.e_min_reduced + 1e-12
        assert report.lifted_energy >= report.e_min_original - 1e-12


@pytest.mark.parametrize("mode", ["exact", "core-fixed"])
def test_pipeline_reduction_matches_library(mode, monkeypatch):
    # capture the reduced instance the pipeline builds
    built = []
    assemble = solvers.assemble_reduced

    def spy(*args):
        built.append(assemble(*args))
        return built[-1]

    monkeypatch.setattr(solvers, "assemble_reduced", spy)
    reducers = {"exact": reduce_exact, "core-fixed": reduce_core_fixed}
    for seed in range(4):
        g = random_regular(16, 3, seed=seed)
        poly = maxcut_to_qubo(g)
        report = classical_pipeline(g, PipelineConfig(mode=mode, seed=seed))
        assignment = refine_boundary(g, detect_multilevel(g, seed=seed), seed=seed)
        library = reducers[mode](poly, assignment)
        assert built[-1].poly.terms == library.poly.terms
        assert built[-1].var_map == library.var_map
        e_reduced, boundary = brute_force_min(library.poly)
        assert report.e_min_reduced == e_reduced
        assert report.lifted_spins == lift_solution(library, boundary).tolist()
        assert report.degree_histogram == library.degree_histogram()


def test_pipeline_report_structure():
    g = random_regular(20, 3, seed=7)
    report = classical_pipeline(g, PipelineConfig(seed=7))
    assert report.n == 20
    assert report.num_edges == 30
    assert sum(report.community_sizes) == 20
    assert report.boundary_size <= 20
    assert report.score == score_from_scratch(g, detect_and_refine_membership(g, 7))
    for t in (report.t_detect, report.t_quench, report.t_assemble, report.t_solve):
        assert t >= 0.0
    assert report.total_time == pytest.approx(
        report.t_detect + report.t_quench + report.t_assemble + report.t_solve
    )
    hist = report.degree_histogram
    assert hist
    assert all(k.isdigit() for k in hist)
    assert all(isinstance(v, int) and v > 0 for v in hist.values())
    # boundary-only MaxCut polynomials keep even-cardinality terms
    assert all(int(k) % 2 == 0 for k in hist)


def detect_and_refine_membership(g, seed):
    from qubocut import detect_multilevel, refine_boundary

    return refine_boundary(g, detect_multilevel(g, seed=seed), seed=seed).membership


def test_pipeline_csv_row_matches_header():
    g = random_regular(12, 3, seed=1)
    report = classical_pipeline(g, PipelineConfig(seed=1))
    assert (report.graph_kind, report.graph_k) == ("", None)  # labels are the caller's
    report.graph_kind, report.graph_k = "regular", 3
    header_fields = CSV_HEADER.split(",")
    row_fields = report.to_csv_row().split(",")
    assert len(row_fields) == len(header_fields)
    assert header_fields[0] == "n" and row_fields[0] == "12"
    assert header_fields[1] == "k" and row_fields[1] == "3"
    payload = report.to_json_dict()
    assert payload["mode"] == "exact"
    assert "total_time" in payload


def test_pipeline_step_error_names_stage():
    g = random_regular(12, 3, seed=2)
    with pytest.raises(PipelineStepError) as info:
        classical_pipeline(g, PipelineConfig(seed=2, boundary_cap=0))
    assert info.value.step == "quench"
    assert isinstance(info.value.cause, ResourceLimitError)
    assert info.value.__cause__ is info.value.cause


def test_pipeline_qaoa_comparison_fails_as_its_own_step():
    # the reduced instance (B = 7) fits brute_cap but the original does not,
    # so the four stages finish and the comparison refuses the original
    g = random_regular(12, 3, seed=1)
    cfg = PipelineConfig(seed=1, backend="qaoa", brute_cap=11, qaoa_budget=8, qaoa_starts=2)
    with pytest.raises(PipelineStepError) as info:
        classical_pipeline(g, cfg)
    assert info.value.step == "qaoa"
    assert isinstance(info.value.cause, ResourceLimitError)


def test_pipeline_original_minimum_fails_as_its_own_step(monkeypatch):
    # e_min_original runs after the four timed stages, under step "original"
    def refuse(*args, **kwargs):
        raise ResourceLimitError("refused")

    monkeypatch.setattr(solvers, "_minimum", refuse)
    with pytest.raises(PipelineStepError) as info:
        classical_pipeline(random_regular(12, 3, seed=1), PipelineConfig(seed=1))
    assert info.value.step == "original"
    assert isinstance(info.value.cause, ResourceLimitError)
    assert info.value.__cause__ is info.value.cause


def test_pipeline_wcnf_failure_within_brute_cap_is_an_error(monkeypatch):
    # the reduced instance fits brute_cap, yet the oracle does not stand in
    g = random_regular(12, 3, seed=1)
    calls = []
    monkeypatch.setattr(solvers, "brute_force_min", lambda *a: calls.append(a))
    cfg = PipelineConfig(backend="wcnf", solver_cmd="/no/such/solver", seed=1)
    with pytest.raises(PipelineStepError) as info:
        classical_pipeline(g, cfg)
    assert info.value.step == "solve"
    assert isinstance(info.value.cause, ExternalSolverError)
    assert info.value.__cause__ is info.value.cause
    assert calls == []


def test_pipeline_wcnf_failure_above_brute_cap_is_not_masked():
    # B = 40 > brute_cap: the oracle cannot stand in, so the solver's own
    # error must reach the caller rather than the cap refusal
    g = random_regular(60, 3, seed=1)
    cfg = PipelineConfig(backend="wcnf", solver_cmd="/no/such/solver", seed=1)
    with pytest.raises(PipelineStepError) as info:
        classical_pipeline(g, cfg)
    assert info.value.step == "solve"
    assert isinstance(info.value.cause, ExternalSolverError)


def test_pipeline_qaoa_backend_reports_three_ratios(monkeypatch):
    g = random_regular(12, 3, seed=4)
    sizes = []
    # the pipeline solves through brute_force_min and finds the minima it
    # only compares against through the energy-only _minimum
    for name in ("brute_force_min", "_minimum"):
        def counting(poly, *args, _fn=getattr(solvers, name), **kwargs):
            sizes.append(poly.num_vars)
            return _fn(poly, *args, **kwargs)

        monkeypatch.setattr(solvers, name, counting)
    timing = {"t_detect", "t_quench", "t_assemble", "t_solve", "total_time"}
    for mode in ("exact", "core-fixed"):
        cfg = PipelineConfig(
            mode=mode, backend="qaoa", seed=4,
            qaoa_depth=1, qaoa_budget=30, qaoa_starts=2,
        )
        sizes.clear()
        report = classical_pipeline(g, cfg)
        # at B < n only the original polynomial has n variables; the
        # comparison reuses e_min_original instead of solving it again
        assert report.boundary_size < g.num_vertices
        assert sizes.count(g.num_vertices) == 1
        assert report.qaoa is not None
        assert report.qaoa["seconds"] > 0
        for tag in ("original", "reduced_exact", "reduced_core_fixed"):
            ratio = report.qaoa[f"ratio_{tag}"]
            assert 0.0 < ratio <= 1.0
            assert report.qaoa[f"evals_{tag}"] <= 30
        # the reduced instance itself is still solved exactly for lifting
        oracle = classical_pipeline(g, PipelineConfig(mode=mode, seed=4))
        skip = timing | {"backend", "qaoa"}
        got = {k: v for k, v in report.to_json_dict().items() if k not in skip}
        want = {k: v for k, v in oracle.to_json_dict().items() if k not in skip}
        assert got == want
        assert oracle.qaoa is None
        if mode == "exact":
            assert report.lifted_energy == report.e_min_original


def test_pipeline_qaoa_ratios_divide_by_brute_force_minima():
    # each ratio is the best expectation over brute_force_min's energy of
    # the same target, whichever pass found that energy
    g = random_regular(10, 3, seed=10)
    cfg = PipelineConfig(backend="qaoa", seed=10, qaoa_depth=1, qaoa_budget=20, qaoa_starts=2)
    report = classical_pipeline(g, cfg)
    poly = maxcut_to_qubo(g)
    assignment = refine_boundary(g, detect_multilevel(g, seed=10), seed=10)
    targets = {
        "original": poly,
        "reduced_exact": reduce_exact(poly, assignment).poly,
        "reduced_core_fixed": reduce_core_fixed(poly, assignment).poly,
    }
    for tag, target in targets.items():
        expected = report.qaoa[f"expectation_{tag}"] / brute_force_min(target)[0]
        assert float.hex(report.qaoa[f"ratio_{tag}"]) == float.hex(expected)


def test_pipeline_deterministic():
    g = random_regular(24, 3, seed=8)
    a = classical_pipeline(g, PipelineConfig(seed=8))
    b = classical_pipeline(g, PipelineConfig(seed=8))
    assert a.e_min_reduced == b.e_min_reduced
    assert a.lifted_spins == b.lifted_spins
    assert a.community_sizes == b.community_sizes
