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
    # 12-variable problems embedded in 23 and 25 variables take the blocked
    # path; unused variables resolve to +1 by mask order
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


def test_large_instance_unique_linear_minimum():
    poly = PuboPolynomial(25, [((i,), 1.0) for i in range(25)])
    energy, spins = brute_force_min(poly)
    assert energy == -25.0
    np.testing.assert_array_equal(spins, -np.ones(25, dtype=np.int8))


def test_variable_cap():
    poly = PuboPolynomial(5, [((0,), 1.0)])
    with pytest.raises(ResourceLimitError):
        brute_force_min(poly, cap=4)


def test_pipeline_config_validation():
    with pytest.raises(ParameterError):
        PipelineConfig(mode="fast")
    with pytest.raises(ParameterError):
        PipelineConfig(backend="quantum")


def test_pipeline_exact_matches_brute_force():
    for seed in range(6):
        g = random_regular(16, 3, seed=seed)
        report = classical_pipeline(g, PipelineConfig(mode="exact", seed=seed))
        e_direct, _ = brute_force_min(maxcut_to_qubo(g))
        assert report.e_min_original == e_direct
        assert report.e_min_reduced == e_direct
        assert report.lifted_energy == e_direct
        assert maxcut_to_qubo(g).evaluate(report.lifted_spins) == e_direct


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
    report = classical_pipeline(g, PipelineConfig(seed=1, graph_kind="regular", graph_k=3))
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


def test_pipeline_wcnf_backend_falls_back_to_oracle():
    g = random_regular(12, 3, seed=3)
    cfg = PipelineConfig(
        mode="exact", backend="wcnf", seed=3,
        solver_cmd="/no/such/solver", fallback_to_oracle=True,
    )
    report = classical_pipeline(g, cfg)
    assert report.e_min_reduced == report.e_min_original
    with pytest.raises(PipelineStepError) as info:
        classical_pipeline(
            g,
            PipelineConfig(
                mode="exact", backend="wcnf", seed=3,
                solver_cmd="/no/such/solver", fallback_to_oracle=False,
            ),
        )
    assert info.value.step == "solve"


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
    brute = solvers.brute_force_min

    def counting(poly, *args, **kwargs):
        sizes.append(poly.num_vars)
        return brute(poly, *args, **kwargs)

    monkeypatch.setattr(solvers, "brute_force_min", counting)
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


def test_pipeline_deterministic():
    g = random_regular(24, 3, seed=8)
    a = classical_pipeline(g, PipelineConfig(seed=8))
    b = classical_pipeline(g, PipelineConfig(seed=8))
    assert a.e_min_reduced == b.e_min_reduced
    assert a.lifted_spins == b.lifted_spins
    assert a.community_sizes == b.community_sizes
