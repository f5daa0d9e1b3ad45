"""Graph container, random generators, MaxCut energies, and graph files."""

import numpy as np
import pytest

from qubocut import (
    Graph,
    PuboPolynomial,
    maxcut_to_qubo,
    random_erdos_renyi,
    random_regular,
    read_graph,
    write_graph,
)
from qubocut.errors import ParameterError

from oracles import all_spin_vectors, cut_weight, eval_terms_naive, max_cut_weight


def test_edges_canonicalized():
    g = Graph(4, ((2, 0), (3, 1), (0, 1)))
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.num_edges == 3
    assert g.weights is None
    assert g.weight(0) == 1.0
    assert g.total_weight() == 3.0


def test_weights_follow_edge_reordering():
    g = Graph(3, ((2, 1), (1, 0)), weights=(5.0, 7.0))
    assert g.edges == ((0, 1), (1, 2))
    assert g.weights == (7.0, 5.0)
    assert g.total_weight() == 12.0


def test_graph_validation():
    with pytest.raises(ParameterError):
        Graph(3, ((0, 0),))
    with pytest.raises(ParameterError):
        Graph(3, ((0, 3),))
    with pytest.raises(ParameterError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ParameterError):
        Graph(3, ((0, 1),), weights=(1.0, 2.0))
    # indices must be integers: int() would truncate these to (0, 1) and 3
    with pytest.raises(ParameterError, match="must be an integer"):
        Graph(3, ((0.5, 1.7),))
    with pytest.raises(ParameterError, match="must be an integer"):
        Graph(3.5, ((0, 1),))
    with pytest.raises(ParameterError, match="num_vertices must be at least 0, got -1"):
        Graph(-1, ())
    g = Graph(np.int64(3), np.array([[2, 0]]))
    assert g.num_vertices == 3 and g.edges == ((0, 2),)


def test_graph_rejects_bad_weights(tmp_path):
    for bad, match in (
        (float("nan"), "finite"),
        (float("inf"), "finite"),
        (float("-inf"), "finite"),
        (-1.0, "nonnegative"),
    ):
        with pytest.raises(ParameterError, match=match):
            Graph(3, ((0, 1), (1, 2)), weights=(1.0, bad))
        path = tmp_path / "bad.txt"
        path.write_text(f"2 1\n0 1 {bad}\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=match):
            read_graph(path)


def test_degrees_and_adjacency():
    g = Graph(4, ((0, 1), (1, 2), (1, 3)), weights=(1.0, 2.0, 3.0))
    np.testing.assert_array_equal(g.degrees(), [1, 3, 1, 1])
    adj = g.adjacency()
    assert adj[1] == [(0, 1.0), (2, 2.0), (3, 3.0)]
    assert adj[0] == [(1, 1.0)]


def test_adjacency_lists_only_the_couplings():
    # a zero-weight edge is still an edge of the graph, but it couples nothing:
    # the MaxCut polynomial has no term for it
    g = Graph(4, ((0, 1), (1, 2), (2, 3)), weights=(1.0, 0.0, 2.5))
    assert g.edges == ((0, 1), (1, 2), (2, 3)) and g.num_edges == 3
    np.testing.assert_array_equal(g.degrees(), [1, 2, 2, 1])
    assert g.adjacency() == [[(1, 1.0)], [(0, 1.0)], [(3, 2.5)], [(2, 2.5)]]
    assert sorted(maxcut_to_qubo(g).terms) == [(), (0, 1), (2, 3)]
    assert Graph(3, ((0, 1), (1, 2)), (0.0, 0.0)).adjacency() == [[], [], []]


def test_random_regular_is_regular():
    for n, k, seed in [(8, 3, 0), (12, 3, 1), (10, 4, 2), (20, 5, 3)]:
        g = random_regular(n, k, seed)
        assert g.num_vertices == n
        assert g.num_edges == n * k // 2
        np.testing.assert_array_equal(g.degrees(), np.full(n, k))
        for u, v in g.edges:
            assert u < v


def test_random_regular_deterministic():
    assert random_regular(12, 3, 7) == random_regular(12, 3, 7)
    assert random_regular(12, 3, 7) != random_regular(12, 3, 8)


def test_random_regular_validation():
    with pytest.raises(ParameterError):
        random_regular(0, 3, 0)
    with pytest.raises(ParameterError):
        random_regular(4, 4, 0)
    with pytest.raises(ParameterError):
        random_regular(5, 3, 0)  # odd n*k


def test_random_regular_degree_is_an_integer():
    # True would read as degree 1
    with pytest.raises(ParameterError, match="degree k must be an integer"):
        random_regular(10, True, 0)
    assert random_regular(10, np.int64(3), 0) == random_regular(10, 3, 0)


def test_random_regular_size_is_an_integer():
    # 10.5 used to pass the range checks and fail only at the parity check
    with pytest.raises(ParameterError, match="n must be an integer"):
        random_regular(10.5, 3, 0)
    with pytest.raises(ParameterError, match="n must be an integer"):
        random_erdos_renyi(10.5, 0.5, 0)
    assert random_regular(np.int32(10), 3, 0) == random_regular(10, 3, 0)


def test_random_erdos_renyi_bounds_and_determinism():
    g0 = random_erdos_renyi(30, 0.0, 0)
    assert g0.num_edges == 0
    g1 = random_erdos_renyi(30, 1.0, 0)
    assert g1.num_edges == 30 * 29 // 2
    assert random_erdos_renyi(25, 0.3, 4) == random_erdos_renyi(25, 0.3, 4)
    assert random_erdos_renyi(12, np.float32(0.25), 3) == random_erdos_renyi(12, 0.25, 3)
    assert random_erdos_renyi(12, 1, 3).num_edges == 12 * 11 // 2
    with pytest.raises(ParameterError):
        random_erdos_renyi(10, 1.5, 0)


@pytest.mark.parametrize("p", [True, False, "0.5", None, 0.5j])
def test_random_erdos_renyi_refuses_a_non_real_probability(p):
    # a string, None or a complex would fail inside the comparison, and True would read as 1
    with pytest.raises(ParameterError, match="p must be a real number"):
        random_erdos_renyi(10, p, 0)


def test_random_erdos_renyi_edge_count_concentration():
    # mean edge count over seeds should sit near p * C(n, 2)
    n, p = 40, 0.3
    counts = [random_erdos_renyi(n, p, seed).num_edges for seed in range(30)]
    expected = p * n * (n - 1) / 2
    assert abs(np.mean(counts) - expected) < 0.1 * expected


def test_maxcut_energy_is_minus_cut_weight():
    rng = np.random.default_rng(31)
    for seed in range(5):
        g = random_erdos_renyi(7, 0.5, seed)
        poly = maxcut_to_qubo(g)
        assert poly.num_vars == g.num_vertices
        assert poly.degree() <= 2
        for _ in range(10):
            spins = rng.choice([1, -1], size=7)
            assert eval_terms_naive(poly.terms, spins) == pytest.approx(
                -cut_weight(g, spins), abs=1e-12
            )


def test_maxcut_minimum_is_minus_max_cut():
    for seed in range(4):
        g = random_regular(8, 3, seed)
        poly = maxcut_to_qubo(g)
        energies = [
            eval_terms_naive(poly.terms, s) for s in all_spin_vectors(8)
        ]
        assert min(energies) == pytest.approx(-max_cut_weight(g), abs=1e-12)


def test_maxcut_weighted_graph():
    g = Graph(3, ((0, 1), (1, 2)), weights=(2.0, 4.0))
    poly = maxcut_to_qubo(g)
    assert poly.terms == {(): -3.0, (0, 1): 1.0, (1, 2): 2.0}
    # cutting both edges: s = (+1, -1, +1)
    assert poly.evaluate([1, -1, 1]) == -6.0


@pytest.mark.parametrize("weights", ["unit", "fractional", "zero"])
def test_maxcut_to_qubo_matches_the_validating_construction(weights):
    # the trusted construction keeps every term, coefficient bit and order
    rng = np.random.default_rng(37)
    shapes = [random_regular(n, k, seed) for n, k in ((12, 3), (20, 3), (22, 4)) for seed in (1, 2)]
    shapes += [random_erdos_renyi(n, p, seed) for n, p in ((15, 0.3), (25, 0.15)) for seed in (1, 2)]
    for g in shapes:
        if weights == "fractional":
            g = Graph(g.num_vertices, g.edges, weights=tuple(rng.uniform(0.0, 3.0, g.num_edges)))
        elif weights == "zero":
            w = rng.choice([0.0, 0.3, 1.0], size=g.num_edges)
            g = Graph(g.num_vertices, g.edges, weights=tuple(w))
        reference = PuboPolynomial(
            g.num_vertices,
            [((), -g.total_weight() / 2.0)]
            + [((u, v), g.weight(i) / 2.0) for i, (u, v) in enumerate(g.edges)],
        )
        poly = maxcut_to_qubo(g)
        assert poly == reference
        assert list(poly.terms) == list(reference.terms)
        assert [c.hex() for c in poly.terms.values()] == [
            c.hex() for c in reference.terms.values()
        ]
    assert maxcut_to_qubo(Graph(3, ((0, 1), (1, 2)), weights=(0.0, 0.0))).terms == {}


def test_maxcut_to_qubo_refuses_an_overflowing_constant():
    # each weight is finite, but their sum is not
    g = Graph(3, ((0, 1), (1, 2)), weights=(1e308, 1e308))
    with pytest.raises(ParameterError, match=r"term \(\) is -inf"):
        maxcut_to_qubo(g)


def test_graph_file_round_trip(tmp_path):
    g = random_regular(10, 3, 5)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g
    gw = Graph(4, ((0, 1), (2, 3)), weights=(0.5, 2.25))
    write_graph(gw, path)
    assert read_graph(path) == gw


def test_read_graph_skips_indented_comments(tmp_path):
    # as read_membership does, a line is stripped before the comment test
    path = tmp_path / "g.txt"
    path.write_text("# header next\n3 1\n  # note\n0 1\n\t# tab\n")
    assert read_graph(path) == Graph(3, ((0, 1),))


def test_read_graph_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1\n")
    with pytest.raises(ParameterError):
        read_graph(path)
    path.write_text("3 2\n0 1\n")
    with pytest.raises(ParameterError):
        read_graph(path)
    path.write_text("3 2\n0 1\n1 2 5.0\n")
    with pytest.raises(ParameterError):
        read_graph(path)
    path.write_text("")
    with pytest.raises(ParameterError):
        read_graph(path)
