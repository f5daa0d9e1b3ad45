"""Graph container, random generators, MaxCut energies, and graph files."""

import numpy as np
import pytest

from qubocut import (
    Graph,
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


def test_random_erdos_renyi_bounds_and_determinism():
    g0 = random_erdos_renyi(30, 0.0, 0)
    assert g0.num_edges == 0
    g1 = random_erdos_renyi(30, 1.0, 0)
    assert g1.num_edges == 30 * 29 // 2
    assert random_erdos_renyi(25, 0.3, 4) == random_erdos_renyi(25, 0.3, 4)
    with pytest.raises(ParameterError):
        random_erdos_renyi(10, 1.5, 0)


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


def test_graph_file_round_trip(tmp_path):
    g = random_regular(10, 3, 5)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g
    gw = Graph(4, ((0, 1), (2, 3)), weights=(0.5, 2.25))
    write_graph(gw, path)
    assert read_graph(path) == gw


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
