"""Community detection, the boundary score, and refinement."""

import numpy as np
import pytest

from qubocut import (
    CommunityAssignment,
    Graph,
    detect_multilevel,
    maxcut_to_qubo,
    modularity,
    random_erdos_renyi,
    random_regular,
    read_membership,
    reduce_exact,
    refine_boundary,
    score_g,
    write_membership,
)
from qubocut.errors import ParameterError

from oracles import boundary_flags, modularity_naive, refine_naive, score_from_scratch


def _two_cliques_with_bridge():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
    edges.append((3, 4))
    return Graph(8, tuple(edges))


def _set_partitions(n):
    """All set partitions via restricted growth strings."""
    a = [0] * n
    b = [1] * n
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = max(b[i], a[i] + 1) if j == i + 1 else max(b[j - 1], a[j - 1] + 1)


def test_from_membership_relabels_and_flags_boundary():
    g = Graph(5, ((0, 1), (1, 2), (3, 4)))
    ca = CommunityAssignment.from_membership(g, [7, 7, 2, 2, 2])
    # ids renumbered by first appearance
    np.testing.assert_array_equal(ca.membership, [0, 0, 1, 1, 1])
    assert ca.num_communities == 2
    np.testing.assert_array_equal(ca.boundary, boundary_flags(g, ca.membership))
    np.testing.assert_array_equal(ca.sizes(), [2, 3])
    np.testing.assert_array_equal(ca.vertices_of(1), [2, 3, 4])
    np.testing.assert_array_equal(ca.boundary_of(0), [1])
    np.testing.assert_array_equal(ca.core_of(0), [0])
    np.testing.assert_array_equal(ca.global_boundary(), [1, 2])


@pytest.mark.parametrize(
    "ids",
    [[0.5, 1.7, 1.7], [0.0, 1.0, 1.0], [True, False, False], ["0", "1", "1"],
     np.array([0, 1, 1], dtype=object)],
    ids=["float", "integral-float", "bool", "string", "object"],
)
def test_non_integer_community_ids_are_refused(ids):
    # a float id used to be truncated ([0.5, 1.7] read as [0, 1]), and a bool
    # or a digit string read as an integer; modularity reads through the same check
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ParameterError, match="community ids must be integers"):
        CommunityAssignment.from_membership(g, ids)
    with pytest.raises(ParameterError, match="community ids must be integers"):
        modularity(g, ids)


@pytest.mark.parametrize(
    "dtype",
    [None, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64],
)
def test_every_integer_dtype_gives_the_same_membership(dtype):
    g = Graph(5, ((0, 1), (1, 2), (3, 4)))
    ids = [7, 7, 2, 2, 2] if dtype is None else np.array([7, 7, 2, 2, 2], dtype=dtype)
    ca = CommunityAssignment.from_membership(g, ids)
    assert ca.membership.dtype == np.int64
    np.testing.assert_array_equal(ca.membership, [0, 0, 1, 1, 1])
    assert float.hex(modularity(g, ids)) == float.hex(modularity(g, [0, 0, 1, 1, 1]))


def test_empty_membership_is_accepted():
    g = Graph(0, ())
    ca = CommunityAssignment.from_membership(g, [])
    assert ca.membership.shape == (0,) and ca.num_communities == 0
    assert modularity(g, []) == 0.0


def test_modularity_refuses_negative_and_misfitting_ids():
    # modularity used to sum a negative id as its own community
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ParameterError, match="nonnegative"):
        modularity(g, [-1, 0, 0])
    with pytest.raises(ParameterError, match="membership length 2 != 3 vertices"):
        modularity(g, [0, 0])


def test_boundary_core_partition_each_community():
    g = random_regular(30, 3, seed=2)
    ca = detect_multilevel(g, seed=2)
    for c in range(ca.num_communities):
        b = set(ca.boundary_of(c).tolist())
        t = set(ca.core_of(c).tolist())
        members = set(ca.vertices_of(c).tolist())
        assert b.isdisjoint(t)
        assert b | t == members
    np.testing.assert_array_equal(ca.boundary, boundary_flags(g, ca.membership))


def test_score_g_single_community_is_n():
    g = random_regular(10, 3, seed=0)
    ca = CommunityAssignment.from_membership(g, [0] * 10)
    assert score_g(ca) == 10


def test_score_g_singletons_is_n():
    g = random_regular(10, 3, seed=1)
    ca = CommunityAssignment.from_membership(g, list(range(10)))
    assert score_g(ca) == 10


def test_score_g_matches_scratch_recomputation():
    for seed in range(5):
        g = random_regular(24, 3, seed=seed)
        ca = detect_multilevel(g, seed=seed)
        assert score_g(ca) == score_from_scratch(g, ca.membership)
        ref = refine_boundary(g, ca, seed=seed)
        assert score_g(ref) == score_from_scratch(g, ref.membership)


def test_modularity_matches_naive_double_sum():
    for seed in range(4):
        g = random_regular(16, 3, seed=seed)
        ca = detect_multilevel(g, seed=seed)
        assert modularity(g, ca.membership) == pytest.approx(
            modularity_naive(g, ca.membership), abs=1e-12
        )


def test_modularity_matches_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.community import modularity as nx_modularity

    for seed in range(4):
        g = random_regular(20, 3, seed=seed)
        ca = detect_multilevel(g, seed=seed)
        gx = nx.Graph(list(g.edges))
        gx.add_nodes_from(range(g.num_vertices))
        groups = [set(ca.vertices_of(c).tolist()) for c in range(ca.num_communities)]
        assert modularity(g, ca.membership) == pytest.approx(
            nx_modularity(gx, groups), abs=1e-12
        )


def test_two_cliques_split_has_max_modularity_by_enumeration():
    # check the expected answer against every partition of the 8 vertices
    g = _two_cliques_with_bridge()
    best_q = -np.inf
    best_parts = []
    for labels in _set_partitions(8):
        q = modularity_naive(g, labels)
        if q > best_q + 1e-12:
            best_q = q
            best_parts = [labels]
        elif abs(q - best_q) <= 1e-12:
            best_parts.append(labels)
    assert best_parts == [(0, 0, 0, 0, 1, 1, 1, 1)]
    assert best_q == pytest.approx(11.0 / 26.0, abs=1e-12)


def test_detect_two_cliques_finds_the_split():
    g = _two_cliques_with_bridge()
    for seed in range(6):
        ca = detect_multilevel(g, seed=seed)
        assert ca.num_communities == 2
        assert len(set(ca.membership[:4].tolist())) == 1
        assert len(set(ca.membership[4:].tolist())) == 1
        assert modularity(g, ca.membership) == pytest.approx(11.0 / 26.0)


def test_detect_edgeless_graph_keeps_singletons():
    g = Graph(6, ())
    ca = detect_multilevel(g, seed=3)
    assert ca.num_communities == 6
    assert not ca.boundary.any()
    assert score_g(ca) == 1


def test_detect_community_count_on_small_regular_graphs():
    # 20-vertex 3-regular graphs typically split into about three parts
    counts = [detect_multilevel(random_regular(20, 3, s), seed=s).num_communities
              for s in range(20)]
    assert all(2 <= c <= 6 for c in counts)
    assert 3 in counts


def test_detect_deterministic():
    g = random_regular(40, 3, seed=9)
    a = detect_multilevel(g, seed=5)
    b = detect_multilevel(g, seed=5)
    np.testing.assert_array_equal(a.membership, b.membership)


def test_refine_never_increases_score():
    for seed in range(10):
        g = random_regular(36, 3, seed=seed)
        base = detect_multilevel(g, seed=seed)
        refined = refine_boundary(g, base, seed=seed)
        assert score_g(refined) <= score_g(base)
        assert refined.num_communities <= base.num_communities
        np.testing.assert_array_equal(
            refined.boundary, boundary_flags(g, refined.membership)
        )


def test_refine_fixed_point_is_stable():
    g = random_regular(30, 3, seed=4)
    once = refine_boundary(g, detect_multilevel(g, seed=4), seed=4)
    twice = refine_boundary(g, once, seed=4)
    np.testing.assert_array_equal(once.membership, twice.membership)


def test_refine_matches_naive_refinement():
    # the oracle rescores every trial move from scratch, so a wrong boundary
    # prediction shows as a different move sequence; starts are detected
    # partitions and random labels
    graphs = [random_regular(n, 3, seed=s) for n, s in ((12, 0), (28, 1), (40, 2))]
    graphs += [random_regular(n, 4, seed=s) for n, s in ((14, 3), (30, 4))]
    graphs += [random_erdos_renyi(n, p, seed=s) for n, p, s in ((16, 0.3, 5), (36, 0.1, 6))]
    for seed, g in enumerate(graphs):
        labels = np.random.default_rng(seed).integers(0, 5, g.num_vertices)
        starts = (detect_multilevel(g, seed=seed), CommunityAssignment.from_membership(g, labels))
        for base in starts:
            want = CommunityAssignment.from_membership(g, refine_naive(g, base, seed))
            got = refine_boundary(g, base, seed=seed)
            np.testing.assert_array_equal(got.membership, want.membership)


def test_zero_weight_edge_is_not_a_boundary_edge():
    # two unit triangles joined by a 0-weight bridge: the MaxCut polynomial
    # has no term across, so the split into triangles has no boundary
    edges = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3))
    g = Graph(6, edges, (1.0,) * 6 + (0.0,))
    ca = CommunityAssignment.from_membership(g, [0, 0, 0, 1, 1, 1])
    assert not ca.boundary.any()
    reduced = reduce_exact(maxcut_to_qubo(g), ca)
    assert reduced.poly.num_vars == 0
    assert reduced.poly.terms == {(): -4.0}
    assert not refine_boundary(g, ca).boundary.any()


def test_refine_matches_naive_refinement_with_zero_weights():
    # some edges of each graph weigh 0 and must not count toward the boundary
    for seed in range(6):
        g = random_regular(24, 3, seed=seed)
        rng = np.random.default_rng(seed)
        weights = np.where(rng.random(g.num_edges) < 0.3, 0.0, 1.0)
        g = Graph(g.num_vertices, g.edges, tuple(weights))
        labels = rng.integers(0, 4, g.num_vertices)
        for base in (detect_multilevel(g, seed=seed), CommunityAssignment.from_membership(g, labels)):
            np.testing.assert_array_equal(base.boundary, boundary_flags(g, base.membership))
            want = CommunityAssignment.from_membership(g, refine_naive(g, base, seed))
            got = refine_boundary(g, base, seed=seed)
            np.testing.assert_array_equal(got.membership, want.membership)


def _without_zero_weights(g):
    keep = [i for i in range(g.num_edges) if g.weight(i) != 0]
    return Graph(g.num_vertices, tuple(g.edges[i] for i in keep), tuple(g.weights[i] for i in keep))


def _assert_same_partitions(g, seed):
    """Detection and refinement see only the couplings, so dropping the
    zero-weight edges changes neither partition; returns ``g``'s two."""
    runs = []
    for graph in (g, _without_zero_weights(g)):
        detected = detect_multilevel(graph, seed=seed)
        runs.append((detected, refine_boundary(graph, detected, seed=seed)))
    for mine, theirs in zip(*runs):
        np.testing.assert_array_equal(mine.membership, theirs.membership)
        np.testing.assert_array_equal(mine.boundary, theirs.boundary)
    return runs[0]


def test_zero_weight_edges_do_not_steer_detection():
    # 7 of the 21 edges weigh 0; detection once moved along them to a
    # partition with B = 8, against B = 6 on the graph without them
    g = random_regular(14, 3, 44)
    weights = np.random.default_rng(44).choice([0, 1, 2], p=[0.3, 0.4, 0.3], size=g.num_edges)
    g = Graph(14, g.edges, tuple(float(w) for w in weights))
    assert (weights == 0).sum() == 7
    detected, refined = _assert_same_partitions(g, seed=1)
    assert int(detected.boundary.sum()) == int(refined.boundary.sum()) == 6


def test_zero_weight_edges_never_change_partitions():
    # half the edges weigh 0; when detection read them, it split 4 of these
    # 80 graphs otherwise than the same graphs without them
    for n, k in ((24, 3), (24, 4), (40, 3), (40, 4)):
        for seed in range(20):
            g = random_regular(n, k, seed)
            rng = np.random.default_rng(seed)
            weights = rng.choice([0.0, 1.0, 2.0], p=[0.5, 0.25, 0.25], size=g.num_edges)
            _assert_same_partitions(Graph(n, g.edges, tuple(weights.tolist())), seed)


def test_refine_refuses_an_assignment_of_another_size():
    g = random_regular(8, 3, seed=0)
    for other in (6, 10):
        ca = CommunityAssignment.from_membership(Graph(other, ()), [0] * other)
        with pytest.raises(ParameterError, match=f"covers {other} vertices, graph has 8"):
            refine_boundary(g, ca)


# (n, k, seed) -> (detected, refined) memberships, one digit per vertex, for
# random_regular(n, k, seed) with detection and refinement seeded by ``seed``.
# They pin the seeded scan orders and the float arithmetic of the gains.
_PINNED_MEMBERSHIPS = {
    (20, 3, 0): ("01202223322002322101", "01202223322002322302"),
    (20, 3, 1): ("01213301130201230010", "01211001110101030010"),
    (20, 3, 2): ("01023113333202223210", "01120120000202220210"),
    (20, 3, 3): ("01232403212322413304", "01020332030000300043"),
    (20, 3, 4): ("00122012321120331102", "01211022311210332201"),
    (100, 3, 1): (
        "0112341152163057274580174753716252566670772086818675161762267700842021681608385572155273646003607141",
        "0112341152103657274586174752714212100076772680816077101702200760842621081067388772152273040663067147",
    ),
    (60, 4, 1): (
        "012134134560213405203505232454265412233656624021643310231505",
        "012134134540313505202505212454261412533351024021643310231505",
    ),
}


@pytest.mark.parametrize("case", list(_PINNED_MEMBERSHIPS), ids=str)
def test_detect_and_refine_memberships_are_pinned(case):
    n, k, seed = case
    g = random_regular(n, k, seed=seed)
    detected = detect_multilevel(g, seed=seed)
    refined = refine_boundary(g, detected, seed=seed)
    naive = CommunityAssignment.from_membership(g, refine_naive(g, detected, seed))
    digits = [
        "".join(str(c) for c in a.membership.tolist()) for a in (detected, refined, naive)
    ]
    want_detected, want_refined = _PINNED_MEMBERSHIPS[case]
    assert digits == [want_detected, want_refined, want_refined]


def test_refine_deterministic():
    g = random_regular(50, 3, seed=11)
    base = detect_multilevel(g, seed=11)
    a = refine_boundary(g, base, seed=7)
    b = refine_boundary(g, base, seed=7)
    np.testing.assert_array_equal(a.membership, b.membership)


def test_refine_reduces_mean_boundary_on_ensemble():
    # the aggregate improvement that motivates refinement
    base_b, ref_b = [], []
    for seed in range(10):
        g = random_regular(60, 3, seed=seed)
        base = detect_multilevel(g, seed=seed)
        refined = refine_boundary(g, base, seed=seed)
        base_b.append(int(base.boundary.sum()))
        ref_b.append(int(refined.boundary.sum()))
    assert np.mean(ref_b) < np.mean(base_b)


def test_membership_file_round_trip(tmp_path):
    g = random_regular(18, 3, seed=6)
    ca = refine_boundary(g, detect_multilevel(g, seed=6), seed=6)
    path = tmp_path / "membership.txt"
    write_membership(ca, path)
    back = read_membership(g, path)
    np.testing.assert_array_equal(back.membership, ca.membership)
    assert back.num_communities == ca.num_communities


def test_read_membership_names_a_negative_community(tmp_path):
    # a listed vertex with id -1 is a negative id, not a missing vertex
    g = Graph(3, ((0, 1), (1, 2)))
    path = tmp_path / "m.txt"
    path.write_text("0 -1\n1 -1\n2 0\n")
    with pytest.raises(ParameterError, match="community ids must be nonnegative"):
        read_membership(g, path)
    path.write_text("0 0\n2 1\n")
    with pytest.raises(ParameterError, match="vertex 1 has no community"):
        read_membership(g, path)
    path.write_text("0 0\n1 0\n1 1\n2 1\n")
    with pytest.raises(ParameterError, match="vertex 1 listed twice"):
        read_membership(g, path)


def test_read_membership_rejects_malformed(tmp_path):
    g = Graph(3, ((0, 1), (1, 2)))
    path = tmp_path / "m.txt"
    path.write_text("0 0\n1 0\n")
    with pytest.raises(ParameterError):
        read_membership(g, path)
    path.write_text("0 0\n1 0\n1 1\n2 1\n")
    with pytest.raises(ParameterError):
        read_membership(g, path)
