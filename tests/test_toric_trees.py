import itertools
import random

import pytest

from plucker.graph_core import enumerate_matchings
from plucker.invariant_ring import hilbert_dim
from plucker.toric_rewriting import CatWeighting
from plucker.toric_trees import (
    TreeWeighting,
    TrivalentTree,
    _completion_counts,
    build_caterpillar,
    build_y_tree,
    count_admissible_regular,
    enumerate_admissible_regular,
    greedy_graph,
    level,
    toric_plucker_applicable,
    weighting_of_graph,
)
from support import (
    enumerate_recursively,
    leaf_edge_weight,
    leaf_path_by_search,
    preorder_by_stack,
    role_edges,
    truncate,
    untruncate,
)


def add_weightings(a, b):
    """The edgewise sum of two weightings on one tree."""
    assert a.tree is b.tree
    return TreeWeighting(a.tree, tuple(x + y for x, y in zip(a.weights, b.weights)))


def test_build_shapes():
    y3 = build_y_tree(3)
    assert y3.num_leaves == 6
    assert y3.num_vertices - y3.num_leaves == 4  # internal vertices
    assert build_y_tree(5).num_leaves == 10
    c3 = build_caterpillar(3)
    assert len(c3.trinodes) == 1 and len(c3.edges) == 3
    with pytest.raises(ValueError):
        build_y_tree(2)
    with pytest.raises(ValueError):
        build_caterpillar(2)


def test_y_tree_numbering_is_pinned():
    # greedy_graph breaks ties by vertex index, so these numbers fix the
    # output of `plucker toric greedy`
    y3 = build_y_tree(3)
    assert y3.num_vertices == 10
    assert y3.edges == ((0, 2), (0, 4), (0, 5), (1, 2), (1, 8), (1, 9),
                        (2, 3), (3, 6), (3, 7))
    assert y3.leaf_of_label == {1: 4, 2: 5, 3: 6, 4: 7, 5: 8, 6: 9}
    assert role_edges(y3, 3) == ({1: 0, 2: 6, 3: 3}, {})
    y4 = build_y_tree(4)
    assert y4.num_vertices == 14
    assert y4.edges == ((0, 2), (0, 6), (0, 7), (1, 4), (1, 12), (1, 13), (2, 3),
                        (2, 4), (3, 8), (3, 9), (4, 5), (5, 10), (5, 11))
    assert y4.leaf_of_label == {l: l + 5 for l in range(1, 9)}
    assert role_edges(y4, 4) == ({1: 0, 2: 6, 3: 10, 4: 3}, {2: 7})
    # the Y-trees take their stalks and base edges from the caterpillar
    c4 = build_caterpillar(4)
    assert c4.edges == ((0, 2), (1, 4), (2, 3), (2, 4), (4, 5))
    assert c4.leaf_of_label == {1: 0, 2: 3, 3: 5, 4: 1}
    assert role_edges(c4, 4) == ({1: 0, 2: 2, 3: 4, 4: 1}, {2: 3})


def test_matched_pairs_and_labels():
    y4 = build_y_tree(4)
    assert y4.leaves() == list(range(1, 9))
    # matched pairs are (2i-1, 2i): they share a trinode
    for i in range(1, 5):
        va = y4.leaf_of_label[2 * i - 1]
        vb = y4.leaf_of_label[2 * i]
        (_, ta), = y4.adj[va]
        (_, tb), = y4.adj[vb]
        assert ta == tb


def test_level_examples():
    y3 = build_y_tree(3)
    assert level([], y3) == 0
    assert level([(1, 2)], y3) == 2  # matched pair, two edges via the trinode
    rng = random.Random(0)
    for _ in range(20):
        g1 = [tuple(rng.sample(range(1, 7), 2)) for _ in range(2)]
        g2 = [tuple(rng.sample(range(1, 7), 2)) for _ in range(2)]
        assert level(g1 + g2, y3) == level(g1, y3) + level(g2, y3)


def test_weighting_of_graph_examples():
    y3 = build_y_tree(3)
    assert weighting_of_graph([], y3) == TreeWeighting(y3, (0,) * len(y3.edges))
    w = weighting_of_graph([(1, 4)], y3)
    verts, eidx = y3.leaf_path(1, 4)
    assert sorted(i for i, v in enumerate(w.weights) if v == 1) == sorted(eidx)
    assert all(v in (0, 1) for v in w.weights)
    with pytest.raises(ValueError):
        weighting_of_graph([(1, 2), (3, 3)], y3)  # a loop has no geodesic


def test_weighting_is_additive():
    y4 = build_y_tree(4)
    rng = random.Random(1)
    for _ in range(20):
        g1 = [tuple(rng.sample(range(1, 9), 2)) for _ in range(3)]
        g2 = [tuple(rng.sample(range(1, 9), 2)) for _ in range(2)]
        lhs = weighting_of_graph(g1 + g2, y4)
        rhs = add_weightings(weighting_of_graph(g1, y4), weighting_of_graph(g2, y4))
        assert lhs == rhs


def test_weighting_admissible_for_graphs():
    y4 = build_y_tree(4)
    for m in enumerate_matchings(8):
        assert weighting_of_graph(m, y4).is_admissible()


def test_trun_wt_figure():
    # degree-one weighting on the 5th Y-tree with stalks (2,0,2,2,2) and
    # bases (2,4); it arises from a matching and truncates by halving
    y5 = build_y_tree(5)
    stalk_edges, base_edges = role_edges(y5, 5)
    weights = [0] * len(y5.edges)
    for lab in range(1, 11):
        (idx, _), = y5.adj[y5.leaf_of_label[lab]]
        weights[idx] = 1
    for i, v in {1: 2, 2: 0, 3: 2, 4: 2, 5: 2}.items():
        weights[stalk_edges[i]] = v
    for j, v in {2: 2, 3: 4}.items():
        weights[base_edges[j]] = v
    tw = TreeWeighting(y5, tuple(weights))
    assert tw.is_admissible()
    assert all(leaf_edge_weight(tw, l) == 1 for l in y5.leaves())
    matching = [(1, 9), (2, 10), (5, 7), (6, 8), (3, 4)]
    assert weighting_of_graph(matching, y5) == tw

    red = CatWeighting(5, (1, 0, 1, 1, 1), (1, 2))
    assert truncate(tw) == (red, 1)
    assert untruncate(red, 1) == tw


def test_truncate_zero_and_additivity():
    y4 = build_y_tree(4)
    rng = random.Random(2)
    ws = list(enumerate_admissible_regular(y4, 1))
    for _ in range(20):
        a, b = rng.choice(ws), rng.choice(ws)
        (ta, da), (tb, db) = truncate(a), truncate(b)
        assert truncate(add_weightings(a, b)) == (ta + tb, da + db)
    # the zero weighting truncates to zero at degree 0
    assert truncate(weighting_of_graph([], y4)) == (CatWeighting(4, (0,) * 4, (0,)), 0)


def test_truncate_rejects_odd_interior():
    y3 = build_y_tree(3)
    stalk_edges, _ = role_edges(y3, 3)
    weights = [0] * len(y3.edges)
    for lab in range(1, 7):
        (idx, _), = y3.adj[y3.leaf_of_label[lab]]
        weights[idx] = 1
    weights[stalk_edges[1]] = 1  # odd interior weight
    weights[stalk_edges[2]] = 1
    weights[stalk_edges[3]] = 2
    w = TreeWeighting(y3, tuple(weights))
    with pytest.raises(ValueError):
        truncate(w)


def test_truncate_rejects_other_inputs():
    y3 = build_y_tree(3)
    with pytest.raises(ValueError, match="not regular"):
        truncate(weighting_of_graph([(1, 2)], y3))
    cat = build_caterpillar(3)
    with pytest.raises(ValueError, match="Y-tree"):
        truncate(TreeWeighting(cat, (0,) * len(cat.edges)))
    with pytest.raises(ValueError, match="degree"):
        untruncate(CatWeighting(3, (1, 1, 0), ()), 0)


def test_truncate_round_trips_on_y_trees():
    for r in (3, 4, 5):
        tree = build_y_tree(r)
        stalk_edges, base_edges = role_edges(tree, r)
        for d in (1, 2):
            for w in enumerate_admissible_regular(tree, d):
                interior = [w.weights[i] for i in
                            [*stalk_edges.values(), *base_edges.values()]]
                if all(x % 2 == 0 for x in interior):
                    c, degree = truncate(w)
                    assert degree == d and untruncate(c, d) == w


def test_greedy_examples():
    y3 = build_y_tree(3)
    assert greedy_graph(weighting_of_graph([], y3)) == ()
    assert greedy_graph(weighting_of_graph([(2, 5)], y3)) == ((2, 5),)
    # all five degree-1 weightings round trip to perfect matchings
    count = 0
    for w in enumerate_admissible_regular(y3, 1):
        g = greedy_graph(w)
        assert sorted(v for e in g for v in e) == list(range(1, 7))
        assert weighting_of_graph(g, y3) == w
        count += 1
    assert count == 5


def test_greedy_round_trip_degree_two():
    for r in (3, 4):
        tree = build_y_tree(r)
        for d in (1, 2):
            for w in enumerate_admissible_regular(tree, d):
                assert weighting_of_graph(greedy_graph(w), tree) == w


def test_count_admissible_regular():
    y3 = build_y_tree(3)
    assert count_admissible_regular(y3, 0) == 1
    assert count_admissible_regular(y3, 1) == 5
    assert count_admissible_regular(build_y_tree(4), 1) == 14
    for n in (6, 8):
        tree = build_y_tree(n // 2)
        for d in (1, 2, 3):
            assert count_admissible_regular(tree, d) == hilbert_dim(n, d)


def _leaves_beyond(tree, idx, start):
    """Leaves reached from vertex ``start`` without crossing edge ``idx``."""
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for jdx, w in tree.adj[v]:
            if jdx != idx and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen & set(tree.label_of_leaf))


def _brute_force_regular(tree, d):
    """Every weighting with leaf edges d that passes is_admissible.

    By the triangle inequalities an edge weighs at most d times the number
    of leaves on either side of it, so that bounds each interior weight.
    """
    leaf_edges = {tree.adj[v][0][0] for v in tree.label_of_leaf}
    ranges = []
    for idx, (u, v) in enumerate(tree.edges):
        if idx in leaf_edges:
            ranges.append((d,))
        else:
            side = min(_leaves_beyond(tree, idx, u), _leaves_beyond(tree, idx, v))
            ranges.append(range(d * side + 1))
    out = set()
    for weights in itertools.product(*ranges):
        w = TreeWeighting(tree, weights)
        if w.is_admissible():
            out.add(w)
    return out


@pytest.mark.parametrize("tree", [build_y_tree(3), build_y_tree(4), build_caterpillar(4)],
                         ids=["y3", "y4", "caterpillar4"])
def test_weighting_dp_against_brute_force(tree):
    for d in range(4):
        want = _brute_force_regular(tree, d)
        got = list(enumerate_admissible_regular(tree, d))
        assert len(got) == len(set(got))
        assert set(got) == want
        assert count_admissible_regular(tree, d) == len(want)


def _two_sided_tree():
    """Leaf 1 on a trinode over two trinodes over four cherries, 9 leaves.

    Under a Y-tree's or a caterpillar's trinode at most one child subtree has
    a choice to make; here both do, so the order of the children shows.
    """
    edges = [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)]
    leaves = {1: 0}
    for i, v in enumerate((4, 5, 6, 7)):
        for leaf in (8 + 2 * i, 9 + 2 * i):
            edges.append((v, leaf))
            leaves[len(leaves) + 1] = leaf
    return TrivalentTree(16, edges, leaves)


def test_enumeration_order_matches_the_nested_generators():
    # the odometer over pre-order trinodes yields the nested generators' order
    trees = [build_y_tree(r) for r in range(3, 7)] + [_two_sided_tree()]
    for tree in trees:
        for d in range(4):
            got = list(enumerate_admissible_regular(tree, d))
            assert got == list(enumerate_recursively(tree, d))
            assert len(got) == count_admissible_regular(tree, d)


_WALKED_TREES = [build_y_tree(r) for r in range(3, 9)] + \
    [build_caterpillar(r) for r in range(3, 9)] + [_two_sided_tree()]


def test_leaf_path_climbs_to_the_searched_geodesic():
    # the parent-pointer climb agrees with a breadth-first search on every
    # ordered leaf pair, a leaf with itself included
    for tree in _WALKED_TREES:
        for a, b in itertools.product(tree.leaves(), repeat=2):
            assert tree.leaf_path(a, b) == leaf_path_by_search(tree, a, b), (a, b)


def test_preorder_is_the_stack_walk_from_the_lowest_leaf():
    for tree in _WALKED_TREES:
        assert tree.preorder == preorder_by_stack(tree)
        assert sorted(tree.trinodes) == [v for v in range(tree.num_vertices)
                                         if len(tree.adj[v]) == 3]
        for v, above in tree.parent.items():
            assert (above is None) == (tree.depth[v] == 0)
            if above is not None:
                idx, u = above
                assert set(tree.edges[idx]) == {u, v} and tree.depth[u] == tree.depth[v] - 1


_STAR = [(0, 1), (1, 2), (1, 3)]


@pytest.mark.parametrize("num_vertices, edges, leaves, message", [
    (3, [(0, 1), (1, 2)], {1: 0, 2: 2}, "vertex 1 has valence 2, not 1 or 3"),
    (4, _STAR, {1: 0, 2: 2}, "vertex 3 is a leaf without a label"),
    (4, _STAR, {1: 0, 2: 2, 3: 3, 4: 1}, "vertex 1 is a trinode with a label"),
    (6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5)], {1: 0, 2: 4, 3: 5},
     "vertex 3 is reached twice: the edges have a cycle"),
    (6, _STAR + [(4, 5)], {1: 0, 2: 2, 3: 3, 4: 4, 5: 5}, "2 vertices are never reached"),
    (2, [(0, 5)], {1: 0, 2: 5}, "edge (0, 5) is off the vertices 0..1"),
    (2, [(0, 1)], {}, "a tree needs a labelled leaf"),
    (2, [(0, 1)], {1: 0, 2: 0, 3: 1}, "the labels must be on the leaves, one each"),
    (2, [(0, 1)], {1: 0, 2: 1, 3: 7}, "the labels must be on the leaves, one each"),
    (2, [(0, 1)], {1: 7, 2: 0, 3: 1}, "vertex 7 has valence 0, not 1 or 3"),
], ids=["valence 2", "unlabelled leaf", "labelled trinode", "cycle", "two components",
        "edge off the vertices", "no labels", "two labels on a leaf", "label off the vertices",
        "lowest label off the vertices"])
def test_the_walk_refuses_what_is_not_a_labelled_trivalent_tree(
        num_vertices, edges, leaves, message):
    with pytest.raises(ValueError) as info:
        TrivalentTree(num_vertices, edges, leaves)
    assert str(info.value) == message


def _every_count_table(tree, d):
    """Each edge's table {weight: completions of the subtree under it}, all kept,
    by recursion from leaf 1's edge: the oracle for ``_completion_counts``."""
    tables = {}

    def fill(e, v, parent):
        kids = [(idx, w) for idx, w in tree.adj[v] if w != parent]
        if not kids:
            tables[e] = {d: 1}
            return
        (e1, w1), (e2, w2) = kids
        fill(e1, w1, v)
        fill(e2, w2, v)
        out = {}
        for a, na in tables[e1].items():
            for b, nb in tables[e2].items():
                for w in range(abs(a - b), a + b + 1, 2):
                    out[w] = out.get(w, 0) + na * nb
        tables[e] = out

    root_leaf = tree.leaf_of_label[1]
    (root_edge, below), = tree.adj[root_leaf]
    fill(root_edge, below, root_leaf)
    return tables


@pytest.mark.parametrize("tree, degrees", [(build_y_tree(r), range(5)) for r in range(3, 9)]
                         + [(build_caterpillar(r), range(6)) for r in range(3, 9)]
                         + [(_two_sided_tree(), range(4))],
                         ids=[f"y{r}" for r in range(3, 9)]
                         + [f"caterpillar{r}" for r in range(3, 9)] + ["two_sided"])
def test_child_tables_keep_only_their_weight_range(tree, degrees):
    # every weight between a child table's least and largest, in steps of 2,
    # has a completion, so the range the DP keeps is exactly its key set
    for d in degrees:
        table, root_edge, _ = _completion_counts(tree, d)
        every = _every_count_table(tree, d)
        assert table.keys() == every.keys()
        assert table[root_edge] == every[root_edge]
        for e, counts in every.items():
            if e != root_edge:
                assert table[e] == range(min(counts), max(counts) + 1, 2)
                assert set(table[e]) == set(counts), (e, d)


def test_lattice_counts_match_enumeration_at_larger_sizes():
    # chord-diagram DFS and tree lattice-point DP are fully independent routes
    for n, d in ((8, 4), (10, 2), (12, 1)):
        tree = build_y_tree(n // 2)
        assert count_admissible_regular(tree, d) == hilbert_dim(n, d)


def test_toric_plucker_applicable():
    y4 = build_y_tree(4)
    # matched pairs (a, d) = (1, 2) and (b, c) = (7, 8), as in the overlap figure
    assert toric_plucker_applicable(y4, 1, 7, 8, 2)
    # both pairs inside far-apart Y's: no overlap
    assert not toric_plucker_applicable(y4, 1, 2, 7, 8)
    cat = build_caterpillar(6)
    assert not toric_plucker_applicable(cat, 1, 2, 5, 6)
    with pytest.raises(ValueError, match="distinct"):
        toric_plucker_applicable(y4, 1, 1, 2, 3)


def test_tree_weighting_refuses_bad_weights():
    y3 = build_y_tree(3)
    for weights in ((0,) * (len(y3.edges) - 1), (1,) * (len(y3.edges) - 1) + (-1,)):
        with pytest.raises(ValueError, match="weights >= 0"):
            TreeWeighting(y3, weights)


def test_toric_plucker_level_identities():
    rng = random.Random(3)
    eligible = 0
    while eligible < 100:
        r = rng.choice((3, 4, 5))
        tree = build_y_tree(r)
        a, b, c, d = rng.sample(tree.leaves(), 4)
        if not toric_plucker_applicable(tree, a, b, c, d):
            continue
        eligible += 1
        g1, g2, g3 = [(a, b), (c, d)], [(a, c), (b, d)], [(a, d), (b, c)]
        assert weighting_of_graph(g1, tree) == weighting_of_graph(g2, tree)
        assert level(g1, tree) == level(g2, tree) > level(g3, tree)
