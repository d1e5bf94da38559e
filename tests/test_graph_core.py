import itertools
import random

import pytest

from plucker.graph_core import (
    canonicalize,
    catalan,
    connected_component_partition,
    enumerate_matchings,
    enumerate_noncrossing_regular,
    graph_to_json,
    matching_key,
    orientation_sign,
    parse_graph,
    parse_graph_json,
    perm_sign,
    perm_sign_of_map,
)
from support import crossing


def relabel_edges(edges, perm):
    return [(perm[a], perm[b]) for a, b in edges]


def graph_to_text(n, edges):
    return "n=%d; edges=%s" % (n, ",".join("%d-%d" % e for e in edges))


def test_canonicalize_examples():
    assert canonicalize([(2, 1)]).graph == ((1, 2),)
    assert canonicalize([(2, 1)]).sign == -1
    assert canonicalize([(1, 1)]).sign == 0
    cf = canonicalize([(3, 4), (2, 1)])
    assert cf.graph == ((1, 2), (3, 4)) and cf.sign == -1


def test_canonicalize_idempotent():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.choice((4, 6, 8))
        edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(5)]
        cf = canonicalize(edges)
        if cf.sign == 0:
            continue
        again = canonicalize(cf.graph)
        assert again.sign == 1 and again.graph == cf.graph


def test_orientation_sign_examples():
    assert orientation_sign(((1, 2), (3, 4))) == 1
    assert orientation_sign(((2, 1), (3, 4))) == -1
    # one transposition in the 4-letter word (1,3,2,4)
    assert orientation_sign(((1, 3), (2, 4))) == -1
    assert orientation_sign([[2, 1], [3, 4]]) == -1


def test_orientation_sign_rejects_non_matchings():
    # the sign is cached per matching, but an error must repeat on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            orientation_sign(((1, 2), (2, 3)))


def test_bad_inputs_raise_value_error():
    for call in (lambda: enumerate_matchings(5),
                 lambda: enumerate_matchings(-2),
                 lambda: enumerate_noncrossing_regular(7, 2),
                 lambda: enumerate_noncrossing_regular(0, 1),
                 lambda: enumerate_noncrossing_regular(6, -1),
                 lambda: matching_key([(1, 1), (2, 3)]),
                 lambda: matching_key([(1, 2), (2, 3)])):
        with pytest.raises(ValueError):
            call()


def test_orientation_equivariance_exhaustive_small():
    # eps(sigma m) = sgn(sigma) eps(m) on directed matchings, n in {2, 4, 6}
    for n in (2, 4, 6):
        matchings = enumerate_matchings(n)
        for img in itertools.permutations(range(1, n + 1)):
            perm = dict(zip(range(1, n + 1), img))
            sgn = perm_sign_of_map(perm)
            for m in matchings:
                assert orientation_sign(relabel_edges(m, perm)) == \
                    sgn * orientation_sign(m)


def test_orientation_equivariance_random_n8():
    rng = random.Random(1)
    labels = list(range(1, 9))
    matchings = enumerate_matchings(8)
    for _ in range(200):
        img = labels[:]
        rng.shuffle(img)
        perm = dict(zip(labels, img))
        # random directions on a random matching
        m = [e if rng.random() < 0.5 else (e[1], e[0])
             for e in rng.choice(matchings)]
        assert orientation_sign(relabel_edges(m, perm)) == \
            perm_sign_of_map(perm) * orientation_sign(m)


def test_edge_reversal_flips_sign():
    m = ((1, 4), (2, 6), (3, 5))
    flipped = ((4, 1), (2, 6), (3, 5))
    assert orientation_sign(flipped) == -orientation_sign(m)


def test_noncrossing_counts_against_catalan():
    for n in (2, 4, 6, 8, 10):
        assert len(enumerate_noncrossing_regular(n, 1)) == catalan(n // 2)


def test_noncrossing_61_against_bruteforce():
    crossing_free = [m for m in enumerate_matchings(6)
                     if not any(crossing(e, f)
                                for e, f in itertools.combinations(m, 2))]
    assert len(crossing_free) == 5
    assert sorted(crossing_free) == list(enumerate_noncrossing_regular(6, 1))


def _regular_multigraphs(n, d):
    """Every loop-free d-regular multigraph on 1..n, by backtracking alone.

    The lowest vertex with valence left takes its partners in increasing
    order, so each edge multiset is built once, already sorted.
    """
    out = []
    left = [d] * (n + 1)

    def rec(chosen, low):
        v = next((u for u in range(1, n + 1) if left[u]), None)
        if v is None:
            out.append(tuple(chosen))
            return
        for w in range(max(v + 1, low), n + 1):
            if left[w]:
                left[v] -= 1
                left[w] -= 1
                chosen.append((v, w))
                rec(chosen, w if left[v] else 0)
                chosen.pop()
                left[v] += 1
                left[w] += 1

    rec([], 0)
    return out


def test_noncrossing_regular_against_crossing_filter():
    for n in (2, 4, 6, 8):
        for d in (0, 1, 2, 3):
            oracle = sorted(g for g in _regular_multigraphs(n, d)
                            if not any(crossing(e, f)
                                       for e, f in itertools.combinations(g, 2)))
            got = enumerate_noncrossing_regular(n, d)
            assert got == tuple(oracle), (n, d)
            assert len(set(got)) == len(got)


def test_noncrossing_regular_counts_at_scale():
    assert len(enumerate_noncrossing_regular(12, 2)) == 4213
    assert len(enumerate_noncrossing_regular(10, 3)) == 4269


def test_noncrossing_small_examples():
    assert enumerate_noncrossing_regular(2, 1) == (((1, 2),),)
    assert set(enumerate_noncrossing_regular(4, 1)) == {
        ((1, 2), (3, 4)), ((1, 4), (2, 3))}


def test_enumerate_matchings_counts():
    assert len(enumerate_matchings(2)) == 1
    assert len(enumerate_matchings(4)) == 3
    assert len(enumerate_matchings(6)) == 15


def test_component_partition_examples():
    blocks, part = connected_component_partition(4, [(1, 2), (1, 2), (3, 4), (3, 4)])
    assert part == (2, 2)
    assert {frozenset(b) for b in blocks} == {frozenset({1, 2}), frozenset({3, 4})}
    # 2-colored 4-cycle on {1..4} plus doubled edge {5,6}
    _, part = connected_component_partition(
        6, [(1, 2), (3, 4), (1, 3), (2, 4), (5, 6), (5, 6)])
    assert part == (4, 2)
    # the 2-colored 8-cycle is connected
    cycle = [(i, i + 1) for i in range(1, 8)] + [(1, 8)]
    _, part = connected_component_partition(8, cycle)
    assert part == (8,)


def test_component_partition_of_disjoint_union():
    rng = random.Random(2)
    for _ in range(20):
        e1 = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(3)]
        e2 = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(3)]
        _, p1 = connected_component_partition(4, e1)
        _, p2 = connected_component_partition(4, e2)
        shifted = [(a + 4, b + 4) for a, b in e2]
        _, joint = connected_component_partition(8, e1 + shifted)
        assert joint == tuple(sorted(p1 + p2, reverse=True))


def test_crossing_is_arithmetic():
    assert crossing((1, 3), (2, 4))
    assert not crossing((1, 2), (3, 4))
    assert not crossing((1, 4), (2, 3))  # nested
    assert not crossing((1, 2), (1, 3))  # shared endpoint
    assert not crossing((1, 2), (1, 2))  # doubled edge


def test_text_and_json_round_trip():
    n, edges = parse_graph("n=4; edges=1-3,2-4")
    assert (n, edges) == (4, [(1, 3), (2, 4)])
    assert parse_graph(graph_to_text(n, edges)) == (n, edges)
    assert parse_graph_json(graph_to_json(n, edges)) == (n, edges)
    with pytest.raises(ValueError):
        parse_graph("edges=1-2")
    with pytest.raises(ValueError):
        parse_graph("n=2; edges=1-5")


def test_perm_sign():
    assert perm_sign([1, 2, 3]) == 1
    assert perm_sign([2, 1, 3]) == -1
    assert perm_sign([1, 3, 2, 4]) == -1
