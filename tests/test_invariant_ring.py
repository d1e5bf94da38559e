import itertools
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plucker.invariant_ring as ir
from plucker.graph_core import (
    catalan,
    enumerate_matchings,
    enumerate_noncrossing_regular,
)
from plucker.invariant_ring import (
    FuelExhausted,
    PointConfig,
    RingElement,
    degree_trace,
    evaluate,
    first_crossing_pair,
    hilbert_dim,
    straighten,
    straighten_graph,
    x_of,
)
from plucker.relations import (
    _y_product,
    kempe_factor,
    project_to_ring,
    relation_matrix,
    sym_basis,
)
from plucker.symmetry_rep import partitions
from plucker.toric_trees import build_y_tree, count_admissible_regular
from support import crossing, multiply, y_of


def rand_config(n, rng):
    xs = []
    while len(xs) < n:
        x = rng.randint(-9, 9)
        if x not in xs:
            xs.append(x)
    return PointConfig.from_integers(xs)


def rand_element(n, rng, max_edges=8, max_terms=3):
    items = []
    for _ in range(rng.randint(1, max_terms)):
        edges = []
        for _ in range(rng.randint(1, max_edges)):
            a, b = rng.sample(range(1, n + 1), 2)
            edges.append((a, b))
        cf = ir.canonicalize(edges)
        items.append((cf.graph, Fraction(rng.randint(-3, 3)) * cf.sign))
    return RingElement.from_terms(n, items)


def test_x_of_and_y_of_examples():
    assert x_of(2, [(2, 1)]) == RingElement(2, {((1, 2),): Fraction(-1)})
    assert x_of(2, [(1, 1)]).is_zero()
    assert y_of(4, [(1, 2), (3, 4)]) == RingElement(
        4, {((1, 2), (3, 4)): Fraction(1)})


def test_multiply_examples():
    a = x_of(4, [(1, 2)])
    b = x_of(4, [(3, 4)])
    assert multiply(a, b) == RingElement(4, {((1, 2), (3, 4)): Fraction(1)})
    sq = multiply(a, a)
    assert sq == RingElement(4, {((1, 2), (1, 2)): Fraction(1)})
    c = (a + b)
    d = x_of(6, [(5, 6)])
    with pytest.raises(ValueError):
        multiply(c, d)
    dist = multiply(RingElement.from_terms(6, [(((1, 2),), 1), (((3, 4),), 1)]),
                    x_of(6, [(5, 6)]))
    assert len(dist.terms) == 2


def test_straighten_examples():
    e = x_of(4, [(1, 2), (3, 4)])
    assert straighten(e) == e
    crossing = x_of(4, [(1, 3), (2, 4)])
    expanded = straighten(crossing)
    assert expanded.terms == {((1, 2), (3, 4)): Fraction(1),
                              ((1, 4), (2, 3)): Fraction(1)}
    combo = crossing - x_of(4, [(1, 2), (3, 4)]) - x_of(4, [(1, 4), (2, 3)])
    assert straighten(combo).is_zero()


def test_straighten_idempotent_and_linear():
    rng = random.Random(3)
    for _ in range(30):
        e = rand_element(8, rng)
        s = straighten(e)
        assert straighten(s) == s
        f = rand_element(8, rng)
        assert straighten(e + f) == straighten(e) + straighten(f)


def test_straighten_supported_on_noncrossing():
    rng = random.Random(4)
    for _ in range(30):
        e = rand_element(8, rng)
        for key in straighten(e).terms:
            assert not any(crossing(p, q)
                           for p, q in itertools.combinations(key, 2))


def test_evaluate_examples():
    e = x_of(2, [(1, 2)])
    p = PointConfig(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))))
    assert evaluate(e, p) == -1
    assert evaluate(RingElement.zero(2), p) == 0
    # int coefficients at integer points still give a Fraction
    for value in (evaluate(RingElement(2, {((1, 2),): 3}), p),
                  evaluate(RingElement.zero(2), p)):
        assert type(value) is Fraction
    with pytest.raises(ValueError):
        evaluate(e, PointConfig(((Fraction(1), Fraction(1)),)))
    with pytest.raises(ValueError, match="projective point"):
        PointConfig(((Fraction(0), Fraction(0)), (1, 1)))
    with pytest.raises(ValueError, match="label-set mismatch"):
        x_of(2, [(1, 2)]) + x_of(4, [(1, 2)])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_evaluate_scales_projectively(data):
    # a d-regular element with fractional coefficients: moving every point
    # (x, 1) to (x/2, 1/2) multiplies each of the nd/2 edge factors by 1/4
    n = data.draw(st.sampled_from((2, 4, 6, 8)))
    d = data.draw(st.integers(1, 3))
    layers = st.lists(st.sampled_from(enumerate_matchings(n)), min_size=d, max_size=d)
    terms = data.draw(st.lists(
        st.tuples(layers, st.fractions(-5, 5, max_denominator=6)), min_size=1, max_size=4))
    e = RingElement.from_terms(
        n, [(tuple(sorted(edge for m in ms for edge in m)), c) for ms, c in terms])
    xs = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))
    ints = PointConfig.from_integers(xs)
    assert all(type(v) is int for point in ints.points for v in point)
    halves = PointConfig(tuple((Fraction(x, 2), Fraction(1, 2)) for x in xs))
    at_ints, at_halves = evaluate(e, ints), evaluate(e, halves)
    assert type(at_ints) is Fraction and type(at_halves) is Fraction
    assert at_ints * Fraction(1, 4) ** (n * d // 2) == at_halves


def test_evaluation_oracle_for_straightening():
    # evaluation is a ring homomorphism killing the relations
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice((4, 6, 8, 10))
        e = rand_element(n, rng, max_edges=3 * n // 2 if n <= 8 else 6)
        s = straighten(e)
        for _ in range(5):
            p = rand_config(n, rng)
            assert evaluate(s, p) == evaluate(e, p)


def test_evaluate_is_multiplicative():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.choice((4, 6))
        a, b = rand_element(n, rng, 4), rand_element(n, rng, 4)
        p = rand_config(n, rng)
        assert evaluate(multiply(a, b), p) == evaluate(a, p) * evaluate(b, p)


def test_undirected_plucker_identity():
    # the three-term Y relation on two edges of a matching straightens to zero
    for n in (4, 6, 8):
        for m in enumerate_matchings(n):
            for (a, b), (c, d) in itertools.combinations(m, 2):
                rest = [e for e in m if e not in ((a, b), (c, d))]
                y1 = y_of(n, list(m))
                y2 = y_of(n, rest + [(a, c), (b, d)])
                y3 = y_of(n, rest + [(a, d), (b, c)])
                assert straighten(y1 + y2 + y3).is_zero()


def test_hilbert_dims():
    assert hilbert_dim(6, 1) == 5
    assert hilbert_dim(6, 2) == 15
    assert hilbert_dim(6, 3) == 34
    for n in (2, 4, 6, 8, 10):
        assert hilbert_dim(n, 1) == catalan(n // 2)
    # three independent routes: trace formula, enumeration, toric tree DP
    for n in range(2, 13, 2):
        for d in range(4):
            count = len(enumerate_noncrossing_regular(n, d))
            assert hilbert_dim(n, d) == count
            if n >= 6:
                assert count_admissible_regular(build_y_tree(n // 2), d) == count


def _dict_trace(mu, k):
    """prod over cycles c of chi_k(t^c) as an exponent -> coefficient dict."""
    poly = {0: 1}
    for c in mu:
        new = {}
        for e, v in poly.items():
            for j in range(k + 1):
                f = e + c * (k - 2 * j)
                new[f] = new.get(f, 0) + v
        poly = new
    return poly.get(0, 0) - poly.get(2, 0)


def test_degree_trace_against_dict_product():
    for n in range(11):
        for mu in partitions(n):
            for k in range(6):
                assert degree_trace(mu, k) == _dict_trace(mu, k), (mu, k)


def test_hilbert_dim_rejects_bad_inputs():
    for n, d in ((5, 1), (0, 1), (6, -1), (2, 10**9)):
        with pytest.raises(ValueError):
            hilbert_dim(n, d)
    for mu, k in (((1, 1), -1), ((2, 0), 1)):
        with pytest.raises(ValueError):
            degree_trace(mu, k)


def _first_crossing_pair_oracle(edges):
    """Every pair tested; the smallest sorted endpoint 4-tuple wins, first on ties."""
    best = None
    for i, j in itertools.combinations(range(len(edges)), 2):
        if crossing(edges[i], edges[j]):
            key = tuple(sorted(edges[i] + edges[j]))
            if best is None or key < best[0]:
                best = (key, i, j)
    return None if best is None else best[1:]


@st.composite
def canonical_multigraphs(draw):
    """Sorted edges (a, b), a < b, on at most 14 vertices, with repeated edges."""
    n = draw(st.integers(2, 14))
    edge = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e)))
    base = draw(st.lists(edge, min_size=1, max_size=10))
    edges = draw(st.lists(st.sampled_from(base), max_size=16))
    return tuple(sorted(edges))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(canonical_multigraphs())
def test_first_crossing_pair_agrees_with_all_pairs(edges):
    assert first_crossing_pair(edges) == _first_crossing_pair_oracle(edges)


@st.composite
def crossing_multigraphs(draw):
    """A canonical multigraph with a crossing pair a < c < b < d drawn into it."""
    a, c, b, d = sorted(draw(st.lists(st.integers(1, 14), min_size=4, max_size=4,
                                      unique=True)))
    return tuple(sorted(draw(canonical_multigraphs()) + ((a, b), (c, d))))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(crossing_multigraphs(), st.data())
def test_plucker_children_share_their_new_edges(edges, data):
    pairs = [(i, j) for i, j in itertools.combinations(range(len(edges)), 2)
             if edges[i][0] < edges[j][0] < edges[i][1] < edges[j][1]]
    i, j = data.draw(st.sampled_from(pairs))
    # the plain construction, with fresh edge tuples
    (a, b), (c, d) = edges[i], edges[j]
    rest = edges[:i] + edges[i + 1:j] + edges[j + 1:]
    plain = (tuple(sorted(rest + ((a, d), (c, b)))),
             tuple(sorted(rest + ((a, c), (b, d)))))
    shared = {}
    first = ir._plucker_children(edges, i, j, shared)
    assert first == plain
    assert set(shared) == {(a, d), (c, b), (a, c), (b, d)}
    assert all(e is shared[e] for e in shared)
    # a copy of the graph, made of new tuples, gets children of the same objects
    again = ir._plucker_children(tuple(tuple(e) for e in edges), i, j, shared)
    assert again == plain and len(shared) == 4
    for g1, g2 in zip(first, again):
        new = [e for e in g1 if e in shared and e not in rest]
        assert all(any(x is y for y in g2) for x in new)
        assert all(shared[e] is e for e in new)


def test_shared_edges_leave_the_memo_unchanged():
    # the cache counts of relation_matrix(10, 2) from a cleared cache, which
    # sharing edge tuples must not move; an intermediate is stored on its
    # second use only, so some rewrites are done twice
    ir.GLOBAL_CACHE.clear()
    relation_matrix.cache_clear()
    try:
        m = relation_matrix(10, 2)
        assert ir.GLOBAL_CACHE.stats() == {
            "hits": 165, "misses": 738, "entries": 1296, "rewrites": 1589}
        assert len(m.entries) == 3028
        shared = ir.GLOBAL_CACHE.edges
        assert shared and all(shared[e] is e for e in shared)
        assert all(e[0] < e[1] <= 10 for e in shared)
    finally:
        relation_matrix.cache_clear()
        ir.GLOBAL_CACHE.clear()
    assert not ir.GLOBAL_CACHE.edges


def test_noncrossing_family_is_a_basis_of_functions():
    # independence certificate: evaluating the non-crossing graphs at enough
    # random configurations gives a full-rank exact matrix, and the full
    # matching family only spans a Catalan-dimensional function space
    from plucker.exact_linalg import QMatrix, rank
    from plucker.graph_core import enumerate_noncrossing_regular

    rng = random.Random(8)
    for n, d in ((6, 1), (6, 2), (8, 1)):
        basis = enumerate_noncrossing_regular(n, d)
        configs = [rand_config(n, rng) for _ in range(2 * len(basis))]
        m = QMatrix(len(basis), len(configs))
        for i, g in enumerate(basis):
            e = RingElement(n, {g: Fraction(1)})
            for j, p in enumerate(configs):
                m.set(i, j, evaluate(e, p))
        assert rank(m.freeze()) == len(basis)
    for n in (6, 8):
        matchings = enumerate_matchings(n)
        configs = [rand_config(n, rng) for _ in range(2 * len(matchings))]
        m = QMatrix(len(matchings), len(configs))
        for i, g in enumerate(matchings):
            e = y_of(n, g)
            for j, p in enumerate(configs):
                m.set(i, j, evaluate(e, p))
        assert rank(m.freeze()) == catalan(n // 2)


def test_kempe_factor_examples():
    # a matching factors as itself
    m = ((1, 2), (3, 4))
    kf = kempe_factor(4, m)
    assert set(kf.terms) == {(m,)}
    # 2-regular union of two matchings on n=4: single monomial
    kf = kempe_factor(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
    assert set(kf.terms) == {(((1, 2), (3, 4)), ((1, 3), (2, 4)))}
    # one positive and one negative edge; the graph is a single even cycle,
    # so the direct peel applies and the straightening oracle is the check
    g = [(1, 2), (4, 5), (1, 6), (3, 6), (3, 4), (2, 5)]
    kf = kempe_factor(6, g)
    assert (project_to_ring(kf) - straighten(x_of(6, g))).is_zero()
    # two odd cycles force the positive/negative Plucker phase
    g = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    kf = kempe_factor(6, g)
    assert len(kf.terms) > 1
    assert (project_to_ring(kf) - straighten(x_of(6, g))).is_zero()


def test_kempe_factor_random_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((4, 6, 8))
        d = rng.choice((2, 3))
        layers = [rng.choice(enumerate_matchings(n)) for _ in range(d)]
        edges = [e for m in layers for e in m]
        kf = kempe_factor(n, edges)
        assert (project_to_ring(kf) - straighten(x_of(n, edges))).is_zero()


def test_kempe_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        kempe_factor(4, [(1, 2)])
    with pytest.raises(ValueError):
        kempe_factor(2, [(1, 1)])
    # no perfect matchings on an odd number of labels
    with pytest.raises(ValueError):
        kempe_factor(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError):
        kempe_factor(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def test_json_round_trip():
    e = RingElement.from_terms(
        6, [(((1, 2), (3, 4), (5, 6)), Fraction(3, 2)),
            (((1, 4), (2, 3), (5, 6)), Fraction(-1))])
    assert RingElement.from_json(e.to_json()) == e
    assert '"3/2"' in e.to_json()
    # exact coefficients only: fraction strings or JSON integers
    term = '{"n":4,"terms":[{"coeff":%s,"edges":[[1,2],[3,4]]}]}'
    assert RingElement.from_json(term % "-2") == RingElement.from_json(term % '"-2"')
    for coeff in ("0.1", "true", "null", "[1]"):
        with pytest.raises(ValueError):
            RingElement.from_json(term % coeff)


def test_fuel_exhaustion_signals_internal_error(monkeypatch):
    monkeypatch.setattr(ir, "STRAIGHTEN_FUEL", 1)
    ir.GLOBAL_CACHE.clear()
    with pytest.raises(FuelExhausted):
        straighten_graph(6, ((1, 3), (2, 4), (2, 5), (4, 6)))


def test_straightening_refuses_rewrites_over_the_work_budget():
    # a rewrite builds two graphs of the call's edge count: the fully crossing
    # matching {i, i + m} has 2m units a rewrite, and its rewrites grow about
    # 4.5-fold with m (19,150 at m = 9, 423,330 at m = 11)
    cache = ir.GLOBAL_CACHE
    try:
        for m, allowed in ((9, 13_888), (11, 11_363)):
            cache.clear()
            with pytest.raises(ValueError, match=(
                    f"^straightening at n={2 * m} after {allowed} rewrites needs "
                    f"{2 * m * (allowed + 1)} units of work, over the budget of 250000$")):
                straighten_graph(2 * m, tuple((i, i + m) for i in range(1, m + 1)))
            assert cache.stats()["rewrites"] == allowed
        cache.clear()
        straighten_graph(16, tuple((i, i + 8) for i in range(1, 9)))
        assert cache.stats()["rewrites"] == 4239
    finally:
        cache.clear()


def test_concurrent_straightening_shares_cache():
    keys = list(enumerate_matchings(8))[:40]

    def work(m):
        return straighten_graph(8, m)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, keys))
    for m, got in zip(keys, results):
        assert got == straighten_graph(8, m)


def test_cache_stats_move():
    cache = ir.GLOBAL_CACHE
    cache.clear()
    straighten_graph(6, ((1, 3), (2, 5), (4, 6)))
    assert cache.stats()["entries"] > 0
    first = cache.stats()["misses"]
    straighten_graph(6, ((1, 3), (2, 5), (4, 6)))
    assert cache.stats()["misses"] == first
    assert cache.stats()["hits"] >= 1


def test_expansions_do_not_depend_on_memo_history():
    # every column of relation_matrix(8, 3), straightened in basis order, in
    # reverse order and each from a cleared cache: what a call stores and
    # what it recomputes must agree
    graphs = [_y_product(mono)[1] for mono in sym_basis(8, 3)]
    cache = ir.GLOBAL_CACHE
    try:
        cache.clear()
        forward = [straighten_graph(8, g) for g in graphs]
        cache.clear()
        backward = [straighten_graph(8, g) for g in reversed(graphs)][::-1]
        cold = []
        for g in graphs:
            cache.clear()
            cold.append(straighten_graph(8, g))
    finally:
        cache.clear()
    assert forward == backward == cold
    # Plucker children have sign +1, so coefficients only add up
    assert all(type(c) is int and c > 0 for e in forward for c in e.values())


def test_an_intermediate_is_stored_on_its_second_use():
    # both graphs rewrite their first crossing pair into h, which crosses at
    # (5, 7), (6, 8); the first call lets h go, the second rewrites it again
    # and stores it
    h = ((1, 2), (3, 4), (5, 7), (6, 8))
    cache = ir.GLOBAL_CACHE
    cache.clear()
    try:
        straighten_graph(8, ((1, 3), (2, 4), (5, 7), (6, 8)))
        assert h not in cache.memo and hash(h) in cache.seen
        assert cache.stats()["rewrites"] == 3
        straighten_graph(8, ((1, 5), (2, 7), (3, 4), (6, 8)))
        assert cache.stats()["rewrites"] == 6
        assert cache.memo[h] == {((1, 2), (3, 4), (5, 6), (7, 8)): 1,
                                 ((1, 2), (3, 4), (5, 8), (6, 7)): 1}
    finally:
        cache.clear()
    assert not cache.seen
    assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0, "rewrites": 0}


def test_expansion_does_not_depend_on_n():
    # the memo is keyed by the graph alone; a 6-vertex graph read on 8 labels
    # (7 and 8 isolated) must expand the same way
    matchings = list(enumerate_matchings(6))
    two_regular = [tuple(sorted(m1 + m2))
                   for m1, m2 in itertools.combinations_with_replacement(matchings, 2)]
    for key in matchings + two_regular:
        ir.GLOBAL_CACHE.clear()
        on_six = straighten_graph(6, key)
        ir.GLOBAL_CACHE.clear()
        assert straighten_graph(8, key) == on_six
