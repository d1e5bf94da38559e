import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plucker.exact_linalg import IncrementalSpan, matvec
from plucker.figures import (
    degenerate_genseg8_datum,
    genseg6_datum,
    square_rotation_even_datum,
)
from plucker.graph_core import WORK_BUDGET, catalan, enumerate_matchings, noncrossing_matchings
from plucker.cli import main
from plucker.invariant_ring import straighten, x_of
from plucker.relations import (
    BinomialQuadDatum,
    GenSegreDatum,
    SquareRotationDatum,
    SymElement,
    _column_table,
    coords_vector,
    count_good_bipartitions,
    evaluate_sym,
    generalized_segre,
    ideal_component_dim,
    ideal_kernel_basis,
    in_quadratic_ideal,
    kempe_factor,
    matching_ids,
    monomial_vector,
    outer_product,
    project_to_ring,
    quadratic_ideal_component,
    relation_matrix,
    segre8,
    segre_cubic,
    simple_binomial,
    simplest_binomial,
    square_rotation,
    sym_basis,
    sym_work,
)
from plucker.reports import random_config
from plucker.symmetry_rep import act_ring, act_sym, gr_dim, orbit_span_check
from support import multiply, to_coords, y_of


def test_project_examples():
    m = ((1, 2), (3, 4))
    e = SymElement.monomial(4, (m,))
    assert project_to_ring(e) == straighten(y_of(4, m))
    assert project_to_ring(segre_cubic()).is_zero()
    sq = SymElement.monomial(4, (m, m))
    doubled = straighten(x_of(4, [(1, 2), (3, 4), (1, 2), (3, 4)]))
    assert project_to_ring(sq) == doubled.scale(
        project_to_ring(sq).terms.get(((1, 2), (1, 2), (3, 4), (3, 4))) /
        doubled.terms.get(((1, 2), (1, 2), (3, 4), (3, 4))))


def test_segre_cubic_is_a_relation():
    s = segre_cubic()
    assert len(s.terms) == 2
    assert project_to_ring(s).is_zero()
    rng = random.Random(0)
    for _ in range(10):
        assert evaluate_sym(s, random_config(6, rng)) == 0


def test_segre_sign_twisted_action():
    # sigma . segre = sgn(sigma) * (segre built from the relabeled layers)
    from plucker.relations import recoloring_relation

    left = (((1, 2), (3, 6), (4, 5)), ((1, 4), (2, 3), (5, 6)),
            ((1, 6), (2, 5), (3, 4)))
    right = (((1, 4), (2, 5), (3, 6)), ((1, 2), (3, 4), (5, 6)),
             ((1, 6), (2, 3), (4, 5)))
    for a, b in itertools.combinations(range(1, 7), 2):
        sigma = {i: i for i in range(1, 7)} | {a: b, b: a}
        relabeled = recoloring_relation(
            6, [[(sigma[x], sigma[y]) for x, y in m] for m in left],
            [[(sigma[x], sigma[y]) for x, y in m] for m in right])
        assert act_sym(sigma, segre_cubic()) == relabeled.scale(-1)


def test_equivariance_of_projection():
    rng = random.Random(1)
    matchings = enumerate_matchings(6)
    for _ in range(20):
        mono = tuple(rng.choice(matchings) for _ in range(2))
        e = SymElement.monomial(6, mono, rng.randint(1, 5))
        img = list(range(1, 7))
        rng.shuffle(img)
        sigma = dict(zip(range(1, 7), img))
        lhs = project_to_ring(act_sym(sigma, e))
        rhs = straighten(act_ring(sigma, project_to_ring(e)))
        assert lhs == rhs


def test_simplest_binomial_examples():
    rel = simplest_binomial((1, 2, 6, 5), (3, 4, 8, 7))
    assert len(rel.terms) == 2 and not rel.is_zero()
    assert project_to_ring(rel).is_zero()
    # adding doubled edges keeps it a relation
    rel10 = simplest_binomial((1, 2, 6, 5), (3, 4, 8, 7), [(9, 10)])
    assert not rel10.is_zero() and project_to_ring(rel10).is_zero()
    with pytest.raises(ValueError):
        simplest_binomial((1, 2, 3, 4), (3, 5, 6, 7))


def test_simple_binomial_degenerate_cases():
    # all 2-cycles: recoloring is the identity on monomials
    m = ((1, 2), (3, 4), (5, 6), (7, 8))
    datum = BinomialQuadDatum(8, frozenset({1, 2, 3, 4}), m, m)
    assert simple_binomial(datum).is_zero()
    # only 4-cycle inside U: recoloring swaps the two layers
    l1 = ((1, 2), (3, 4), (5, 6), (7, 8))
    l2 = ((1, 3), (2, 4), (5, 6), (7, 8))
    datum = BinomialQuadDatum(8, frozenset({1, 2, 3, 4}), l1, l2)
    assert simple_binomial(datum).is_zero()
    # simplest datum agrees with the simplest_binomial constructor
    rel = simplest_binomial((1, 2, 6, 5), (3, 4, 8, 7))
    datum = BinomialQuadDatum(
        8, frozenset({3, 4, 7, 8}),
        layer1=((1, 2), (3, 4), (5, 6), (7, 8)),
        layer2=((1, 5), (2, 6), (3, 7), (4, 8)))
    assert simple_binomial(datum) == rel
    with pytest.raises(ValueError):
        BinomialQuadDatum(8, frozenset({1, 2, 3}), l1, l2).validate()


def test_simple_binomials_span_of_simplest_n8():
    # every simple binomial with U = {5,6,7,8} is a combination of simplest
    # binomials with the same U (exhaustive over the generating family)
    u = frozenset({5, 6, 7, 8})
    inside = enumerate_matchings(4)
    shift = {1: 5, 2: 6, 3: 7, 4: 8}
    inside8 = [tuple(sorted((shift[a], shift[b]) for a, b in m)) for m in inside]
    outside = enumerate_matchings(4)
    dim = len(sym_basis(8, 2))
    span = IncrementalSpan(dim)
    for m_in1, m_in2 in itertools.permutations(inside8, 2):
        for m_out1, m_out2 in itertools.permutations(outside, 2):
            datum = BinomialQuadDatum(
                8, u, tuple(sorted(m_out1 + m_in1)), tuple(sorted(m_out2 + m_in2)))
            span.add(coords_vector(simple_binomial(datum)))
    for m_in1, m_in2 in itertools.product(inside8, repeat=2):
        for m_out1, m_out2 in itertools.product(outside, repeat=2):
            datum = BinomialQuadDatum(
                8, u, tuple(sorted(m_out1 + m_in1)), tuple(sorted(m_out2 + m_in2)))
            rel = simple_binomial(datum)
            assert span.contains(coords_vector(rel))


def test_six_cycle_simple_binomial_in_simplest_span_n10():
    # a simple binomial whose graph has a 6-cycle outside U is a combination
    # of simplest binomials with the same U
    u = (7, 8, 9, 10)
    uset = frozenset(u)
    inside = [tuple(sorted(((u[a], u[b]), (u[c], u[d]))))
              for (a, b), (c, d) in (((0, 1), (2, 3)), ((0, 2), (1, 3)),
                                     ((0, 3), (1, 2)))]
    span = IncrementalSpan(len(sym_basis(10, 2)))
    for subset in itertools.combinations(range(1, 7), 4):
        rest = [v for v in range(1, 7) if v not in subset]
        doubled = (rest[0], rest[1])

        def lift(m):
            return tuple(sorted((subset[a - 1], subset[b - 1]) for a, b in m))

        for m1, m2 in itertools.permutations(enumerate_matchings(4), 2):
            for i1, i2 in itertools.permutations(inside, 2):
                l1 = tuple(sorted(lift(m1) + (doubled,) + i1))
                l2 = tuple(sorted(lift(m2) + (doubled,) + i2))
                span.add(coords_vector(simple_binomial(
                    BinomialQuadDatum(10, uset, l1, l2))))
    l1 = tuple(sorted(((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))))
    l2 = tuple(sorted(((2, 3), (4, 5), (1, 6), (7, 9), (8, 10))))
    rel = simple_binomial(BinomialQuadDatum(10, uset, l1, l2))
    assert not rel.is_zero()
    assert project_to_ring(rel).is_zero()
    assert span.contains(coords_vector(rel))


def test_ideal_dim_n10_matches_hook_length():
    from plucker.symmetry_rep import hook_length_dim

    # the only partition of 10 into exactly four even parts is 4+2+2+2
    assert ideal_component_dim(10, 2) == hook_length_dim((4, 2, 2, 2)) == 300


def test_generalized_segre_figure_datum():
    datum = genseg6_datum()
    datum.validate()
    assert not datum.is_degenerate()
    rel = generalized_segre(datum)
    assert project_to_ring(rel).is_zero()
    # proportional to the Segre cubic (Q is zero at n = 6)
    span = IncrementalSpan(len(sym_basis(6, 3)))
    span.add(coords_vector(rel))
    span.add(coords_vector(segre_cubic()))
    assert span.dim == 1
    rng = random.Random(2)
    for _ in range(10):
        assert evaluate_sym(rel, random_config(6, rng)) == 0


def test_generalized_segre_validation():
    datum = genseg6_datum()
    bad = GenSegreDatum(6, datum.u_red, datum.u_green, datum.u_blue,
                        red=((1, 2), (3, 5), (4, 6)),  # wrong color pattern
                        green=datum.green, blue=datum.blue)
    with pytest.raises(ValueError):
        bad.validate()


def test_degenerate_generalized_segre_lies_in_q():
    datum = degenerate_genseg8_datum()
    datum.validate()
    assert datum.is_degenerate()
    rel = generalized_segre(datum)
    assert project_to_ring(rel).is_zero()
    assert in_quadratic_ideal(rel)


def test_square_rotation():
    datum = square_rotation_even_datum()
    datum.validate()
    paths = datum.special_paths()
    assert sorted(len(p) for p in paths) == [4, 4]  # both even length
    rel = square_rotation(datum)
    assert project_to_ring(rel).is_zero()
    assert in_quadratic_ideal(rel)
    rng = random.Random(3)
    for _ in range(5):
        assert evaluate_sym(rel, random_config(8, rng)) == 0
    # minimal datum: purple cycles absent, the lift is a single monomial per side
    assert len(rel.terms) == 2
    with pytest.raises(ValueError):
        SquareRotationDatum(8, (1, 2, 3, 4),
                            purple=((1, 5), (5, 6), (2, 6), (3, 7), (7, 8), (4, 8)),
                            black=((5, 7), (6, 7))).validate()


def test_outer_product():
    s = segre_cubic()
    # the eight-point extension matches the explicit encoding
    s8 = segre8()
    assert s8.n == 8 and s8.degree == 3
    triple = tuple(sorted(m + ((7, 8),) for m in sorted(s.terms)[0]))
    assert triple in s8.terms
    assert project_to_ring(s8).is_zero()
    # a degree mismatch is rejected
    with pytest.raises(ValueError):
        outer_product(s, SymElement.monomial(2, (((1, 2),),) * 2))


def _embed(e, n, relabel):
    from plucker.graph_core import canonicalize
    from plucker.invariant_ring import RingElement

    items = []
    for key, c in e.terms.items():
        cf = canonicalize([(relabel[a], relabel[b]) for a, b in key])
        items.append((cf.graph, c * cf.sign))
    return RingElement.from_terms(n, items)


def test_outer_product_commutes_with_projection():
    rng = random.Random(7)
    keep = {i: i for i in range(1, 5)}
    shift = {i: i + 4 for i in range(1, 5)}
    for _ in range(10):
        ma = tuple(rng.choice(enumerate_matchings(4)) for _ in range(2))
        mb = tuple(rng.choice(enumerate_matchings(4)) for _ in range(2))
        a = SymElement.monomial(4, ma)
        b = SymElement.monomial(4, mb)
        prod = project_to_ring(outer_product(a, b))
        ra = _embed(project_to_ring(a), 8, keep)
        rb = _embed(project_to_ring(b), 8, shift)
        assert prod == straighten(multiply(ra, rb))


def test_outer_product_associative_and_projects():
    m2 = SymElement.monomial(2, (((1, 2),),) * 3)
    a = outer_product(outer_product(segre_cubic(), m2), m2)
    b = outer_product(segre_cubic(), outer_product(m2, m2))
    assert a == b and a.n == 10
    # relation (x) anything is still a relation
    rng = random.Random(4)
    for _ in range(5):
        layers = tuple(rng.choice(enumerate_matchings(2)) for _ in range(3))
        rel = outer_product(segre_cubic(), SymElement.monomial(2, layers))
        assert project_to_ring(rel).is_zero()
        assert evaluate_sym(rel, random_config(8, rng)) == 0


def test_ideal_dimensions_and_guards():
    assert ideal_component_dim(6, 2) == 0
    assert ideal_component_dim(8, 2) == 14
    assert ideal_component_dim(6, 3) == 1
    # within the work budget: I2_12, I3_10, and Q3_10 = I3_10, the source
    # paper's "quadrics generate the ideal" in degree 3 at n = 10
    assert ideal_component_dim(12, 2) == 4565
    assert ideal_component_dim(10, 3) == 8975
    assert quadratic_ideal_component(10)[1] == 8975


def _v12():
    return simplest_binomial((1, 2, 6, 5), (3, 4, 8, 7), doubled_rest=((9, 10), (11, 12)))


@pytest.mark.parametrize("call, estimate", [
    (lambda: ideal_component_dim(8, 6), 684096),
    (lambda: ideal_component_dim(14, 2), 1302756),
    (lambda: ideal_component_dim(12, 3), 7076520),
    (lambda: ideal_component_dim(4, 200), 96962400),
    (lambda: ideal_component_dim(2, 1000), 1002001000),
    (lambda: quadratic_ideal_component(12), 7076520),
    (lambda: gr_dim(8, (2, 2, 2, 2)), 2381820),
    (lambda: orbit_span_check(_v12()), 4565 * 8778),
])
def test_over_the_budget_is_refused_before_the_work(call, estimate):
    ideal_component_dim(12, 2)  # the orbit span's target, computed first
    start = time.perf_counter()
    with pytest.raises(ValueError) as refusal:  # not a RecursionError
        call()
    assert time.perf_counter() - start < 1.0
    assert f"needs {estimate} units of work, over the budget of {WORK_BUDGET}" \
        in str(refusal.value)


def test_sym_work_counts_edges_and_checks_its_input():
    # (C(n, 2) (k + 1)^2 + C(Catalan(n/2) + k - 1, k)) kn/2
    assert (sym_work(12, 2), sym_work(10, 3), sym_work(8, 5)) == (112464, 209460, 191520)
    for n, k in ((0, 1), (-4, 2), (7, 1), (6, 0)):
        with pytest.raises(ValueError, match="need even n >= 2 and k >= 1"):
            sym_work(n, k)


def test_ideal_kernel_is_segre_at_6_3():
    kernel = ideal_kernel_basis(6, 3)
    assert len(kernel) == 1
    k, vec = kernel[0], coords_vector(segre_cubic())
    assert k.keys() == vec.keys(), "supports differ"
    assert len({Fraction(vec[c], k[c]) for c in k}) == 1
    # at (10, 2): 300 independent sparse vectors, each annihilated
    m = relation_matrix(10, 2)
    kernel = ideal_kernel_basis(10, 2)
    assert len(kernel) == 300
    span = IncrementalSpan(m.cols)
    for v in kernel:
        assert all(v.values())
        assert matvec(m, v) == {}
        assert span.add(v)


def test_sym2_dimension_formula():
    for n in (6, 8, 10):
        cat = catalan(n // 2)
        assert len(sym_basis(n, 2)) == cat * (cat + 1) // 2
    assert len(sym_basis(6, 3)) == 35


def test_hook_cross_check_for_i2_8():
    from plucker.symmetry_rep import hook_length_dim

    assert ideal_component_dim(8, 2) == hook_length_dim((2, 2, 2, 2))


def test_orbit_span_checks():
    rel = simplest_binomial((1, 2, 6, 5), (3, 4, 8, 7))
    rank, spans = orbit_span_check(rel)
    assert (rank, spans) == (14, True)
    rank, spans = orbit_span_check(segre_cubic())
    assert (rank, spans) == (1, True)
    assert orbit_span_check(SymElement.zero(6, 2)) == (0, True)  # I2_6 = 0
    assert orbit_span_check(SymElement.zero(8, 2)) == (0, False)
    with pytest.raises(ValueError):
        orbit_span_check(SymElement.monomial(6, (((1, 2), (3, 4), (5, 6)),) * 2))


def test_quadratic_ideal_component():
    vecs, dim = quadratic_ideal_component(6)
    assert dim == 0 and not vecs
    vecs, dim = quadratic_ideal_component(8)
    assert dim == 196
    assert ideal_component_dim(8, 3) == 196


def test_quadratic_ideal_vectors_are_integer_and_span_the_v_multiples():
    vecs, dim = quadratic_ideal_component(8)
    assert all(type(x) is int for vec in vecs for x in vec.values())
    # the V-multiples of the kernel vectors, built directly
    basis2, basis3 = sym_basis(8, 2), sym_basis(8, 3)
    index3 = {m: i for i, m in enumerate(basis3)}
    multiples = [{index3[tuple(sorted(basis2[j] + (v,)))]: c for j, c in q.items()}
                 for v in noncrossing_matchings(8) for q in ideal_kernel_basis(8, 2)]
    assert len(multiples) == len(vecs)
    ints, fractions = IncrementalSpan(len(basis3)), IncrementalSpan(len(basis3))
    for vec in vecs:
        ints.add(vec)
    for vec in multiples:
        fractions.add(vec)
    assert ints.dim == fractions.dim == dim == 196
    assert all(ints.contains(vec) for vec in multiples)


def test_quadratic_ideal_span_is_built_once_and_shared():
    from plucker.relations import _quadratic_ideal_span

    vecs, dim = quadratic_ideal_component(8)
    builds = _quadratic_ideal_span.cache_info().misses
    count = len(vecs)
    vecs[0].clear()
    vecs.clear()
    assert in_quadratic_ideal(square_rotation(square_rotation_even_datum()))
    layer = ((1, 2), (3, 4), (5, 6), (7, 8))
    assert not in_quadratic_ideal(SymElement.monomial(8, (layer,) * 3))
    vecs, dim = quadratic_ideal_component(8)
    assert (len(vecs), dim) == (count, 196) and all(vecs)
    assert _quadratic_ideal_span.cache_info().misses == builds
    with pytest.raises(ValueError):
        in_quadratic_ideal(SymElement.monomial(8, (layer,) * 2))


def test_count_good_bipartitions():
    assert count_good_bipartitions(10) == 25
    assert count_good_bipartitions(12) == 112
    with pytest.raises(ValueError):
        count_good_bipartitions(8)


def test_evaluate_sym_matches_projection():
    rng = random.Random(5)
    matchings = enumerate_matchings(6)
    from plucker.invariant_ring import evaluate

    for _ in range(20):
        mono = tuple(rng.choice(matchings) for _ in range(2))
        e = SymElement.monomial(6, mono, Fraction(rng.randint(1, 4), 3))
        p = random_config(6, rng)
        assert evaluate_sym(e, p) == evaluate(project_to_ring(e), p)


def test_sym_element_json_round_trip():
    s = segre_cubic().scale(Fraction(3, 2))
    assert SymElement.from_json(s.to_json()) == s
    # exact coefficients only, and layers must be perfect matchings of 1..n
    obj = json.loads(s.to_json())
    for coeff in (0.1, True):
        obj["terms"][0]["coeff"] = coeff
        with pytest.raises(ValueError):
            SymElement.from_json(json.dumps(obj))
    with pytest.raises(ValueError):
        SymElement.from_terms(4, 1, [(([(1, 2), (3, 4), (5, 6)],), 1)])


def test_to_coords_agrees_with_projection():
    # coordinates recombine to the same ring element
    rng = random.Random(6)
    matchings = enumerate_matchings(6)
    for _ in range(10):
        mono = tuple(rng.choice(matchings) for _ in range(3))
        e = SymElement.monomial(6, mono)
        coords = to_coords(e)
        rebuilt = SymElement.from_terms(6, 3, list(coords.items()))
        assert project_to_ring(rebuilt) == project_to_ring(e)


def test_to_coords_of_an_integer_element_are_ints():
    rng = random.Random(5)
    matchings = enumerate_matchings(8)
    for _ in range(10):
        e = SymElement.from_terms(8, 2, [
            (tuple(rng.choice(matchings) for _ in range(2)), 3),
            (tuple(rng.choice(matchings) for _ in range(2)), Fraction(-4, 2))])
        coords = to_coords(e)
        assert coords and all(type(c) is int and c for c in coords.values())
        halves = to_coords(e.scale(Fraction(1, 2)))
        assert all(type(c) is Fraction for c in halves.values())
        assert halves == {k: Fraction(c, 2) for k, c in coords.items()}


def test_to_coords_with_fractional_coefficients():
    # integer accumulation over a common denominator, checked by evaluation
    rng = random.Random(7)
    matchings = enumerate_matchings(8)
    for _ in range(10):
        e = SymElement.from_terms(8, 2, [
            (tuple(rng.choice(matchings) for _ in range(2)), Fraction(1, 2)),
            (tuple(rng.choice(matchings) for _ in range(2)), Fraction(-3, 4))])
        coords = to_coords(e)
        assert coords and all(isinstance(c, Fraction) and c for c in coords.values())
        rebuilt = SymElement.from_terms(8, 2, list(coords.items()))
        for _ in range(3):
            p = random_config(8, rng)
            assert evaluate_sym(rebuilt, p) == evaluate_sym(e, p)


@st.composite
def _sym_elements(draw):
    """A few terms of k layers, each a perfect matching of 1..n (crossing or
    not) with its edges in any order and direction, and int or Fraction
    coefficients."""
    n = draw(st.sampled_from((4, 6, 8, 10)))
    k = draw(st.integers(1, 3))
    coeff = st.one_of(st.integers(-6, 6),
                      st.fractions(-3, 3, max_denominator=6))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        layers = []
        for _ in range(k):
            labels = draw(st.permutations(range(1, n + 1)))
            layers.append(list(zip(labels[::2], labels[1::2])))
        terms.append((layers, draw(coeff)))
    return SymElement.from_terms(n, k, terms)


@settings(max_examples=60, deadline=None)
@given(_sym_elements())
def test_coords_vector_matches_the_monomial_keyed_oracle(e):
    column = {mono: j for j, mono in enumerate(sym_basis(e.n, e.degree))}
    want = {column[key]: c for key, c in to_coords(e).items()}
    got = coords_vector(e)
    assert got == want
    # the number rule: the same type per entry, int when the denominator is 1
    assert {j: type(c) for j, c in got.items()} == {j: type(c) for j, c in want.items()}
    for mono in e.terms:
        assert monomial_vector(e.n, mono) == coords_vector(SymElement.monomial(e.n, mono))


@pytest.mark.parametrize("n, k", [(6, 1), (6, 3), (8, 2), (8, 3), (10, 2)])
def test_column_table_follows_sym_basis_order(n, k):
    ids, table = matching_ids(n), _column_table(n, k)
    size = len(noncrossing_matchings(n))
    assert sum(len(row) for row in table.values()) == size * comb(size + k - 2, k - 1)
    for j, mono in enumerate(sym_basis(n, k)):
        key = sorted(ids[m] for m in mono)
        for i in range(k):
            assert table[tuple(key[:i] + key[i + 1:])][key[i]] == j


_R6, _G6, _B6 = genseg6_datum().red, genseg6_datum().green, genseg6_datum().blue
_SQ = square_rotation_even_datum()
_F = frozenset
_EVEN10 = ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))
# Every message of the two validators, each reached by the input named; the
# texts were read at the code before the data kept one part map and took the
# purple paths as components.
VALIDATE_MESSAGES = [
    ("odd part", GenSegreDatum(6, _F({3, 4, 5}), _F({1, 2}), _F({6}), _R6, _G6, _B6),
     "part red must be even and nonempty"),
    ("empty part", GenSegreDatum(4, _F({3, 4}), _F({1, 2}), _F(), *(((1, 2), (3, 4)),) * 3),
     "part blue must be even and nonempty"),
    ("overlapping parts", GenSegreDatum(6, _F({1, 2}), _F({1, 2}), _F({5, 6}), _R6, _G6, _B6),
     "parts must partition the labels"),
    ("a part outside 1..n", GenSegreDatum(6, _F({3, 4}), _F({1, 2}), _F({5, 7}), _R6, _G6, _B6),
     "parts must partition the labels"),
    ("parts short of 1..n", GenSegreDatum(8, _F({3, 4}), _F({1, 2}), _F({5, 6}), _R6, _G6, _B6),
     "parts must partition the labels"),
    ("a layer that is no matching",
     GenSegreDatum(6, _F({3, 4}), _F({1, 2}), _F({5, 6}), ((1, 5), (2, 6)), _G6, _B6),
     "not a perfect matching: ((1, 5), (2, 6))"),
    ("a matching of fewer labels",
     GenSegreDatum(6, _F({3, 4}), _F({1, 2}), _F({5, 6}), ((1, 2), (3, 4)), _G6, _B6),
     "red is not a perfect matching of 1..6"),
    ("a loop in a layer",
     GenSegreDatum(6, _F({3, 4}), _F({1, 2}), _F({5, 6}), _R6, ((1, 1), (3, 5), (4, 6)), _B6),
     "loop in matching"),
    ("an edge of the wrong color",
     GenSegreDatum(6, _F({3, 4}), _F({1, 2}), _F({5, 6}), ((1, 2), (3, 5), (4, 6)), _G6, _B6),
     "edge (3,5) between red,blue must be green, got red"),
    # an odd number of edges between two parts needs one of the wrong color
    ("one blue edge between red and green",
     GenSegreDatum(6, _F({3, 4}), _F({1, 2}), _F({5, 6}), _R6, _G6, ((1, 3), (2, 5), (4, 6))),
     "edge (2,5) between green,blue must be red, got blue"),
    ("three blue edges between red and green",
     GenSegreDatum(10, _F({1, 2, 3, 4}), _F({5, 6, 7, 8}), _F({9, 10}), _EVEN10, _EVEN10,
                   ((1, 5), (2, 6), (3, 7), (4, 9), (8, 10))),
     "edge (8,10) between green,blue must be red, got blue"),
    ("four blue edges between red and green",
     GenSegreDatum(10, _F({1, 2, 3, 4}), _F({5, 6, 7, 8}), _F({9, 10}), _EVEN10, _EVEN10,
                   ((1, 5), (2, 6), (3, 7), (4, 8), (9, 10))),
     "4 edges between ['green', 'red'], need 0 or 2"),
    ("three labels in U", SquareRotationDatum(8, (1, 2, 3), _SQ.purple, _SQ.black),
     "U = [1, 2, 3] must be 4 distinct labels in 1..8"),
    ("five labels in U", SquareRotationDatum(8, (1, 2, 3, 4, 5), _SQ.purple, _SQ.black),
     "U = [1, 2, 3, 4, 5] must be 4 distinct labels in 1..8"),
    ("a repeated label in U", SquareRotationDatum(8, (1, 2, 3, 3), _SQ.purple, _SQ.black),
     "U = [1, 2, 3, 3] must be 4 distinct labels in 1..8"),
    ("a label of U above n", SquareRotationDatum(8, (1, 2, 3, 9), _SQ.purple, _SQ.black),
     "U = [1, 2, 3, 9] must be 4 distinct labels in 1..8"),
    ("a label 0 in U", SquareRotationDatum(8, (0, 2, 3, 4), _SQ.purple, _SQ.black),
     "U = [0, 2, 3, 4] must be 4 distinct labels in 1..8"),
    ("black valence 2", SquareRotationDatum(8, (1, 2, 3, 4), _SQ.purple, ((5, 7), (6, 7))),
     "valences at 7: purple 2 black 2"),
    ("purple valence 2 on U",
     SquareRotationDatum(8, (1, 2, 3, 4), _SQ.purple + ((1, 2),), _SQ.black),
     "valences at 1: purple 2 black 0"),
    ("black on U", SquareRotationDatum(8, (1, 2, 3, 4), _SQ.purple, _SQ.black + ((1, 2),)),
     "valences at 1: purple 1 black 1"),
    ("U off a path end", SquareRotationDatum(8, (1, 2, 3, 5), _SQ.purple, _SQ.black),
     "valences at 4: purple 1 black 0"),
]


@pytest.mark.parametrize("datum, message", [case[1:] for case in VALIDATE_MESSAGES],
                         ids=[case[0] for case in VALIDATE_MESSAGES])
def test_validate_messages_are_pinned(datum, message):
    with pytest.raises(ValueError) as exc:
        datum.validate()
    assert str(exc.value) == message


def _relabelled(datum, image):
    """The datum with label v renamed image[v - 1]."""
    moved = dict(zip(range(1, datum.n + 1), image))

    def move(edges):
        return tuple(sorted(tuple(sorted((moved[a], moved[b]))) for a, b in edges))

    if isinstance(datum, GenSegreDatum):
        return GenSegreDatum(datum.n, *(_F(moved[v] for v in p) for p in datum.parts().values()),
                             move(datum.red), move(datum.green), move(datum.blue))
    return SquareRotationDatum(datum.n, tuple(moved[v] for v in datum.u),
                               move(datum.purple), move(datum.black))


_FIGURE_DATA = (genseg6_datum(), degenerate_genseg8_datum(), square_rotation_even_datum())


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(_FIGURE_DATA).flatmap(
    lambda d: st.tuples(st.just(d), st.permutations(range(1, d.n + 1)))))
def test_relabelled_figure_data_keep_their_rules(case):
    datum, image = case
    moved = _relabelled(datum, image)
    moved.validate()
    if isinstance(datum, GenSegreDatum):
        assert moved.is_degenerate() == datum.is_degenerate()
        rel = generalized_segre(moved)
    else:
        assert sorted(moved.special_paths()) == sorted(
            sorted(image[v - 1] for v in path) for path in datum.special_paths())
        rel = square_rotation(moved)
    assert project_to_ring(rel).is_zero()


# Constructor outputs captured from the code before the relation layers were
# merged; the element JSON must stay byte-for-byte the same.
_GS6 = {"UR": [3, 4], "UG": [1, 2], "UB": [5, 6], "red": [[1, 5], [2, 6], [3, 4]],
        "green": [[1, 2], [3, 5], [4, 6]], "blue": [[1, 3], [2, 4], [5, 6]]}
_GS8 = {"UR": [3, 4], "UG": [1, 2], "UB": [5, 6, 7, 8],
        "red": [[1, 2], [3, 4], [5, 6], [7, 8]], "green": [[1, 2], [3, 5], [4, 6], [7, 8]],
        "blue": [[1, 3], [2, 4], [5, 7], [6, 8]]}
_SIMPLEST = {"cycleA": [1, 2, 6, 5], "cycleB": [3, 4, 8, 7]}
_SIMPLE = {"n": 8, "U": [5, 6, 7, 8], "color1": [[1, 2], [3, 4], [5, 6], [7, 8]],
           "color2": [[1, 4], [2, 3], [5, 7], [6, 8]]}
_SQUARE = {"n": 8, "U": [1, 2, 3, 4], "purple": [[1, 5], [5, 6], [2, 6], [3, 7], [7, 8], [4, 8]],
           "black": [[5, 7], [6, 8]]}
GOLDEN_CONSTRUCTIONS = [
    ("segre", None,
     '{"degree":3,"n":6,"terms":[{"coeff":"1","monomial":[[[1,2],[3,4],[5,6]],'
     '[[1,4],[2,5],[3,6]],'
     '[[1,6],[2,3],[4,5]]]},{"coeff":"1","monomial":[[[1,2],[3,6],[4,5]],'
     '[[1,4],[2,3],[5,6]],[[1,6],[2,5],[3,4]]]}]}'),
    ("segre8", None,
     '{"degree":3,"n":8,"terms":[{"coeff":"1","monomial":[[[1,2],[3,4],[5,6],[7,8]],'
     '[[1,4],[2,5],[3,6],[7,8]],'
     '[[1,6],[2,3],[4,5],[7,8]]]},{"coeff":"1","monomial":[[[1,2],[3,6],[4,5],[7,8]],'
     '[[1,4],[2,3],[5,6],[7,8]],[[1,6],[2,5],[3,4],[7,8]]]}]}'),
    ("simplest", _SIMPLEST,
     '{"degree":2,"n":8,"terms":[{"coeff":"1","monomial":[[[1,2],[3,4],[5,6],[7,8]],'
     '[[1,5],[2,6],[3,7],[4,8]]]},{"coeff":"-1","monomial":[[[1,2],[3,7],[4,8],[5,6]],'
     '[[1,5],[2,6],[3,4],[7,8]]]}]}'),
    ("simplest", {**_SIMPLEST, "doubled_rest": [[9, 10]]},
     '{"degree":2,"n":10,"terms":[{"coeff":"1","monomial":[[[1,2],[3,4],[5,6],[7,8],[9,10]],'
     '[[1,5],[2,6],[3,7],[4,8],[9,10]]]},{"coeff":"-1","monomial":[[[1,2],[3,7],[4,8],[5,6],[9,10]],'
     '[[1,5],[2,6],[3,4],[7,8],[9,10]]]}]}'),
    ("simple", _SIMPLE,
     '{"degree":2,"n":8,"terms":[{"coeff":"1","monomial":[[[1,2],[3,4],[5,6],[7,8]],'
     '[[1,4],[2,3],[5,7],[6,8]]]},{"coeff":"-1","monomial":[[[1,2],[3,4],[5,7],[6,8]],'
     '[[1,4],[2,3],[5,6],[7,8]]]}]}'),
    ("generalized-segre", _GS6,
     '{"degree":3,"n":6,"terms":[{"coeff":"1","monomial":[[[1,2],[3,4],[5,6]],'
     '[[1,4],[2,6],[3,5]],'
     '[[1,5],[2,4],[3,6]]]},{"coeff":"-1","monomial":[[[1,2],[3,4],[5,6]],'
     '[[1,5],[2,6],[3,4]],'
     '[[1,6],[2,4],[3,5]]]},{"coeff":"1","monomial":[[[1,2],[3,5],[4,6]],'
     '[[1,3],[2,4],[5,6]],[[1,5],[2,6],[3,4]]]}]}'),
    ("generalized-segre", _GS8,
     '{"degree":3,"n":8,"terms":[{"coeff":"1","monomial":[[[1,2],[3,4],[5,6],[7,8]],'
     '[[1,2],[3,5],[4,6],[7,8]],'
     '[[1,3],[2,4],[5,7],[6,8]]]},{"coeff":"-1","monomial":[[[1,2],[3,4],[5,7],[6,8]],'
     '[[1,2],[3,5],[4,6],[7,8]],[[1,3],[2,4],[5,6],[7,8]]]}]}'),
    ("square-rotation", _SQUARE,
     '{"degree":3,"n":8,"terms":[{"coeff":"-1","monomial":[[[1,2],[3,4],[5,6],[7,8]],'
     '[[1,4],[2,3],[5,7],[6,8]],'
     '[[1,5],[2,6],[3,7],[4,8]]]},{"coeff":"1","monomial":[[[1,2],[3,4],[5,7],[6,8]],'
     '[[1,4],[2,3],[5,6],[7,8]],[[1,5],[2,6],[3,7],[4,8]]]}]}'),
]
GOLDEN_KEMPE = [
    (4, [(1, 2), (3, 4)],
     '{"n": 4, "degree": 1, "terms": [{"coeff": "1", "monomial": [[[1, 2], [3, 4]]]}]}'),
    (4, [(1, 2), (3, 4), (1, 3), (2, 4)],
     '{"n": 4, "degree": 2, "terms": [{"coeff": "-1", "monomial": [[[1, 2], [3, 4]],'
     ' [[1, 3], [2, 4]]]}]}'),
    (6, [(1, 2), (4, 5), (1, 6), (3, 6), (3, 4), (2, 5)],
     '{"n": 6, "degree": 2, "terms": [{"coeff": "1", "monomial": [[[1, 2], [3, 6], [4, 5]],'
     ' [[1, 6], [2, 5], [3, 4]]]}]}'),
    (6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],
     '{"n": 6, "degree": 2, "terms": [{"coeff": "1", "monomial": [[[1, 4], [2, 5], [3, 6]],'
     ' [[1, 4], [2, 5], [3, 6]]]}, {"coeff": "1", "monomial": [[[1, 4], [2, 5], [3, 6]],'
     ' [[1, 4], [2, 6], [3, 5]]]}, {"coeff": "1", "monomial": [[[1, 4], [2, 5], [3, 6]],'
     ' [[1, 5], [2, 4], [3, 6]]]}, {"coeff": "1", "monomial": [[[1, 4], [2, 5], [3, 6]],'
     ' [[1, 6], [2, 5], [3, 4]]]}, {"coeff": "1", "monomial": [[[1, 4], [2, 6], [3, 5]],'
     ' [[1, 5], [2, 4], [3, 6]]]}, {"coeff": "1", "monomial": [[[1, 4], [2, 6], [3, 5]],'
     ' [[1, 6], [2, 5], [3, 4]]]}, {"coeff": "1", "monomial": [[[1, 5], [2, 4], [3, 6]],'
     ' [[1, 6], [2, 5], [3, 4]]]}, {"coeff": "-1", "monomial": [[[1, 5], [2, 6], [3, 4]],'
     ' [[1, 6], [2, 4], [3, 5]]]}]}'),
]


def test_constructor_outputs_are_pinned(capsys):
    for kind, data, want in GOLDEN_CONSTRUCTIONS:
        argv = ["relation", "construct", kind, "--json"]
        if data is not None:
            argv += ["--data", json.dumps(data)]
        assert main(argv) == 0
        element = json.loads(capsys.readouterr().out)["element"]
        assert json.dumps(element, separators=(",", ":")) == want, (kind, data)
    for n, edges, want in GOLDEN_KEMPE:
        assert kempe_factor(n, edges).to_json() == want, edges
