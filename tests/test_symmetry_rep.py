import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plucker.graph_core import (
    canonicalize,
    enumerate_matchings,
    enumerate_noncrossing_regular,
    noncrossing_matchings,
    perm_sign_of_map,
)
from plucker.invariant_ring import RingElement, straighten_graph, x_of
from plucker import symmetry_rep
from plucker.exact_linalg import IncrementalSpan
from plucker.relations import (
    SymElement,
    component_partition_of_monomial,
    coords_vector,
    ideal_component_dim,
    monomial_vector,
    project_to_ring,
    segre8,
    segre_cubic,
    simplest_binomial,
    sym_basis,
)
from plucker.symmetry_rep import (
    SPACES,
    ClassFunction,
    act_ring,
    act_sym,
    character_of_action,
    character_table,
    class_size,
    decompose,
    even_partitions,
    expected_partition_set,
    filtration_dim,
    filtration_span,
    gr_dim,
    hook_length_dim,
    mn_character,
    orbit_closure,
    orbit_span_check,
    partitions,
    quadratic_ideal_irrep,
    refines,
)
from support import all_perms, inner_product, irreducible_character, matching_in_y_basis


def test_act_examples():
    # identity fixes everything
    ident = {i: i for i in range(1, 5)}
    e = SymElement.monomial(4, (((1, 2), (3, 4)),))
    assert act_sym(ident, e) == e
    # the transposition (1 2) fixes the matching but flips the sign
    swap = {1: 2, 2: 1, 3: 3, 4: 4}
    assert act_sym(swap, e) == e.scale(-1)
    r = x_of(4, [(1, 3), (2, 4)])
    assert act_ring(ident, r) == r
    assert act_ring(swap, r) == x_of(4, [(2, 3), (1, 4)])
    with pytest.raises(ValueError):
        act_sym({1: 1}, e)


def test_action_is_a_group_action():
    rng = random.Random(0)
    matchings = enumerate_matchings(6)
    labels = list(range(1, 7))
    for _ in range(20):
        img1, img2 = labels[:], labels[:]
        rng.shuffle(img1)
        rng.shuffle(img2)
        sig = dict(zip(labels, img1))
        tau = dict(zip(labels, img2))
        compose = {i: sig[tau[i]] for i in labels}
        e = SymElement.monomial(6, tuple(rng.choice(matchings) for _ in range(2)))
        assert act_sym(compose, e) == act_sym(sig, act_sym(tau, e))
        r = RingElement.from_terms(
            6, [(rng.choice(matchings), Fraction(rng.randint(1, 3)))])
        assert act_ring(compose, r) == act_ring(sig, act_ring(tau, r))


def test_mn_character_examples():
    for mu in partitions(5):
        assert mn_character((5,), mu) == 1
    for mu in partitions(4):
        parity = (-1) ** (4 - len(mu))
        assert mn_character((1, 1, 1, 1), mu) == parity
    assert mn_character((2, 2), (1, 1, 1, 1)) == 2
    with pytest.raises(ValueError, match=r"partitions of one n, got \(2, 1\) and \(4,\)"):
        mn_character((2, 1), (4,))


def test_mn_character_refuses_partitions_of_different_n():
    # with asserts stripped these returned 0 and 1 and raised an IndexError
    for lam, mu in (((1,), (2,)), ((2,), (1, 1, 1)), ((3,), (1,))):
        with pytest.raises(ValueError, match="mn_character needs partitions of one n"):
            mn_character(lam, mu)


def test_hook_length_examples():
    assert hook_length_dim((5, 1, 1, 1, 1, 1)) == 126
    assert hook_length_dim((4, 1, 1, 1, 1, 1, 1)) == 84
    assert hook_length_dim((4, 3, 1, 1, 1, 1, 1)) == 2079
    assert hook_length_dim((4, 4, 1, 1, 1, 1)) == 1925
    assert hook_length_dim((3, 3, 1, 1, 1, 1, 1, 1)) == 616


def test_hook_lengths_agree_with_mn_dimension():
    for n in range(1, 13):
        ones = (1,) * n
        for lam in partitions(n):
            assert hook_length_dim(lam) == mn_character(lam, ones)


def test_character_table_orthonormal():
    for n in (4, 5, 6, 7, 8):
        chars = {lam: irreducible_character(lam) for lam in partitions(n)}
        for lam, mu in itertools.combinations_with_replacement(partitions(n), 2):
            want = 1 if lam == mu else 0
            assert inner_product(chars[lam], chars[mu]) == want


def test_class_sizes_sum_to_group_order():
    from math import factorial

    for n in (3, 5, 8):
        assert sum(class_size(mu) for mu in partitions(n)) == factorial(n)


def test_decompose_regular_representation():
    # chi_reg(e) = |G|, zero elsewhere; multiplicities are the dimensions
    n = 3
    values = {mu: Fraction(0) for mu in partitions(n)}
    values[(1, 1, 1)] = Fraction(6)
    dec = decompose(ClassFunction(n, values))
    assert dec == {lam: hook_length_dim(lam) for lam in partitions(n)}
    with pytest.raises(ValueError):
        decompose(ClassFunction(n, {mu: Fraction(1, 2) for mu in partitions(n)}))


def test_character_table_rows_are_the_characters():
    for n in (1, 4, 7):
        table = character_table(n)
        assert table.classes == partitions(n)
        assert table.sizes == tuple(class_size(mu) for mu in partitions(n))
        for lam, row in zip(table.classes, table.rows):
            assert all(type(x) is int for x in row)
            assert row == tuple(irreducible_character(lam)(mu) for mu in partitions(n))
    assert character_table(6) is character_table(6)


def test_decompose_matches_inner_products():
    for n in range(2, 11, 2):
        for space in SPACES:
            chi = character_of_action(n, space)
            want = {}
            for lam in partitions(n):
                mult = inner_product(chi, irreducible_character(lam))
                assert mult.denominator == 1 and mult >= 0
                if mult:
                    want[lam] = int(mult)
            assert decompose(chi) == want, (n, space)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(min_value=0, max_value=5),
                                             min_size=len(partitions(n)),
                                             max_size=len(partitions(n))))))
def test_decompose_recovers_combinations(case):
    n, coeffs = case
    values = {mu: sum(c * mn_character(lam, mu) for lam, c in zip(partitions(n), coeffs))
              for mu in partitions(n)}
    chi = ClassFunction(n, values)
    assert decompose(chi) == {lam: c for lam, c in zip(partitions(n), coeffs) if c}
    # one more at the identity adds dim(lambda)/n! to every multiplicity
    bumped = dict(values)
    bumped[(1,) * n] += 1
    with pytest.raises(ValueError, match="not a non-negative integer"):
        decompose(ClassFunction(n, bumped))
    # minus the trivial character makes a negative multiplicity when it had none
    if coeffs[-1] == 0:
        lowered = {mu: v - 1 for mu, v in values.items()}
        with pytest.raises(ValueError, match="not a non-negative integer"):
            decompose(ClassFunction(n, lowered))


def test_v_character():
    chi = character_of_action(6, "V")
    assert chi((1, 1, 1, 1, 1, 1)) == 5  # dimension = Catalan(3)
    assert decompose(chi) == {(3, 3): 1}
    chi8 = character_of_action(8, "V")
    assert chi8((1,) * 8) == 14
    assert decompose(chi8) == {(4, 4): 1}


def _straightening_traces(n, perm):
    """Reference traces of perm on the five spaces, by straightening.

    V's matrix is the sign-twisted action on the non-crossing Y-basis; the
    traces on Sym^2 V and Lambda^2 V come from its entries, and R2's from
    straightening the relabeled non-crossing 2-regular graphs.
    """
    twist = perm_sign_of_map(perm)
    basis = noncrossing_matchings(n)
    col = {}
    for m in basis:
        img = canonicalize([(perm[a], perm[b]) for a, b in m]).graph
        col[m] = {g: twist * c for g, c in matching_in_y_basis(n, img).items()}
    entry = {(g, m): col[m].get(g, 0) for g in basis for m in basis}
    v = sum(entry[m, m] for m in basis)
    sym2 = sum(entry[m, m] ** 2 for m in basis)
    lam2 = 0
    for mi, mj in itertools.combinations(basis, 2):
        diag = entry[mi, mi] * entry[mj, mj]
        off = entry[mj, mi] * entry[mi, mj]
        sym2 += diag + off
        lam2 += diag - off
    r2 = 0
    for g in enumerate_noncrossing_regular(n, 2):
        cf = canonicalize([(perm[a], perm[b]) for a, b in g])
        r2 += cf.sign * straighten_graph(n, cf.graph).get(g, 0)
    return {"V": v, "Sym2V": sym2, "Lam2V": lam2, "R2": r2, "I2": sym2 - r2}


def test_characters_match_straightening_traces():
    for n in (4, 6, 8):
        chars = {space: character_of_action(n, space) for space in SPACES}
        for mu in partitions(n):
            # one cycle per part, on consecutive labels
            perm, start = {}, 1
            for part in mu:
                for i in range(part):
                    perm[start + i] = start + (i + 1) % part
                start += part
            want = _straightening_traces(n, perm)
            assert {space: chars[space](mu) for space in SPACES} == want, mu


def test_representation_table():
    for n in (6, 8, 10, 12):
        for space in ("Sym2V", "Lam2V", "R2", "I2"):
            dec = decompose(character_of_action(n, space))
            assert set(dec) == expected_partition_set(n, space)
            assert all(v == 1 for v in dec.values())
    # I2_14 has three parts whose dimensions sum to its measured rank
    chi = character_of_action(14, "I2")
    i2_14 = {(4, 4, 4, 2): 1, (6, 4, 2, 2): 1, (8, 2, 2, 2): 1}
    assert decompose(chi) == i2_14
    assert [hook_length_dim(lam) for lam in i2_14] == [12_012, 42_042, 7_644]
    assert chi((1,) * 14) == 61_698
    with pytest.raises(ValueError):
        character_of_action(16, "V")
    for n in (-2, 0, 7):
        with pytest.raises(ValueError):
            character_of_action(n, "V")
    with pytest.raises(ValueError):
        character_of_action(6, "nope")


def test_refinement_order():
    assert refines((2, 2, 2), (4, 2))
    assert refines((2, 2, 2), (6,))
    assert refines((4, 2), (6,))
    assert not refines((4, 4), (6, 2))
    assert not refines((6, 2), (4, 4))
    assert refines((4, 2), (4, 2))
    assert even_partitions(6) == ((2, 2, 2), (4, 2), (6,))


def test_gr_dims():
    assert gr_dim(4, (2, 2)) == 3
    assert gr_dim(4, (4,)) == 1
    assert gr_dim(6, (2, 2, 2)) == 15
    assert gr_dim(6, (4, 2)) == 15
    assert gr_dim(6, (6,)) == 5
    assert filtration_dim(6, (4, 2)) == 30
    # totals recover the symmetric power dimensions
    assert sum(gr_dim(4, p) for p in even_partitions(4)) == len(sym_basis(4, 3))
    assert sum(gr_dim(6, p) for p in even_partitions(6)) == 35
    with pytest.raises(ValueError):
        gr_dim(8, (2, 2, 2, 2))
    with pytest.raises(ValueError):
        gr_dim(6, (3, 3))


def _reference_span(n, parts):
    """Span of every degree-3 monomial with a component partition in parts,
    one ``SymElement`` at a time."""
    span = IncrementalSpan(len(sym_basis(n, 3)))
    for mono in itertools.combinations_with_replacement(enumerate_matchings(n), 3):
        if component_partition_of_monomial(n, mono) in parts:
            span.add(coords_vector(SymElement.monomial(n, mono)))
    return span


def test_filtration_matches_the_monomial_reference():
    for n in (4, 6):
        for p in even_partitions(n):
            below = {q for q in even_partitions(n) if refines(q, p)}
            want_f = _reference_span(n, below).dim
            want_gr = want_f - _reference_span(n, below - {p}).dim
            assert filtration_dim(n, p) == want_f, p
            assert gr_dim(n, p) == want_gr, p
            # each group alone, such as (6), which spans all of Sym^3 V_6
            assert filtration_span(n, [p]).dim == _reference_span(n, {p}).dim, p


def test_monomial_vector_is_coords_vector():
    for mono in itertools.combinations_with_replacement(enumerate_matchings(6), 3):
        assert monomial_vector(6, mono) == coords_vector(SymElement.monomial(6, mono))


def _is_benzene_union(n, mono):
    """Every component a benzene 2-, 4- or 6-cycle."""
    from collections import Counter

    multiplicity = Counter(e for m in mono for e in m)
    adj = {}
    for (a, b), k in multiplicity.items():
        adj.setdefault(a, []).append((b, k))
        adj.setdefault(b, []).append((a, k))
    seen = set()
    for start in adj:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(w for w, _ in adj[v])
        seen |= comp
        edges = [((a, b), k) for (a, b), k in multiplicity.items()
                 if a in comp]
        if len(comp) == 2:
            if edges[0][1] != 3:
                return False
            continue
        if len(comp) not in (4, 6) or len(edges) != len(comp):
            return False
        for v in comp:
            mults = sorted(k for _, k in adj[v])
            if mults != [1, 2]:
                return False
    return True


def test_benzene_monomials_span_sym3_v6():
    span = filtration_span(6, even_partitions(6))  # full space, for the size
    full = span.dim
    assert full == 35
    from plucker.exact_linalg import IncrementalSpan

    benzene = IncrementalSpan(len(sym_basis(6, 3)))
    count = 0
    for mono in itertools.combinations_with_replacement(enumerate_matchings(6), 3):
        if _is_benzene_union(6, mono):
            benzene.add(coords_vector(SymElement.monomial(6, mono)))
            count += 1
    assert count > 0 and benzene.dim == 35


def test_component_partition_of_monomial():
    m = ((1, 2), (3, 4), (5, 6))
    assert component_partition_of_monomial(6, (m, m, m)) == (2, 2, 2)
    hexagon = ((1, 2), (3, 4), (5, 6))
    other = ((2, 3), (4, 5), (1, 6))
    assert component_partition_of_monomial(6, (hexagon, hexagon, other)) == (6,)


# --- orbit spans: the isotypic certificate against the permutation scan --------

def _simplest(n):
    """The simplest binomial of two 4-cycles, doubled on (9, 10) at n = 10."""
    rest = ((9, 10),) if n == 10 else ()
    return simplest_binomial((1, 2, 6, 5), (3, 4, 8, 7), doubled_rest=rest)


def _scan_rank(rel, perms):
    """Rank of the orbit images under perms, grown in one span up to dim I^(2)."""
    target = ideal_component_dim(rel.n, rel.degree)
    span = IncrementalSpan(len(sym_basis(rel.n, rel.degree)))
    for sigma in perms:
        if span.dim == target:
            break
        span.add(coords_vector(act_sym(sigma, rel)))
    return span.dim


def _no_permutations(monkeypatch):
    def refuse(*_):
        raise AssertionError("the certificate route tried a permutation")
    monkeypatch.setattr(symmetry_rep, "act_sym", refuse)


def test_quadratic_ideal_irrep():
    assert quadratic_ideal_irrep(8) == (2, 2, 2, 2)
    assert quadratic_ideal_irrep(10) == (4, 2, 2, 2)
    assert quadratic_ideal_irrep(6) is None  # I2_6 = 0
    assert quadratic_ideal_irrep(4) is None


def test_certificate_agrees_with_the_scan_at_8():
    rel = _simplest(8)
    assert _scan_rank(rel, all_perms(8)) == 14
    assert orbit_span_check(rel) == (14, True)


def test_certificate_agrees_with_the_scan_at_10():
    # seeded random permutations into one span, as the orbit benchmark does
    rel = _simplest(10)
    rng = random.Random(0)

    def perms():
        for _ in range(1500):
            image = list(range(1, 11))
            rng.shuffle(image)
            yield dict(zip(range(1, 11), image))

    assert _scan_rank(rel, perms()) == 300
    assert orbit_span_check(rel) == (300, True)


def test_certificate_tries_no_permutation(monkeypatch):
    _no_permutations(monkeypatch)
    assert orbit_span_check(_simplest(8)) == (14, True)
    assert orbit_span_check(_simplest(10)) == (300, True)
    # the certificate still needs a relation: a square projects to nonzero
    for n in (8, 10):
        m = tuple((i, i + 1) for i in range(1, n, 2))
        with pytest.raises(ValueError, match="not a relation"):
            orbit_span_check(SymElement.monomial(n, (m, m)))


def test_degree_three_grows_the_closure(monkeypatch):
    calls = []

    def counted(sigma, e):
        calls.append(sigma)
        return act_sym(sigma, e)

    monkeypatch.setattr(symmetry_rep, "act_sym", counted)
    # the Segre cubic spans I3_6 alone, so no image is needed
    assert orbit_span_check(segre_cubic()) == (1, True)
    assert not calls
    # two images per dimension, each under one of the two generators
    assert orbit_span_check(segre8()) == (21, False)
    assert len(calls) == 2 * 21
    assert {tuple(sigma.values()) for sigma in calls} == {
        (2, 1, 3, 4, 5, 6, 7, 8), (2, 3, 4, 5, 6, 7, 8, 1)}


def _full_scan_rank(rel, perms):
    span = IncrementalSpan(len(sym_basis(rel.n, rel.degree)))
    for sigma in perms:
        span.add(coords_vector(act_sym(sigma, rel)))
    return span.dim


def test_closure_equals_the_full_scan():
    # no target: the closure runs until a pass adds nothing
    rel = segre_cubic()
    assert orbit_closure(rel, len(sym_basis(6, 3))).dim == \
        _full_scan_rank(rel, all_perms(6)) == 1
    v8 = _simplest(8)
    assert orbit_closure(v8, len(sym_basis(8, 2))).dim == \
        _scan_rank(v8, all_perms(8)) == 14


def test_segre8_orbit_closure():
    rel = segre8()
    target = ideal_component_dim(8, 3)
    start = time.perf_counter()
    assert orbit_span_check(rel) == (21, False)
    assert time.perf_counter() - start < 1.0
    assert target == 196
    # the closed span holds the orbit: seeded random images lie in it
    span = orbit_closure(rel, target)
    rng = random.Random(0)
    labels = list(range(1, 9))
    for _ in range(200):
        image = labels[:]
        rng.shuffle(image)
        assert span.contains(coords_vector(act_sym(dict(zip(labels, image)), rel)))


def test_zero_in_coordinates_does_not_certify(monkeypatch):
    # Y of a crossing matching times Y(m), minus its non-crossing expansion
    # times Y(m): nonzero terms, zero vector in Sym^2(V)
    crossing = ((1, 3), (2, 4), (5, 6), (7, 8))
    m = ((1, 2), (3, 4), (5, 6), (7, 8))
    expansion = matching_in_y_basis(8, crossing)
    rel = SymElement.from_terms(8, 2, [((crossing, m), 1)] + [
        ((g, m), -c) for g, c in expansion.items()])
    assert not rel.is_zero() and not coords_vector(rel)
    assert project_to_ring(rel).is_zero()
    _no_permutations(monkeypatch)
    assert orbit_span_check(rel) == (0, False)


def _partition_count(n: int) -> int:
    """p(n) by the coin-change recurrence over part sizes 1..n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def test_partitions_are_all_partitions_in_lex_order():
    for n in range(13):
        parts = partitions(n)
        assert len(parts) == _partition_count(n)
        assert all(sum(p) == n and list(p) == sorted(p, reverse=True) and 0 not in p
                   for p in parts)
        assert all(a < b for a, b in zip(parts, parts[1:]))


def _groupings(items):
    """Every set partition of ``items`` (a list), as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _groupings(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1:]


def test_refines_matches_the_grouping_oracle():
    # q <= p iff some grouping of q's parts has block sums equal to p's parts
    for n in range(9):
        for q in partitions(n):
            reachable = {tuple(sorted((sum(b) for b in blocks), reverse=True))
                         for blocks in _groupings(list(q))}
            for p in partitions(n):
                assert refines(q, p) == (p in reachable), (q, p)
