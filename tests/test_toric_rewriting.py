import itertools
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plucker.graph_core import connected_component_partition
from plucker.toric_rewriting import (
    CatWeighting,
    _dealt_form,
    balance,
    balance_triples,
    enumerate_reduced_matchings,
    is_balanced,
    normal_form,
    pairs_by_sum,
    quadratic_neighbors,
    reduced_matching,
    sum_weighting,
    toric_segre_move,
    type_vector,
)
from plucker.toric_trees import build_y_tree
from support import leaf_edge_weight, truncate, untruncate


def test_enumerate_reduced_matchings():
    ms3 = enumerate_reduced_matchings(3)
    assert len(ms3) == 5
    assert {m.stalks for m in ms3} == {
        (0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)}
    assert len(enumerate_reduced_matchings(4)) == 14
    assert len(enumerate_reduced_matchings(5)) == 42
    assert any(all(v == 0 for v in m.stalks + m.bases)
               for m in enumerate_reduced_matchings(5))


def test_printing_format():
    m = CatWeighting(5, (1, 0, 1, 1, 1), (1, 2))
    assert str(m) == "(1 | 0 1 1 2 1 | 1)"
    assert str(CatWeighting(3, (1, 1, 0), ())) == "(1 | 1 | 0)"


def test_tree_weighting_round_trip():
    # a reduced matching untruncates to a degree-one Y-tree weighting and back
    for r in (3, 4, 5):
        for m in enumerate_reduced_matchings(r):
            w = untruncate(m, 1)
            assert w.tree is build_y_tree(r)
            assert all(leaf_edge_weight(w, l) == 1 for l in w.tree.leaves())
            assert truncate(w) == (m, 1)


def test_cat_weighting_rejects_bad_shapes():
    for args, message in (((2, (0, 0), ()), "r >= 3"),
                          ((3, (1, 1), ()), "3 stalk values"),
                          ((4, (1, 1, 1, 1), ()), "1 base values"),
                          ((3, (1, -1, 0), ()), "non-negative")):
        with pytest.raises(ValueError, match=message):
            CatWeighting(*args)
    with pytest.raises(ValueError):
        normal_form(())


def test_sums_need_one_caterpillar():
    small = CatWeighting(3, (1, 1, 0), ())
    big = CatWeighting(4, (1, 1, 1, 1), (1,))
    with pytest.raises(ValueError, match="different r"):
        small + big
    with pytest.raises(ValueError, match="different r"):
        sum_weighting((big, small, big))
    with pytest.raises(ValueError, match="non-empty"):
        sum_weighting(())


def test_sum_weighting_is_the_fold_of_pairwise_sums():
    rng = random.Random(2)
    for _ in range(100):
        pool = enumerate_reduced_matchings(rng.choice((3, 5, 7)))
        tup = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
        total = tup[0]
        for entry in tup[1:]:
            total = total + entry
        assert sum_weighting(tup) == total
        assert sum_weighting(list(tup)) == total


def test_is_balanced():
    a = CatWeighting(4, (1, 1, 0, 0), (0,))
    assert is_balanced((a,))
    big = CatWeighting(4, (1, 1, 1, 1), (2,))
    small = CatWeighting(4, (0, 0, 0, 0), (0,))
    assert not is_balanced((big, small))
    assert is_balanced(balance((big, small)))
    ok = CatWeighting(4, (1, 1, 1, 1), (1,))
    assert is_balanced((big, ok))


def test_balance_already_balanced_unchanged():
    pool = enumerate_reduced_matchings(4)
    rng = random.Random(0)
    for _ in range(50):
        tup = tuple(rng.sample(pool, 2))
        if is_balanced(tup) and \
                max(e.stalks[0] for e in tup) - min(e.stalks[0] for e in tup) <= 1 \
                and max(e.stalks[3] for e in tup) - min(e.stalks[3] for e in tup) <= 1:
            assert balance(tup) == tup


def test_balance_triple_example():
    # one application of the (a+1, b, c+1), (a-1, b, c-1) move
    assert balance_triples([(0, 0, 0), (2, 1, 2)]) == [(1, 0, 1), (1, 1, 1)]
    # through the public API on the third caterpillar
    a = CatWeighting(3, (0, 0, 0), ())
    b = CatWeighting(3, (2, 1, 2), ())
    assert balance((a, b)) == (CatWeighting(3, (1, 0, 1), ()),
                               CatWeighting(3, (1, 1, 1), ()))


def test_balance_preserves_sums():
    rng = random.Random(1)
    for _ in range(200):
        r = rng.choice((3, 4, 5, 6))
        pool = enumerate_reduced_matchings(r)
        tup = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        out = balance(tup)
        assert sum_weighting(out) == sum_weighting(tup)
        assert is_balanced(out)
        for entry in out:
            assert entry.is_admissible()


def test_is_unbreakable():
    assert not CatWeighting(4, (0, 0, 0, 0), (0,)).is_unbreakable()
    assert CatWeighting(4, (1, 1, 1, 1), (1,)).is_unbreakable()
    # no base edges on the third caterpillar: vacuously unbreakable
    assert CatWeighting(3, (0, 0, 0), ()).is_unbreakable()


def test_type_vector_examples():
    t1 = CatWeighting(3, (1, 1, 1), ())
    t0 = CatWeighting(3, (0, 0, 0), ())
    assert type_vector((t1, t1, t0)) == ("A",)
    b1 = CatWeighting(3, (1, 1, 0), ())
    b2 = CatWeighting(3, (0, 1, 1), ())
    b3 = CatWeighting(3, (1, 0, 1), ())
    assert type_vector((b1, b2, b3)) == ("B",)
    assert type_vector((t0, t0, t0)) == (None,)


def test_toric_segre_move_example():
    # the defining relation on the third caterpillar
    tup = (CatWeighting(3, (1, 0, 1), ()),
           CatWeighting(3, (0, 1, 1), ()),
           CatWeighting(3, (1, 1, 0), ()))
    moved = toric_segre_move(tup, 2)
    assert sorted(moved) == [CatWeighting(3, (0, 0, 0), ()),
                             CatWeighting(3, (1, 1, 1), ()),
                             CatWeighting(3, (1, 1, 1), ())]
    assert sum_weighting(moved) == sum_weighting(tup)
    # applying the move twice returns the original multiset
    assert sorted(toric_segre_move(moved, 2)) == sorted(tup)
    with pytest.raises(ValueError):
        toric_segre_move((tup[0], tup[0], tup[0]), 2)


def test_toric_segre_move_flips_exactly_one_type():
    rng = random.Random(2)
    flips = 0
    while flips < 50:
        r = rng.choice((3, 4, 5))
        pool = enumerate_reduced_matchings(r)
        tup = tuple(rng.choice(pool) for _ in range(3))
        tv = type_vector(tup)
        spots = [v for v in range(2, r) if tv[v - 2] in ("A", "B")]
        if not spots:
            continue
        v = rng.choice(spots)
        moved = toric_segre_move(tup, v)
        tv2 = type_vector(moved)
        assert sum_weighting(moved) == sum_weighting(tup)
        assert {tv[v - 2], tv2[v - 2]} == {"A", "B"}
        for w in range(2, r):
            if w != v:
                assert tv[w - 2] == tv2[w - 2]
        flips += 1


def test_type_invariant_under_quadratic_moves_exhaustive():
    pool = enumerate_reduced_matchings(3)
    for tup in itertools.product(pool, repeat=3):
        tv = type_vector(tup)
        for nb in quadratic_neighbors(tup, pool):
            assert type_vector(nb) == tv


def test_quadratic_neighbors_match_brute_force_r3():
    pool = enumerate_reduced_matchings(3)
    position_sets = [(i,) for i in range(3)] + list(itertools.combinations(range(3), 2))
    for tup in itertools.product(pool, repeat=3):
        brute = set()
        for positions in position_sets:
            target = sum_weighting([tup[i] for i in positions])
            for combo in itertools.product(pool, repeat=len(positions)):
                if sum_weighting(combo) == target:
                    new = list(tup)
                    for pos, entry in zip(positions, combo):
                        new[pos] = entry
                    brute.add(tuple(new))
        brute.discard(tup)
        assert quadratic_neighbors(tup, pool) == brute


def _quadratic_components(tups, pool) -> dict:
    """Tuple -> the index of its component under quadratic moves within ``tups``,
    by the graph layer's union-find on the labels 1..len(tups)."""
    label = {t: i for i, t in enumerate(tups, 1)}
    moves = [(label[t], label[nb]) for t in tups
             for nb in quadratic_neighbors(t, pool) if nb in label]
    blocks, _ = connected_component_partition(len(tups), moves)
    block_of = {v: i for i, block in enumerate(blocks) for v in block}
    return {t: block_of[i] for t, i in label.items()}


def test_type_separates_quadratic_components_r4():
    """Exhaustive r=4 refinement of the type-invariance claim.

    Once base values above 1 appear, a quadratic move can change the literal
    A/B/None pattern, so naive invariance fails beyond the third caterpillar
    (see the companion test).  What does hold, exhaustively at r = 4: in
    every sum class that splits into more than one quadratic component, the
    type vector takes a constant value on each component and distinct values
    on distinct components.
    """
    pool = enumerate_reduced_matchings(4)
    by_sum = defaultdict(list)
    for t in itertools.product(pool, repeat=3):
        by_sum[sum_weighting(t)].append(t)
    split = 0
    for tups in by_sum.values():
        component = _quadratic_components(tups, pool)
        roots = set(component.values())
        if len(roots) == 1:
            continue
        split += 1
        type_to_root = {}
        for t in tups:
            tv = type_vector(t)
            root = component[t]
            assert type_to_root.setdefault(tv, root) == root
        assert len({type_to_root[tv] for tv in type_to_root}) == len(roots)
    assert split == 16


def test_type_not_invariant_beyond_matching_values():
    # documented boundary of the invariance: with a base value 2 in play, a
    # single sum-preserving pair move can connect an A-pattern to a None
    # pattern; such classes are single quadratic components, so nothing is
    # lost, but the literal pattern is not preserved there
    before = (CatWeighting(4, (0, 0, 0, 0), (0,)),
              CatWeighting(4, (0, 1, 1, 1), (1,)),
              CatWeighting(4, (1, 0, 1, 1), (1,)))
    after = (CatWeighting(4, (0, 0, 0, 0), (0,)),
             CatWeighting(4, (1, 1, 1, 1), (2,)),
             CatWeighting(4, (0, 0, 1, 1), (0,)))
    assert sum_weighting(before) == sum_weighting(after)
    assert all(reduced_matching(e.stalks, e.bases) == e for e in before + after)
    # the two differ in exactly two slots: a degree-2 move
    assert sum(a != b for a, b in zip(before, after)) == 2
    assert type_vector(before) == (None, "A")
    assert type_vector(after) == (None, None)


def test_type_is_complete_on_third_caterpillar():
    # two related triples are quadratically connected iff the types agree
    pool = enumerate_reduced_matchings(3)
    by_sum = defaultdict(list)
    for tup in itertools.product(pool, repeat=3):
        by_sum[sum_weighting(tup)].append(tup)
    for tups in by_sum.values():
        component = _quadratic_components(tups, pool)
        for s, t in itertools.combinations(tups, 2):
            connected = component[s] == component[t]
            assert connected == (type_vector(s) == type_vector(t))


def test_normal_form_basics():
    for r in (4, 5):
        pool = [m for m in enumerate_reduced_matchings(r) if m.is_unbreakable()]
        m = pool[len(pool) // 2]
        assert normal_form((m,)) == (m,)
        a, b = pool[0], pool[-1]
        assert normal_form((a, b)) == normal_form((b, a))
    with pytest.raises(ValueError):
        normal_form((CatWeighting(4, (0, 0, 0, 0), (0,)),))


def test_normal_form_unique_on_equivalent_tuples():
    rng = random.Random(3)
    pools = {r: tuple(m for m in enumerate_reduced_matchings(r) if m.is_unbreakable())
             for r in (4, 5, 6)}
    for _ in range(200):
        r = rng.choice((4, 5, 6))
        pool = pools[r]
        pairs = pairs_by_sum(pool)
        k = rng.randint(2, 4)
        tup = tuple(rng.choice(pool) for _ in range(k))
        scrambled = list(tup)
        for _ in range(rng.randint(1, 5)):
            i, j = rng.sample(range(k), 2)
            scrambled[i], scrambled[j] = rng.choice(pairs[scrambled[i] + scrambled[j]])
        nf = normal_form(tup)
        assert nf == normal_form(tuple(scrambled))
        assert normal_form(nf) == nf
        assert sum_weighting(nf) == sum_weighting(tup)
        assert is_balanced(nf)


def test_normal_form_is_ascending_in_the_letter_order():
    # at each trinode, the letter key (2*left+2*right+stalk graded by level)
    # must not decrease along the tuple; checked on random normal forms
    def letter_key(entry, v):
        a, b, c = entry.local_triple(v)
        n = min(a, c)
        if a == c:
            return (4 * n + b, 0)
        if c == a + 1:
            return (4 * a + 2, 0)
        assert a == c + 1
        return (4 * c + 3, 0)

    rng = random.Random(4)
    pool = [m for m in enumerate_reduced_matchings(5) if m.is_unbreakable()]
    for _ in range(100):
        tup = tuple(rng.choice(pool) for _ in range(rng.randint(2, 4)))
        nf = normal_form(tup)
        for v in range(3, 4):  # interior trinode of the 5th caterpillar
            keys = [letter_key(e, v) for e in nf]
            assert keys == sorted(keys)


def _from_spine_normal_form(tup):
    """Reference: the normal form dealt from the sum and built by ``from_spine``."""
    n, r = len(tup), tup[0].r
    total = sum_weighting(tup)
    spine_cols = [[value // n] * (n - value % n) + [value // n + 1] * (value % n)
                  for value in total.spine]
    middle_cols = []
    for v in range(2, r):
        left, right = spine_cols[v - 2], spine_cols[v - 1]
        values = [int(left[i] != right[i]) for i in range(n)]
        free = [i for i in range(n) if left[i] == right[i] > 0]
        budget = total.stalks[v - 1] - sum(values)
        for i in free[len(free) - budget:]:
            values[i] = 1
        middle_cols.append(values)
    return tuple(CatWeighting.from_spine([col[i] for col in spine_cols],
                                         [col[i] for col in middle_cols])
                 for i in range(n))


_UNBREAKABLE = {r: tuple(m for m in enumerate_reduced_matchings(r) if m.is_unbreakable())
                for r in range(4, 9)}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(range(4, 9)).flatmap(
    lambda r: st.lists(st.sampled_from(_UNBREAKABLE[r]), min_size=1, max_size=5)))
def test_normal_form_agrees_with_the_from_spine_derivation(entries):
    tup = tuple(entries)
    nf = normal_form(tup)
    assert nf == _from_spine_normal_form(tup)
    for entry in nf:
        assert entry is reduced_matching(entry.stalks, entry.bases)


def test_the_table_holds_exactly_the_enumerated_matchings():
    # every weighting with stalks <= 2 and bases <= 3 at r = 4, 5: the table
    # finds exactly the enumerated ones, and finds them equal
    for r in (4, 5):
        enumerated = set(enumerate_reduced_matchings(r))
        found = 0
        for stalks in itertools.product(range(3), repeat=r):
            for bases in itertools.product(range(4), repeat=r - 3):
                w = CatWeighting(r, stalks, bases)
                entry = reduced_matching(stalks, bases)
                assert (entry is not None) == (w in enumerated)
                if entry is not None:
                    assert entry == w
                    found += 1
        assert found == len(enumerated)


def test_pairs_by_sum_agrees_with_pairwise_sums():
    pools = [_UNBREAKABLE[r] for r in (4, 5, 6)] + \
        [enumerate_reduced_matchings(r) for r in (3, 4, 5)]
    for pool in pools:
        expected = {}
        for x, y in itertools.product(pool, repeat=2):
            expected.setdefault(x + y, []).append((x, y))
        assert list(pairs_by_sum(pool).items()) == list(expected.items())
    with pytest.raises(ValueError, match="different r"):
        pairs_by_sum((CatWeighting(3, (1, 1, 0), ()), CatWeighting(4, (1, 1, 1, 1), (1,))))


def test_normal_form_refuses_entries_outside_the_table():
    good = CatWeighting(4, (1, 1, 1, 1), (1,))
    for bad, message in (
            (CatWeighting(4, (1, 2, 1, 1), (1,)), "reduced matchings"),   # a stalk of 2
            (CatWeighting(4, (0, 0, 0, 0), (1,)), "reduced matchings"),   # inadmissible
            (CatWeighting(4, (0, 0, 0, 0), (0,)), "unbreakable"),
            (CatWeighting(5, (1, 1, 1, 1, 1), (1, 1)), "different r")):
        with pytest.raises(ValueError, match=message):
            normal_form((good, bad))


def test_one_sum_gets_one_normal_form_tuple():
    # the form is dealt once per column sum: a tuple, a permutation of it and
    # its normal form get the same tuple
    rng = random.Random(5)
    for r in range(4, 9):
        for _ in range(20):
            tup = tuple(rng.choice(_UNBREAKABLE[r]) for _ in range(rng.randint(1, 5)))
            nf = normal_form(tup)
            assert normal_form(tup[::-1]) is nf
            assert normal_form(nf) is nf


def test_refusals_repeat_and_are_not_stored():
    good = CatWeighting(4, (1, 1, 1, 1), (1,))
    stored = _dealt_form.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="reduced matchings"):
            normal_form((good, CatWeighting(4, (1, 2, 1, 1), (1,))))
        # a base sum of 0 deals a breakable entry: no unbreakable tuple has it
        with pytest.raises(ValueError, match="make no unbreakable reduced matching"):
            _dealt_form((1, 1, 1, 1), (0,), 1)
    assert _dealt_form.cache_info().currsize == stored
