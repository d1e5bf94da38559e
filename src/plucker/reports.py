"""Acceptance-suite runner: every advertised number, checked exactly.

Each criterion function returns a dict with a boolean ``pass`` and the
computed values, so the CLI can emit JSON and the test suite can assert.
Randomized blocks take an explicit seed and trial count; everything else is
deterministic and exact.
"""

from __future__ import annotations

import itertools
import random
import time

from . import exact_linalg, figures, relations, symmetry_rep, toric_rewriting, toric_trees
from .graph_core import catalan
from .invariant_ring import GLOBAL_CACHE, PointConfig, hilbert_dim
from .relations import (
    coords_vector,
    count_good_bipartitions,
    evaluate_sym,
    ideal_component_dim,
    ideal_kernel_basis,
    in_quadratic_ideal,
    project_to_ring,
    quadratic_ideal_component,
    relation_matrix,
    segre8,
    segre_cubic,
    simple_binomial,
    simplest_binomial,
    sym_basis,
    BinomialQuadDatum,
)


def random_config(n: int, rng: random.Random) -> PointConfig:
    """Distinct integer x-coordinates in [-R, R], R = max(9, n // 2), y = 1.

    The range grows with n so that n distinct values always exist.
    """
    bound = max(9, n // 2)
    xs: list[int] = []
    while len(xs) < n:
        x = rng.randint(-bound, bound)
        if x not in xs:
            xs.append(x)
    return PointConfig.from_integers(xs)


def criterion_kempe_dimensions(**_) -> dict:
    """1. hilbert_dim(n, 1) runs through the Catalan numbers."""
    got = {n: hilbert_dim(n, 1) for n in (2, 4, 6, 8, 10)}
    want = {n: catalan(n // 2) for n in (2, 4, 6, 8, 10)}
    return {"pass": got == want and list(want.values()) == [1, 2, 5, 14, 42],
            "dims": got,
            "table": [{"n": n, "d": 1, "dim": v} for n, v in sorted(got.items())]}


def criterion_sym3_dimension(**_) -> dict:
    """2. Sym^3(V_6) is 35-dimensional."""
    dim = len(sym_basis(6, 3))
    return {"pass": dim == 35, "dim": dim}


def criterion_ideal_dimensions(**_) -> dict:
    """3. dim I2_6 = 0, dim I2_8 = 14, dim I3_6 = 1 spanned by the Segre cubic."""
    d26 = ideal_component_dim(6, 2)
    d28 = ideal_component_dim(8, 2)
    d36 = ideal_component_dim(6, 3)
    kernel = ideal_kernel_basis(6, 3)
    span = exact_linalg.IncrementalSpan(len(sym_basis(6, 3)))
    for v in kernel:
        span.add(v)
    spanned = len(kernel) == 1 and span.contains(coords_vector(segre_cubic()))
    return {"pass": d26 == 0 and d28 == 14 and d36 == 1 and spanned,
            "dim_I2_6": d26, "dim_I2_8": d28, "dim_I3_6": d36,
            "segre_spans_kernel": spanned,
            "table": [{"n": 6, "k": 2, "dim": d26},
                      {"n": 8, "k": 2, "dim": d28},
                      {"n": 6, "k": 3, "dim": d36}]}


def criterion_orbit_spans_quadratics(**_) -> dict:
    """4. One simplest binomial generates I2_8 as an S_8-module."""
    rel = simplest_binomial((1, 2, 6, 5), (3, 4, 8, 7))
    rank, spans = symmetry_rep.orbit_span_check(rel)
    return {"pass": rank == 14 and spans, "rank": rank, "spans": spans}


def criterion_cubics_from_quadratics(**_) -> dict:
    """5. Q3_8 = I3_8: containment plus equal ranks inside 560 dimensions."""
    ambient = len(sym_basis(8, 3))
    dim_i = ideal_component_dim(8, 3)
    vectors, dim_q = quadratic_ideal_component(8)
    m = relation_matrix(8, 3)
    contained = not any(exact_linalg.matvec(m, vec) for vec in vectors)
    return {"pass": ambient == 560 and contained and dim_q == dim_i,
            "ambient": ambient, "dim_I3_8": dim_i, "dim_Q3_8": dim_q,
            "contained": contained}


def criterion_partition_filtration(**_) -> dict:
    """6. The graded dimensions of the partition filtration on Sym^3."""
    g22 = symmetry_rep.gr_dim(4, (2, 2))
    g4 = symmetry_rep.gr_dim(4, (4,))
    g222 = symmetry_rep.gr_dim(6, (2, 2, 2))
    f42 = symmetry_rep.filtration_dim(6, (4, 2))
    g42 = symmetry_rep.gr_dim(6, (4, 2))
    g6 = symmetry_rep.gr_dim(6, (6,))
    ok = (g22, g4, g222, f42, g42, g6) == (3, 1, 15, 30, 15, 5) \
        and g22 + g4 == 4 and g222 + g42 + g6 == 35
    return {"pass": ok, "gr_2+2": g22, "gr_4": g4, "gr_2+2+2": g222,
            "F_4+2": f42, "gr_4+2": g42, "gr_6": g6}


def criterion_representation_table(**_) -> dict:
    """7. Multiplicity-free decompositions with the stated partition sets."""
    details = {}
    ok = True
    for n in (6, 8):
        for space in ("Sym2V", "Lam2V", "R2", "I2"):
            dec = symmetry_rep.decompose(symmetry_rep.character_of_action(n, space))
            expected = symmetry_rep.expected_partition_set(n, space)
            good = set(dec) == expected and all(v == 1 for v in dec.values())
            ok = ok and good
            details[f"{space}_n{n}"] = {
                "partitions": sorted(map(list, dec)), "ok": good}
    return {"pass": ok, **details}


def criterion_hook_lengths(**_) -> dict:
    """8. The five advertised hook-length dimensions."""
    shapes = ((5, 1, 1, 1, 1, 1), (4, 1, 1, 1, 1, 1, 1),
              (4, 3, 1, 1, 1, 1, 1), (4, 4, 1, 1, 1, 1),
              (3, 3, 1, 1, 1, 1, 1, 1))
    table = [{"partition": list(lam), "dim": symmetry_rep.hook_length_dim(lam)}
             for lam in shapes]
    dims = {"5+1^5": table[0]["dim"], "4+1^6": table[1]["dim"],
            "4+3+1^5": table[2]["dim"], "4+4+1^4": table[3]["dim"],
            "3+3+1^6": table[4]["dim"]}
    want = {"5+1^5": 126, "4+1^6": 84, "4+3+1^5": 2079,
            "4+4+1^4": 1925, "3+3+1^6": 616}
    return {"pass": dims == want, "dims": dims, "table": table}


def criterion_good_bipartitions(**_) -> dict:
    """9. 25 good bipartitions for n = 10 and 112 for n = 12."""
    c10 = count_good_bipartitions(10)
    c12 = count_good_bipartitions(12)
    return {"pass": (c10, c12) == (25, 112), "n10": c10, "n12": c12}


def criterion_toric_hilbert(**_) -> dict:
    """10. Lattice-point counts of the degeneration match the ring dimensions."""
    details = {}
    ok = True
    for n in (6, 8):
        tree = toric_trees.build_y_tree(n // 2)
        for d in (1, 2, 3):
            cnt = toric_trees.count_admissible_regular(tree, d)
            dim = hilbert_dim(n, d)
            ok = ok and cnt == dim
            details[f"n{n}_d{d}"] = {"count": cnt, "dim": dim}
    return {"pass": ok, **details}


def criterion_greedy_round_trip(**_) -> dict:
    """11. weighting -> graph -> weighting is the identity (exhaustive)."""
    total = 0
    ok = True
    for r in (3, 4):
        tree = toric_trees.build_y_tree(r)
        for d in (1, 2):
            for w in toric_trees.enumerate_admissible_regular(tree, d):
                graph = toric_trees.greedy_graph(w)
                ok = ok and toric_trees.weighting_of_graph(graph, tree) == w
                total += 1
    return {"pass": ok, "weightings": total}


def criterion_toric_plucker(seed: int = 0, trials: int = 500, **_) -> dict:
    """12. Weighting invariance and the level drop on eligible quadruples."""
    rng = random.Random(seed)
    ok = True
    eligible = 0
    attempts = 0
    while eligible < trials and attempts < 100 * trials:
        attempts += 1
        r = rng.choice((3, 4, 5))
        tree = toric_trees.build_y_tree(r)
        a, b, c, d = rng.sample(tree.leaves(), 4)
        if not toric_trees.toric_plucker_applicable(tree, a, b, c, d):
            continue
        eligible += 1
        g1, g2, g3 = [(a, b), (c, d)], [(a, c), (b, d)], [(a, d), (b, c)]
        same = toric_trees.weighting_of_graph(g1, tree) == \
            toric_trees.weighting_of_graph(g2, tree)
        l1 = toric_trees.level(g1, tree)
        l2 = toric_trees.level(g2, tree)
        l3 = toric_trees.level(g3, tree)
        ok = ok and same and l1 == l2 and l3 < l1
    return {"pass": ok and eligible == trials, "eligible": eligible}


def criterion_rewriting(seed: int = 0, trials: int = 500, **_) -> dict:
    """13. Balancing, unique normal forms, type invariance, the cubic move."""
    rng = random.Random(seed)
    ok = True
    # balance: sums preserved, balanced achieved
    for _ in range(200):
        r = rng.choice((3, 4, 5, 6))
        pool = toric_rewriting.enumerate_reduced_matchings(r)
        tup = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        out = toric_rewriting.balance(tup)
        ok = ok and toric_rewriting.sum_weighting(out) == \
            toric_rewriting.sum_weighting(tup)
        ok = ok and toric_rewriting.is_balanced(out)
    # normal form: unique across randomized quadratic-equivalent tuples
    unbreakable = {r: tuple(m for m in toric_rewriting.enumerate_reduced_matchings(r)
                            if m.is_unbreakable()) for r in (4, 5, 6)}
    pair_tables = {r: toric_rewriting.pairs_by_sum(pool) for r, pool in unbreakable.items()}
    for _ in range(trials):
        r = rng.choice((4, 5, 6))
        pool = unbreakable[r]
        pairs = pair_tables[r]
        k = rng.randint(1, 4)
        tup = tuple(rng.choice(pool) for _ in range(k))
        scrambled = list(tup)
        for _ in range(rng.randint(1, 5)):
            if k < 2:
                break
            i, j = rng.sample(range(k), 2)
            scrambled[i], scrambled[j] = rng.choice(pairs[scrambled[i] + scrambled[j]])
        nf = toric_rewriting.normal_form(tup)
        ok = ok and nf == toric_rewriting.normal_form(tuple(scrambled))
        ok = ok and toric_rewriting.normal_form(nf) == nf
    # exhaustive type invariance on the third caterpillar
    pool3 = toric_rewriting.enumerate_reduced_matchings(3)
    for tup in itertools.product(pool3, repeat=3):
        tv = toric_rewriting.type_vector(tup)
        for nb in toric_rewriting.quadratic_neighbors(tup, pool3):
            ok = ok and toric_rewriting.type_vector(nb) == tv
    # the toric Segre move flips exactly the chosen coordinate
    flips = 0
    while flips < 50:
        r = rng.choice((3, 4, 5))
        pool = toric_rewriting.enumerate_reduced_matchings(r)
        tup = tuple(rng.choice(pool) for _ in range(3))
        tv = toric_rewriting.type_vector(tup)
        spots = [v for v in range(2, r) if tv[v - 2] in ("A", "B")]
        if not spots:
            continue
        v = rng.choice(spots)
        moved = toric_rewriting.toric_segre_move(tup, v)
        tv2 = toric_rewriting.type_vector(moved)
        ok = ok and toric_rewriting.sum_weighting(moved) == \
            toric_rewriting.sum_weighting(tup)
        for w in range(2, r):
            if w == v:
                ok = ok and {tv[w - 2], tv2[w - 2]} == {"A", "B"}
            else:
                ok = ok and tv[w - 2] == tv2[w - 2]
        flips += 1
    return {"pass": ok, "normal_form_trials": trials}


def _relation_zoo(degenerate_datum, even_square_datum):
    degenerate = relations.generalized_segre(degenerate_datum)
    even_square = relations.square_rotation(even_square_datum)
    return [
        ("segre_cubic", segre_cubic()),
        ("segre8_outer", segre8()),
        ("simplest_binomial", simplest_binomial((1, 2, 6, 5), (3, 4, 8, 7))),
        ("simple_binomial", simple_binomial(BinomialQuadDatum(
            8, frozenset({5, 6, 7, 8}),
            layer1=((1, 2), (3, 4), (5, 6), (7, 8)),
            layer2=((1, 4), (2, 3), (5, 7), (6, 8))))),
        ("generalized_segre_6", relations.generalized_segre(
            figures.genseg6_datum())),
        ("generalized_segre_8_degenerate", degenerate),
        ("square_rotation", even_square),
    ]


def criterion_relation_constructors(seed: int = 0, **_) -> dict:
    """14. Constructors project to zero, evaluate to zero, degenerate in Q."""
    rng = random.Random(seed)
    details = {}
    ok = True
    degenerate_datum = figures.degenerate_genseg8_datum()
    even_square_datum = figures.square_rotation_even_datum()
    zoo = _relation_zoo(degenerate_datum, even_square_datum)
    for name, rel in zoo:
        projected_zero = project_to_ring(rel).is_zero()
        eval_zero = all(evaluate_sym(rel, random_config(rel.n, rng)) == 0
                        for _ in range(5))
        details[name] = {"projects_to_zero": projected_zero,
                         "evaluates_to_zero": eval_zero}
        ok = ok and projected_zero and eval_zero
    by_name = dict(zoo)
    in_q = in_quadratic_ideal(by_name["generalized_segre_8_degenerate"])
    sq_in_q = in_quadratic_ideal(by_name["square_rotation"])
    details["degenerate_in_Q3_8"] = in_q
    details["even_square_rotation_in_Q3_8"] = sq_in_q
    # the premises of the two statements: the datum is degenerate, and both
    # special paths of the square have four vertices
    premises = degenerate_datum.is_degenerate() and \
        sorted(len(p) for p in even_square_datum.special_paths()) == [4, 4]
    return {"pass": ok and premises and in_q and sq_in_q, **details}


def criterion_figure_identities(**_) -> dict:
    """15. The encoded six- and eight-point identities straighten to zero."""
    res8 = figures.id8_residual()
    res6 = figures.id6_residual()
    return {"pass": res8.is_zero() and not res6,
            "id8_zero": res8.is_zero(), "id6_zero": not res6}


CRITERIA = (
    ("kempe_dimensions", criterion_kempe_dimensions),
    ("sym3_dimension", criterion_sym3_dimension),
    ("ideal_dimensions", criterion_ideal_dimensions),
    ("orbit_spans_quadratics", criterion_orbit_spans_quadratics),
    ("cubics_from_quadratics", criterion_cubics_from_quadratics),
    ("partition_filtration", criterion_partition_filtration),
    ("representation_table", criterion_representation_table),
    ("hook_lengths", criterion_hook_lengths),
    ("good_bipartitions", criterion_good_bipartitions),
    ("toric_hilbert", criterion_toric_hilbert),
    ("greedy_round_trip", criterion_greedy_round_trip),
    ("toric_plucker", criterion_toric_plucker),
    ("rewriting", criterion_rewriting),
    ("relation_constructors", criterion_relation_constructors),
    ("figure_identities", criterion_figure_identities),
)

SUITES = {
    "hilbert": ("kempe_dimensions", "sym3_dimension"),
    "ideals": ("ideal_dimensions", "orbit_spans_quadratics",
               "cubics_from_quadratics"),
    "toric": ("toric_hilbert", "greedy_round_trip", "toric_plucker",
              "rewriting"),
    "rep": ("partition_filtration", "representation_table", "hook_lengths"),
    "relations": ("good_bipartitions", "relation_constructors",
                  "figure_identities"),
}
SUITES["all"] = tuple(name for name, _ in CRITERIA)


def run_criterion(name: str, seed: int = 0, trials: int = 500) -> dict:
    func = dict(CRITERIA)[name]
    start = time.perf_counter()
    result = func(seed=seed, trials=trials)
    result["criterion"] = name
    result["seconds"] = round(time.perf_counter() - start, 3)
    return result


def run_suite(suite: str, seed: int = 0, trials: int = 500) -> dict:
    """Run one named block of criteria in order."""
    results = [run_criterion(name, seed=seed, trials=trials) for name in SUITES[suite]]
    return {
        "suite": suite,
        "inputs": {"seed": seed, "trials": trials},
        "criteria": results,
        "pass": all(r["pass"] for r in results),
        "cache": GLOBAL_CACHE.stats(),
    }
