"""Functions that only the tests use: oracles, Y of a matching, the truncation
map and the stalk and base edges it reads, the permutations of S_n, the
character inner product and Sym^k coordinates keyed by monomial.

None of these is on a path the program runs, so they live beside the tests
rather than in ``plucker``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm

from plucker.graph_core import matching_key, orientation_sign
from plucker.invariant_ring import RingElement, straighten_graph
from plucker.relations import SymElement
from plucker.symmetry_rep import ClassFunction, class_size, mn_character, partitions
from plucker.toric_rewriting import CatWeighting
from plucker.toric_trees import (
    TrivalentTree,
    TreeWeighting,
    _completion_counts,
    admissible_triple,
    build_y_tree,
)


def y_of(n: int, pairs) -> RingElement:
    """Y of an undirected matching: eps(min->max direction) times its X."""
    key = matching_key(pairs)
    return RingElement(n, {key: Fraction(orientation_sign(key))})


def matching_in_y_basis(n: int, mkey) -> dict:
    """Y of a matching in the non-crossing Y-basis, keyed by matching."""
    eps = orientation_sign(mkey)
    return {g: eps * c * orientation_sign(g)
            for g, c in straighten_graph(n, mkey).items()}


def to_coords(e: SymElement) -> dict:
    """Sym^k coordinates keyed by sorted monomial: the oracle for ``coords_vector``.

    Every product of the layers' Y-basis expansions is sorted into its
    monomial and summed as an integer over the common denominator of the
    coefficients; the entries are ``int`` when that denominator is 1 and
    ``Fraction`` otherwise.
    """
    denom = lcm(*(c.denominator for c in e.terms.values()))
    acc: dict = {}
    for mono, coeff in e.terms.items():
        num = coeff.numerator * (denom // coeff.denominator)
        for combo in itertools.product(*(matching_in_y_basis(e.n, m).items()
                                         for m in mono)):
            key = tuple(sorted(g for g, _ in combo))
            c = num
            for _, a in combo:
                c *= a
            acc[key] = acc.get(key, 0) + c
    if denom == 1:
        return {k: v for k, v in acc.items() if v}
    return {k: Fraction(v, denom) for k, v in acc.items() if v}


def all_perms(n: int):
    """Every permutation of 1..n as a dict, in ``itertools.permutations`` order."""
    base = list(range(1, n + 1))
    for img in itertools.permutations(base):
        yield dict(zip(base, img))


def irreducible_character(lam) -> ClassFunction:
    """chi_lambda as a class function of ``Fraction`` values, by Murnaghan-Nakayama."""
    n = sum(lam)
    return ClassFunction(n, {mu: Fraction(mn_character(lam, mu))
                             for mu in partitions(n)})


def inner_product(chi: ClassFunction, psi: ClassFunction) -> Fraction:
    """<chi, psi> = sum over classes of size * chi * psi / n!, in ``Fraction``s."""
    total = Fraction(0)
    for mu in partitions(chi.n):
        total += class_size(mu) * Fraction(chi.values[mu]) * psi.values[mu]
    return total / factorial(chi.n)


def crossing(e1, e2) -> bool:
    """Do two chords cross?  Arithmetic test, endpoints sorted, no geometry."""
    a, b = min(e1), max(e1)
    c, d = min(e2), max(e2)
    if a > c:
        a, b, c, d = c, d, a, b
    return a < c < b < d


def multiply(a: RingElement, b: RingElement) -> RingElement:
    """Bilinear extension of the semigroup product (disjoint union of edges)."""
    if a.n != b.n:
        raise ValueError("label-set mismatch")
    items = []
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            items.append((tuple(sorted(ka + kb)), ca * cb))
    return RingElement.from_terms(a.n, items)


def leaf_edge_weight(w: TreeWeighting, label: int) -> int:
    """The weight on the edge at the leaf with this label."""
    (idx, _), = w.tree.adj[w.tree.leaf_of_label[label]]
    return w.weights[idx]


def role_edges(tree: TrivalentTree, r: int) -> tuple[dict[int, int], dict[int, int]]:
    """Stalk i -> edge index and base edge j -> edge index, for stalks 1..r.

    The r-th caterpillar and the r-th Y-tree share the caterpillar's vertex
    numbering (``build_caterpillar``): base vertex i is 2i - 2, stalk i's
    tip is 2i - 1, and the end stalks join vertex 0 to 2 and 2r - 4 to 1.
    """
    index = {e: i for i, e in enumerate(tree.edges)}
    stalks = {1: (0, 2), r: (1, 2 * r - 4)} | \
        {i: (2 * i - 2, 2 * i - 1) for i in range(2, r)}
    bases = {j: (2 * j - 2, 2 * j) for j in range(2, r - 1)}
    return ({i: index[p] for i, p in stalks.items()},
            {j: index[p] for j, p in bases.items()})


def truncate(w: TreeWeighting) -> tuple[CatWeighting, int]:
    """Halve the stalks and base edges of a regular Y-tree weighting.

    Returns the reduced weighting on the matching caterpillar and the degree.
    Raises ``ValueError`` off a Y-tree, on a weighting that is not regular
    and on an odd interior weight.
    """
    tree = w.tree
    r = tree.num_leaves // 2
    if r < 3 or tree is not build_y_tree(r):
        raise ValueError("truncation needs a weighting on a Y-tree")
    stalk_edges, base_edges = role_edges(tree, r)
    degrees = {leaf_edge_weight(w, l) for l in tree.leaves()}
    if len(degrees) != 1:
        raise ValueError("weighting is not regular")

    def half(idx: int) -> int:
        if w.weights[idx] % 2:
            raise ValueError("odd interior weight; cannot truncate")
        return w.weights[idx] // 2

    return (CatWeighting(r, tuple(half(stalk_edges[i]) for i in range(1, r + 1)),
                         tuple(half(base_edges[j]) for j in range(2, r - 1))),
            degrees.pop())


def untruncate(c: CatWeighting, d: int) -> TreeWeighting:
    """Inverse of truncate: double the interior, leaf edges get the degree d."""
    tree = build_y_tree(c.r)
    stalk_edges, base_edges = role_edges(tree, c.r)
    weights = [d] * len(tree.edges)  # every edge but a stalk or base is a leaf edge
    for i, idx in stalk_edges.items():
        weights[idx] = 2 * c.stalks[i - 1]
    for j, idx in base_edges.items():
        weights[idx] = 2 * c.bases[j - 2]
    out = TreeWeighting(tree, tuple(weights))
    if not out.is_admissible():
        raise ValueError(f"{c} does not untruncate at degree {d}")
    return out


def leaf_path_by_search(tree: TrivalentTree, label1: int, label2: int):
    """(vertex tuple, edge index tuple) of a leaf geodesic, found by a
    breadth-first search from the first leaf: the oracle for ``leaf_path``."""
    u, w = tree.leaf_of_label[label1], tree.leaf_of_label[label2]
    prev = {u: None}
    frontier = [u]
    while w not in prev:
        frontier = [(x, idx, y) for x in frontier for idx, y in tree.adj[x] if y not in prev]
        for x, idx, y in frontier:
            prev[y] = (x, idx)
        frontier = [y for _, _, y in frontier]
    verts, edges = [w], []
    while prev[verts[-1]] is not None:
        x, idx = prev[verts[-1]]
        verts.append(x)
        edges.append(idx)
    return tuple(reversed(verts)), tuple(reversed(edges))


def preorder_by_stack(tree: TrivalentTree):
    """Every edge as (edge, child edges...), hung from the lowest leaf's edge by
    a stack of (edge, lower vertex, upper vertex): the oracle for
    ``TrivalentTree.preorder``, the walk the count DP once made for itself."""
    root_leaf = tree.leaf_of_label[min(tree.leaf_of_label)]
    (root_edge, below), = tree.adj[root_leaf]
    preorder, stack = [], [(root_edge, below, root_leaf)]
    while stack:
        e, v, parent = stack.pop()
        children = [(idx, w) for idx, w in tree.adj[v] if w != parent]
        preorder.append((e, *(idx for idx, _ in children)))
        stack.extend((idx, w, v) for idx, w in reversed(children))
    return tuple(preorder)


def enumerate_recursively(tree: TrivalentTree, d: int):
    """Admissible weightings regular of degree d, by nested generators.

    The order oracle for ``enumerate_admissible_regular``: at each trinode the
    first child's subtree runs through all its completions for every step of
    the trinode's own weight pair, and the second child's for every step of
    the first's.  It takes one Python frame per tree level.
    """
    table, root_edge, _ = _completion_counts(tree, d)
    root_leaf = tree.leaf_of_label[min(tree.leaf_of_label)]
    weights = [0] * len(tree.edges)
    weights[root_edge] = d

    def gen(v: int, parent: int, w: int):
        if v in tree.label_of_leaf:
            yield True
            return
        (e1, c1), (e2, c2) = [(idx, x) for idx, x in tree.adj[v] if x != parent]
        for w1 in sorted(table[e1]):
            for w2 in sorted(table[e2]):
                if not admissible_triple(w, w1, w2):
                    continue
                weights[e1], weights[e2] = w1, w2
                for _ in gen(c1, v, w1):
                    for _ in gen(c2, v, w2):
                        yield True

    for _ in gen(tree.adj[root_leaf][0][1], root_leaf, d):
        yield TreeWeighting(tree, tuple(weights))
