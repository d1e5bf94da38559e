"""Functions that only the tests use: oracles and the truncation map.

None of these is on a path the program runs, so they live beside the tests
rather than in ``plucker``.
"""

from __future__ import annotations

from plucker.invariant_ring import RingElement
from plucker.toric_rewriting import CatWeighting
from plucker.toric_trees import TreeWeighting, build_y_tree


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


def truncate(w: TreeWeighting) -> tuple[CatWeighting, int]:
    """Halve the stalks and base edges of a regular Y-tree weighting.

    Returns the reduced weighting on the matching caterpillar and the degree.
    Raises ``ValueError`` off a Y-tree, on a weighting that is not regular
    and on an odd interior weight.
    """
    tree = w.tree
    r = len(tree.stalk_edges)
    if r < 3 or tree is not build_y_tree(r):
        raise ValueError("truncation needs a weighting on a Y-tree")
    degrees = {leaf_edge_weight(w, l) for l in tree.leaves()}
    if len(degrees) != 1:
        raise ValueError("weighting is not regular")

    def half(idx: int) -> int:
        if w.weights[idx] % 2:
            raise ValueError("odd interior weight; cannot truncate")
        return w.weights[idx] // 2

    return (CatWeighting(r, tuple(half(tree.stalk_edges[i]) for i in range(1, r + 1)),
                         tuple(half(tree.base_edges[j]) for j in range(2, r - 1))),
            degrees.pop())


def untruncate(c: CatWeighting, d: int) -> TreeWeighting:
    """Inverse of truncate: double the interior, leaf edges get the degree d."""
    tree = build_y_tree(c.r)
    weights = [d] * len(tree.edges)  # every edge but a stalk or base is a leaf edge
    for i, idx in tree.stalk_edges.items():
        weights[idx] = 2 * c.stalk(i)
    for j, idx in tree.base_edges.items():
        weights[idx] = 2 * c.base(j)
    out = TreeWeighting(tree, tuple(weights))
    if not out.is_admissible():
        raise ValueError(f"{c} does not untruncate at degree {d}")
    return out
