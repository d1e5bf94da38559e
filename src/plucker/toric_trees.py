"""Trivalent trees, edge weightings, and the graph <-> weighting dictionary.

Trees are immutable: vertices 0..k-1, undirected edges indexed by position in
a sorted edge list, and leaf labels 1..m attached bijectively to the
valence-one vertices.  The Y-tree is the caterpillar with two leaves sprouted
from each of its leaves; ``build_caterpillar`` documents the numbering.

A weighting assigns a non-negative integer to every edge.  Admissible means
the triangle inequalities and the even-sum parity condition hold at every
trinode.  Reduced weightings on caterpillars live in ``toric_rewriting``;
the truncation to them, which only the tests use, is in ``tests/support.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class TrivalentTree:
    """Connected acyclic graph, every vertex of valence 1 or 3, leaves labeled."""

    def __init__(self, num_vertices: int, edges, leaf_labels: dict[int, int]):
        """One walk from the lowest leaf hangs the tree and checks that it is one:
        ``ValueError`` on an edge off 0..num_vertices-1, a valence not 1 or 3, a
        label off the leaves or a leaf without one, or a vertex reached twice or
        never.  It records ``parent[v]``, the (edge, vertex) above v (None at the
        root), ``depth[v]``, the ``trinodes`` in the order reached, and ``preorder``:
        each edge as (edge, child edges...), after its parent edge.
        """
        self.num_vertices = num_vertices
        self.edges: tuple[tuple[int, int], ...] = tuple(
            sorted(tuple(sorted(e)) for e in edges))
        self.leaf_of_label = dict(leaf_labels)  # label -> vertex
        self.label_of_leaf = {v: l for l, v in self.leaf_of_label.items()}
        self.adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(num_vertices)}
        for idx, (u, v) in enumerate(self.edges):
            if u < 0 or v >= num_vertices:
                raise ValueError(f"edge {(u, v)} is off the vertices 0..{num_vertices - 1}")
            self.adj[u].append((idx, v))
            self.adj[v].append((idx, u))
        if not self.leaf_of_label:
            raise ValueError("a tree needs a labelled leaf")
        root = self.leaf_of_label[min(self.leaf_of_label)]
        self.parent: dict[int, tuple[int, int] | None] = {root: None}
        self.depth = {root: 0}
        preorder, stack = [], [(root, None)]
        while stack:
            v, up = stack.pop()
            valence = len(self.adj.get(v, ()))
            if valence not in (1, 3):
                raise ValueError(f"vertex {v} has valence {valence}, not 1 or 3")
            if (valence == 1) != (v in self.label_of_leaf):
                kind = "leaf without" if valence == 1 else "trinode with"
                raise ValueError(f"vertex {v} is a {kind} a label")
            kids = [(idx, w) for idx, w in self.adj[v] if idx != up]
            for idx, w in kids:
                if w in self.depth:
                    raise ValueError(f"vertex {w} is reached twice: the edges have a cycle")
                self.parent[w], self.depth[w] = (idx, v), self.depth[v] + 1
            preorder.append((up, *(idx for idx, _ in kids)))  # the root's is dropped
            stack.extend((w, idx) for idx, w in reversed(kids))
        if len(self.depth) < num_vertices:
            raise ValueError(f"{num_vertices - len(self.depth)} vertices are never reached")
        self.trinodes = tuple(v for v in self.depth if len(self.adj[v]) == 3)
        if len(self.depth) - len(self.trinodes) != len(self.leaf_of_label):
            raise ValueError("the labels must be on the leaves, one each")
        self.preorder: tuple[tuple[int, ...], ...] = tuple(preorder[1:])
        self._path_cache: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_of_label)

    def leaves(self) -> list[int]:
        """Leaf labels in increasing order."""
        return sorted(self.leaf_of_label)

    def leaf_path(self, label1: int, label2: int):
        """(vertex tuple, edge index tuple) of the geodesic between two leaves,
        climbed by parent pointers from the deeper end until the ends meet."""
        hit = self._path_cache.get((label1, label2))
        if hit is not None:
            return hit
        # each side lists vertex, edge, vertex, ..., climbing from its leaf
        up, down = [self.leaf_of_label[label1]], [self.leaf_of_label[label2]]
        while up[-1] != down[-1]:
            side = up if self.depth[up[-1]] >= self.depth[down[-1]] else down
            side.extend(self.parent[side[-1]])
        path = up + down[-2::-1]
        result = (tuple(path[::2]), tuple(path[1::2]))
        self._path_cache[label1, label2] = result
        self._path_cache[label2, label1] = (result[0][::-1], result[1][::-1])
        return result


@lru_cache(maxsize=None)
def build_caterpillar(r: int) -> TrivalentTree:
    """The r-th caterpillar: r stalks on a path of r - 2 base vertices.

    Vertex 0 is leaf 1 and vertex 1 is leaf r, the two end stalks' tips; for
    i = 2..r-1, base vertex i is 2i - 2 and the tip of stalk i, leaf i, is
    2i - 1.  Base edge j joins base vertices j and j + 1.
    """
    if r < 3:
        raise ValueError("caterpillars need r >= 3")
    base = {i: 2 * i - 2 for i in range(2, r)}
    leaves = {1: 0, r: 1} | {i: 2 * i - 1 for i in range(2, r)}
    stalks = {1: (0, base[2]), r: (base[r - 1], 1)} | \
        {i: (base[i], leaves[i]) for i in range(2, r)}
    bases = {j: (base[j], base[j + 1]) for j in range(2, r - 1)}
    return TrivalentTree(2 * r - 2, [*stalks.values(), *bases.values()], leaves)


@lru_cache(maxsize=None)
def build_y_tree(r: int) -> TrivalentTree:
    """The r-th Y-tree: r Y's in a row, 2r leaves labeled 1..2r left to right.

    It is the r-th caterpillar with leaf i sprouting the leaves 2i-1 and 2i
    (a matched pair) at new vertices k + label - 1, k the caterpillar's
    vertex count; its stalks and base edges are the caterpillar's.  The
    numbering fixes the greedy inverse's tie-breaks, so it must not change.
    """
    if r < 3:
        raise ValueError("Y-trees need r >= 3")
    cat = build_caterpillar(r)
    k = cat.num_vertices
    edges = list(cat.edges)
    leaves = {}
    for i, joint in cat.leaf_of_label.items():
        for label in (2 * i - 1, 2 * i):
            leaves[label] = k + label - 1
            edges.append((joint, k + label - 1))
    return TrivalentTree(k + 2 * r, edges, leaves)


@dataclass(frozen=True)
class TreeWeighting:
    """Non-negative integer weights on the edges of a trivalent tree.

    Equality and hashing take the tree by identity.
    """

    tree: TrivalentTree
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.tree.edges) or min(self.weights, default=0) < 0:
            raise ValueError(f"need {len(self.tree.edges)} weights >= 0, got {self.weights}")

    def is_admissible(self) -> bool:
        return all(admissible_triple(*(self.weights[idx] for idx, _ in self.tree.adj[v]))
                   for v in self.tree.trinodes)


def level(edges, tree: TrivalentTree) -> int:
    """Total geodesic edge count of a graph drawn in the tree."""
    return sum(len(tree.leaf_path(a, b)[1]) for a, b in edges)


def weighting_of_graph(edges, tree: TrivalentTree) -> TreeWeighting:
    """Per tree edge, the number of graph edges whose geodesic crosses it.

    Raises ``ValueError`` on a loop, which has no geodesic.
    """
    counts = [0] * len(tree.edges)
    for a, b in edges:
        if a == b:
            raise ValueError(f"loop at {a} has no weighting")
        for idx in tree.leaf_path(a, b)[1]:
            counts[idx] += 1
    return TreeWeighting(tree, tuple(counts))


def greedy_graph(w: TreeWeighting) -> tuple[tuple[int, int], ...]:
    """Rebuild a graph from an admissible weighting.

    Repeatedly walk from the smallest-labeled leaf with nonzero weight,
    continuing along the heavier edge at every trinode (ties: smaller vertex
    index), and subtract the traced geodesic.  Heavier-edge walks keep the
    remainder admissible.  That is asserted after every subtraction at the
    trinodes the walk passed through, the only ones whose weights changed.
    """
    if not w.is_admissible():
        raise ValueError("input weighting is not admissible")
    tree = w.tree
    weights = list(w.weights)
    leaves = tree.leaves()
    out = []

    def leaf_weight(label):
        (idx, _), = tree.adj[tree.leaf_of_label[label]]
        return weights[idx]

    while True:
        start = next((l for l in leaves if leaf_weight(l) > 0), None)
        if start is None:
            break
        v_prev = tree.leaf_of_label[start]
        (idx, cur), = tree.adj[v_prev]
        path = [idx]
        through = []
        while cur not in tree.label_of_leaf:
            through.append(cur)
            options = [(jdx, nxt) for jdx, nxt in tree.adj[cur] if nxt != v_prev]
            options.sort(key=lambda t: (-weights[t[0]], t[1]))
            jdx, nxt = options[0]
            path.append(jdx)
            v_prev, cur = cur, nxt
        end = tree.label_of_leaf[cur]
        for idx in path:
            weights[idx] -= 1
            assert weights[idx] >= 0, "greedy walk exhausted an edge"
        assert all(admissible_triple(*(weights[idx] for idx, _ in tree.adj[v]))
                   for v in through), "greedy step broke admissibility"
        out.append((min(start, end), max(start, end)))
    assert all(x == 0 for x in weights)
    return tuple(sorted(out))


def admissible_triple(a: int, b: int, c: int, reduced: bool = False) -> bool:
    """Triangle inequalities at one trinode; an even sum too unless reduced."""
    return 2 * max(a, b, c) <= a + b + c and (reduced or (a + b + c) % 2 == 0)


def _completion_counts(tree: TrivalentTree, d: int):
    """The DP shared by counting and enumeration, hung from leaf 1's edge.

    Returns (table, root_edge, trinodes): ``trinodes`` lists, in pre-order,
    each trinode's (parent edge, child edge, child edge), and ``table[root_edge]``
    maps a weight on it to the number of admissible completions with every leaf
    edge weighted d; any other edge keeps only the range, in steps of 2, of the
    weights its subtree completes.  A loop over ``tree.preorder`` backwards fills
    both child tables before the parent's, with no recursion.  ``ValueError`` on d < 0.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    table: dict[int, dict[int, int] | range] = {}
    for e, *kids in reversed(tree.preorder):
        if not kids:  # a leaf edge
            table[e] = {d: 1}
            continue
        e1, e2 = kids
        out: dict[int, int] = {}
        for w1, n1 in table[e1].items():
            for w2, n2 in table[e2].items():
                # the triangle inequalities bound w; steps of 2 keep w + w1 + w2 even
                for w in range(abs(w1 - w2), w1 + w2 + 1, 2):
                    out[w] = out.get(w, 0) + n1 * n2
        table[e] = out
        for kid in kids:
            table[kid] = range(min(table[kid]), max(table[kid]) + 1, 2)
    return table, tree.preorder[0][0], [edges for edges in tree.preorder if len(edges) == 3]


def count_admissible_regular(tree: TrivalentTree, d: int) -> int:
    """Number of admissible weightings regular of degree d (exact DP)."""
    table, root_edge, _ = _completion_counts(tree, d)
    return table[root_edge].get(d, 0)


def enumerate_admissible_regular(tree: TrivalentTree, d: int):
    """Yield every admissible weighting regular of degree d, DP-pruned.

    An odometer over the trinodes in pre-order, with a stack of iterators in
    place of one Python frame per tree level: a trinode steps through the
    weight pairs of its child edges once for each step of the ones before it.
    """
    table, _, trinodes = _completion_counts(tree, d)
    weights = [d] * len(tree.edges)  # right at every leaf edge; trinodes set the rest

    def pairs(e: int, e1: int, e2: int):
        for w1 in table[e1]:
            for w2 in table[e2]:
                if admissible_triple(weights[e], w1, w2):
                    weights[e1], weights[e2] = w1, w2
                    yield True

    stack = []
    while True:
        if len(stack) == len(trinodes):
            yield TreeWeighting(tree, tuple(weights))
        else:
            stack.append(pairs(*trinodes[len(stack)]))
        while stack and not next(stack[-1], False):
            stack.pop()  # this trinode has run out: step the one before it
        if not stack:
            return


def toric_plucker_applicable(tree: TrivalentTree, a: int, b: int, c: int, d: int) -> bool:
    """Does {ab, cd} -> {ac, bd} qualify for the toric Plucker relation?

    True iff the ab and cd geodesics meet and the ac and bd geodesics meet
    (vertex intersection; in a trivalent tree two meeting leaf geodesics
    always share an edge anyway).
    """
    if len({a, b, c, d}) != 4:
        raise ValueError(f"leaves must be distinct, got {a}, {b}, {c}, {d}")
    ab, cd, ac, bd = (set(tree.leaf_path(x, y)[0]) for x, y in ((a, b), (c, d), (a, c), (b, d)))
    return not ab.isdisjoint(cd) and not ac.isdisjoint(bd)
