"""Trivalent trees, edge weightings, and the graph <-> weighting dictionary.

Trees are immutable: vertices 0..k-1, undirected edges indexed by position in
a sorted edge list, and leaf labels 1..m attached bijectively to the
valence-one vertices.  Y-trees and caterpillars carry role tags naming their
stalks and base edges.

A weighting assigns a non-negative integer to every edge.  Admissible means
the triangle inequalities hold at every trinode, plus the even-sum parity
condition unless the weighting is flagged reduced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


class TrivalentTree:
    """Connected acyclic graph, every vertex of valence 1 or 3, leaves labeled."""

    def __init__(self, num_vertices: int, edges, leaf_labels: dict[int, int],
                 stalk_edges: dict[int, int] | None = None,
                 base_edges: dict[int, int] | None = None):
        self.num_vertices = num_vertices
        self.edges: tuple[tuple[int, int], ...] = tuple(
            sorted(tuple(sorted(e)) for e in edges))
        self.leaf_of_label = dict(leaf_labels)  # label -> vertex
        self.label_of_leaf = {v: l for l, v in self.leaf_of_label.items()}
        self.adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(num_vertices)}
        for idx, (u, v) in enumerate(self.edges):
            self.adj[u].append((idx, v))
            self.adj[v].append((idx, u))
        # role tags, present on Y-trees and caterpillars
        self.stalk_edges = dict(stalk_edges or {})   # stalk number -> edge index
        self.base_edges = dict(base_edges or {})     # base edge number -> edge index
        self._validate()
        self._path_cache: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def _validate(self) -> None:
        assert len(self.edges) == self.num_vertices - 1, "not a tree"
        degs = [len(self.adj[v]) for v in range(self.num_vertices)]
        assert all(d in (1, 3) for d in degs), "vertex of valence not in {1,3}"
        leaves = {v for v, d in enumerate(degs) if d == 1}
        assert set(self.label_of_leaf) == leaves, "leaf labels must cover the leaves"
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for _, w in self.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == self.num_vertices, "tree is not connected"

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_of_label)

    def leaves(self) -> list[int]:
        """Leaf labels in increasing order."""
        return sorted(self.leaf_of_label)

    def trinodes(self) -> list[int]:
        return [v for v in range(self.num_vertices) if len(self.adj[v]) == 3]

    def path_between_vertices(self, u: int, w: int):
        """(vertex tuple, edge index tuple) of the geodesic from u to w."""
        key = (u, w)
        hit = self._path_cache.get(key)
        if hit is not None:
            return hit
        prev: dict[int, tuple[int, int] | None] = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == w:
                break
            for idx, y in self.adj[x]:
                if y not in prev:
                    prev[y] = (x, idx)
                    stack.append(y)
        verts = [w]
        eidx = []
        x = w
        while prev[x] is not None:
            p, idx = prev[x]
            eidx.append(idx)
            verts.append(p)
            x = p
        result = (tuple(reversed(verts)), tuple(reversed(eidx)))
        self._path_cache[key] = result
        self._path_cache[(w, u)] = (result[0][::-1], result[1][::-1])
        return result

    def leaf_path(self, label1: int, label2: int):
        return self.path_between_vertices(self.leaf_of_label[label1],
                                          self.leaf_of_label[label2])

    def is_matched(self) -> bool:
        """More than four vertices and every leaf in a matched pair."""
        if self.num_vertices <= 4:
            return False
        for v in self.label_of_leaf:
            (_, trinode), = self.adj[v]
            mates = [w for _, w in self.adj[trinode]
                     if w != v and w in self.label_of_leaf]
            if len(mates) != 1:
                return False
        return True

    def serialize(self) -> str:
        edges = ",".join(f"{u}-{v}" for u, v in self.edges)
        leaves = ",".join(f"{v}:{l}" for l, v in sorted(self.leaf_of_label.items()))
        return f"tree {{ vertices={self.num_vertices}; edges={edges}; leaves={leaves} }}"

    @classmethod
    def parse(cls, text: str) -> "TrivalentTree":
        m = re.match(r"\s*tree\s*\{\s*vertices=(\d+);\s*edges=([^;]*);\s*"
                     r"leaves=([^}]*)\}\s*$", text)
        if not m:
            raise ValueError(f"bad tree text: {text!r}")
        k = int(m.group(1))
        edges = []
        for part in m.group(2).split(","):
            u, v = part.strip().split("-")
            edges.append((int(u), int(v)))
        leaves = {}
        for part in m.group(3).split(","):
            v, l = part.strip().split(":")
            leaves[int(l)] = int(v)
        return cls(k, edges, leaves)


@lru_cache(maxsize=None)
def build_y_tree(r: int) -> TrivalentTree:
    """The r-th Y-tree: r Y's in a row, 2r leaves labeled 1..2r left to right.

    Leaf labels follow the circular embedding, so the i-th Y carries labels
    2i-1 and 2i (a matched pair).  Stalk i is the internal edge of the i-th Y;
    base edges join consecutive base vertices.
    """
    if r < 3:
        raise ValueError("Y-trees need r >= 3")
    vertex = {}
    counter = 0

    def new_vertex(name):
        nonlocal counter
        vertex[name] = counter
        counter += 1
        return vertex[name]

    end_l = new_vertex("EL")
    end_r = new_vertex("ER")
    for i in range(2, r):
        new_vertex(("base", i))
        new_vertex(("up", i))
    leaf_labels = {}
    edges = []
    for i in range(1, r + 1):
        if i == 1:
            joint = end_l
        elif i == r:
            joint = end_r
        else:
            joint = vertex[("up", i)]
        for label in (2 * i - 1, 2 * i):
            lv = new_vertex(("leaf", label))
            leaf_labels[label] = lv
            edges.append((joint, lv))
    stalk_pairs = {}
    stalk_pairs[1] = (end_l, vertex[("base", 2)])
    for i in range(2, r):
        stalk_pairs[i] = (vertex[("base", i)], vertex[("up", i)])
    stalk_pairs[r] = (vertex[("base", r - 1)], end_r)
    base_pairs = {j: (vertex[("base", j)], vertex[("base", j + 1)])
                  for j in range(2, r - 1)}
    edges.extend(stalk_pairs.values())
    edges.extend(base_pairs.values())
    tree = TrivalentTree(counter, edges, leaf_labels)
    index = {tuple(sorted(e)): i for i, e in enumerate(tree.edges)}
    tree.stalk_edges = {i: index[tuple(sorted(p))] for i, p in stalk_pairs.items()}
    tree.base_edges = {j: index[tuple(sorted(p))] for j, p in base_pairs.items()}
    return tree


@lru_cache(maxsize=None)
def build_caterpillar(r: int) -> TrivalentTree:
    """The r-th caterpillar: truncation of the r-th Y-tree, leaves labeled 1..r."""
    if r < 3:
        raise ValueError("caterpillars need r >= 3")
    # vertices: leaf 1 (left end), base vertices 2..r-1, pendant tops, leaf r
    vertex = {}
    counter = 0

    def new_vertex(name):
        nonlocal counter
        vertex[name] = counter
        counter += 1
        return vertex[name]

    left = new_vertex("L")
    right = new_vertex("R")
    for i in range(2, r):
        new_vertex(("base", i))
        new_vertex(("top", i))
    leaf_labels = {1: left, r: right}
    for i in range(2, r):
        leaf_labels[i] = vertex[("top", i)]
    stalk_pairs = {1: (left, vertex[("base", 2)]),
                   r: (vertex[("base", r - 1)], right)}
    for i in range(2, r):
        stalk_pairs[i] = (vertex[("base", i)], vertex[("top", i)])
    base_pairs = {j: (vertex[("base", j)], vertex[("base", j + 1)])
                  for j in range(2, r - 1)}
    edges = list(stalk_pairs.values()) + list(base_pairs.values())
    tree = TrivalentTree(counter, edges, leaf_labels)
    index = {tuple(sorted(e)): i for i, e in enumerate(tree.edges)}
    tree.stalk_edges = {i: index[tuple(sorted(p))] for i, p in stalk_pairs.items()}
    tree.base_edges = {j: index[tuple(sorted(p))] for j, p in base_pairs.items()}
    return tree


@dataclass(frozen=True)
class TreeWeighting:
    """Non-negative integer weights on the edges of a trivalent tree."""

    tree: TrivalentTree
    weights: tuple[int, ...]
    reduced: bool = False
    degree: int | None = None  # stored bound for reduced regular weightings

    def __post_init__(self):
        assert len(self.weights) == len(self.tree.edges)
        assert all(w >= 0 for w in self.weights)

    def weight_triple(self, trinode: int) -> tuple[int, int, int]:
        return tuple(self.weights[idx] for idx, _ in self.tree.adj[trinode])

    def is_admissible(self) -> bool:
        # admissible_triple inlined: greedy_graph calls this after every
        # geodesic it subtracts, and the call per trinode costs measurably
        for v in self.tree.trinodes():
            a, b, c = self.weight_triple(v)
            if max(a, b, c) * 2 > a + b + c:
                return False
            if not self.reduced and (a + b + c) % 2:
                return False
        return True

    def leaf_edge_weight(self, label: int) -> int:
        leaf = self.tree.leaf_of_label[label]
        (idx, _), = self.tree.adj[leaf]
        return self.weights[idx]

    def is_regular(self, d: int) -> bool:
        if self.reduced:
            return all(self.leaf_edge_weight(l) <= d for l in self.tree.leaves())
        return all(self.leaf_edge_weight(l) == d for l in self.tree.leaves())

    def __add__(self, other: "TreeWeighting") -> "TreeWeighting":
        assert self.tree is other.tree and self.reduced == other.reduced
        deg = None
        if self.degree is not None and other.degree is not None:
            deg = self.degree + other.degree
        return TreeWeighting(self.tree,
                             tuple(a + b for a, b in zip(self.weights, other.weights)),
                             self.reduced, deg)

    def __eq__(self, other) -> bool:
        return isinstance(other, TreeWeighting) and self.tree is other.tree \
            and self.weights == other.weights and self.reduced == other.reduced

    def __hash__(self):
        return hash((id(self.tree), self.weights, self.reduced))

    def serialize(self) -> str:
        ws = ",".join(f"{u}-{v}:{w}" for (u, v), w in zip(self.tree.edges, self.weights))
        return self.tree.serialize()[:-1].rstrip() + f"; weights={ws} }}"

    @classmethod
    def parse(cls, text: str, reduced: bool = False) -> "TreeWeighting":
        m = re.match(r"(.*);\s*weights=([^}]*)\}\s*$", text, re.DOTALL)
        if not m:
            raise ValueError(f"no weights section in {text!r}")
        tree = TrivalentTree.parse(m.group(1).rstrip() + " }")
        weights = [0] * len(tree.edges)
        index = {e: i for i, e in enumerate(tree.edges)}
        for part in m.group(2).split(","):
            pair, w = part.strip().rsplit(":", 1)
            u, v = (int(x) for x in pair.split("-"))
            weights[index[tuple(sorted((u, v)))]] = int(w)
        return cls(tree, tuple(weights), reduced=reduced)


def zero_weighting(tree: TrivalentTree, reduced: bool = False) -> TreeWeighting:
    return TreeWeighting(tree, (0,) * len(tree.edges), reduced,
                         0 if reduced else None)


def level(edges, tree: TrivalentTree) -> int:
    """Total geodesic edge count of a graph drawn in the tree."""
    total = 0
    for a, b in edges:
        total += len(tree.leaf_path(a, b)[1])
    return total


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
    """Rebuild a graph from an admissible (non-reduced) weighting.

    Repeatedly walk from the smallest-labeled leaf with nonzero weight,
    continuing along the heavier edge at every trinode (ties: smaller vertex
    index), and subtract the traced geodesic.  Heavier-edge walks keep the
    remainder admissible; that is asserted after every subtraction, so a
    violation points at a bad input rather than looping forever.
    """
    assert not w.reduced
    assert w.is_admissible(), "input weighting is not admissible"
    tree = w.tree
    weights = list(w.weights)
    out = []

    def leaf_weight(label):
        (idx, _), = tree.adj[tree.leaf_of_label[label]]
        return weights[idx]

    while True:
        start = next((l for l in tree.leaves() if leaf_weight(l) > 0), None)
        if start is None:
            break
        v_prev = tree.leaf_of_label[start]
        (idx, cur), = tree.adj[v_prev]
        path = [idx]
        while cur not in tree.label_of_leaf:
            options = [(jdx, nxt) for jdx, nxt in tree.adj[cur] if nxt != v_prev]
            options.sort(key=lambda t: (-weights[t[0]], t[1]))
            jdx, nxt = options[0]
            path.append(jdx)
            v_prev, cur = cur, nxt
        end = tree.label_of_leaf[cur]
        for idx in path:
            weights[idx] -= 1
            assert weights[idx] >= 0, "greedy walk exhausted an edge"
        probe = TreeWeighting(tree, tuple(weights))
        assert probe.is_admissible(), "greedy step broke admissibility"
        out.append((min(start, end), max(start, end)))
    assert all(x == 0 for x in weights)
    return tuple(sorted(out))


def truncate_tree(tree: TrivalentTree):
    """Delete the leaves of a matched tree; returns (truncation, edge map).

    New leaves are labeled 1, 2, ... in increasing old-vertex order; the edge
    map sends surviving old edge indices to new ones.
    """
    assert tree.is_matched(), "truncation needs a matched tree"
    keep = [v for v in range(tree.num_vertices) if v not in tree.label_of_leaf]
    new_index = {v: i for i, v in enumerate(keep)}
    new_edges = []
    edge_map = {}
    for idx, (u, v) in enumerate(tree.edges):
        if u in new_index and v in new_index:
            edge_map[idx] = len(new_edges)
            new_edges.append((new_index[u], new_index[v]))
    deg = {i: 0 for i in range(len(keep))}
    for u, v in new_edges:
        deg[u] += 1
        deg[v] += 1
    new_leaves = {}
    label = 0
    for v in sorted(deg):
        if deg[v] == 1:
            label += 1
            new_leaves[label] = v
    out = TrivalentTree(len(keep), new_edges, new_leaves)
    out_index = {tuple(sorted(e)): i for i, e in enumerate(out.edges)}
    remap = {}
    for old_idx, pos in edge_map.items():
        u, v = new_edges[pos]
        remap[old_idx] = out_index[tuple(sorted((u, v)))]
    return out, remap


def _is_y_tree(tree: TrivalentTree) -> bool:
    r = len(tree.stalk_edges)
    return r >= 3 and tree.num_leaves == 2 * r and \
        len(tree.base_edges) == max(r - 3, 0)


def truncate(w: TreeWeighting) -> TreeWeighting:
    """Halve the interior weights of a regular weighting on a matched tree.

    Y-tree weightings land on the matching caterpillar via the stalk and
    base-edge role tags; other matched trees go through the generic
    truncation with freshly numbered leaves.
    """
    assert not w.reduced
    tree = w.tree
    degrees = {w.leaf_edge_weight(l) for l in tree.leaves()}
    assert len(degrees) == 1, "weighting is not regular"
    d = degrees.pop()

    def halve(value: int) -> int:
        if value % 2:
            raise ValueError("odd interior weight; cannot truncate")
        return value // 2

    if _is_y_tree(tree):
        cat = build_caterpillar(len(tree.stalk_edges))
        weights = [0] * len(cat.edges)
        for i, idx in tree.stalk_edges.items():
            weights[cat.stalk_edges[i]] = halve(w.weights[idx])
        for j, idx in tree.base_edges.items():
            weights[cat.base_edges[j]] = halve(w.weights[idx])
        return TreeWeighting(cat, tuple(weights), reduced=True, degree=d)
    trunc, remap = truncate_tree(tree)
    new_weights = [0] * len(trunc.edges)
    for old_idx, new_idx in remap.items():
        new_weights[new_idx] = halve(w.weights[old_idx])
    return TreeWeighting(trunc, tuple(new_weights), reduced=True, degree=d)


def untruncate(wred: TreeWeighting, original: TrivalentTree) -> TreeWeighting:
    """Inverse of truncate: double interior weights, leaf edges get the degree."""
    assert wred.reduced and wred.degree is not None
    weights = [0] * len(original.edges)
    if _is_y_tree(original) and \
            wred.tree is build_caterpillar(len(original.stalk_edges)):
        cat = wred.tree
        for i, idx in original.stalk_edges.items():
            weights[idx] = 2 * wred.weights[cat.stalk_edges[i]]
        for j, idx in original.base_edges.items():
            weights[idx] = 2 * wred.weights[cat.base_edges[j]]
    else:
        trunc, remap = truncate_tree(original)
        assert trunc.edges == wred.tree.edges and \
            trunc.leaf_of_label == wred.tree.leaf_of_label, "trees do not match"
        for old_idx, new_idx in remap.items():
            weights[old_idx] = 2 * wred.weights[new_idx]
    for label in original.leaves():
        leaf = original.leaf_of_label[label]
        (idx, _), = original.adj[leaf]
        weights[idx] = wred.degree
    out = TreeWeighting(original, tuple(weights))
    assert out.is_admissible()
    return out


def admissible_triple(a: int, b: int, c: int, reduced: bool = False) -> bool:
    """Triangle inequalities at one trinode; an even sum too unless reduced."""
    return 2 * max(a, b, c) <= a + b + c and (reduced or (a + b + c) % 2 == 0)


def _completion_counts(tree: TrivalentTree, d: int):
    """The DP shared by counting and enumeration, hung from leaf 1's edge.

    Returns (table, root_edge, below, children): ``children[v]`` lists the
    (edge, vertex) pairs under trinode v, and ``table[e]`` maps a weight on
    edge e to the number of admissible completions of the subtree under e
    with every leaf edge weighted d.
    """
    root_leaf = tree.leaf_of_label[min(tree.leaf_of_label)]
    (root_edge, below), = tree.adj[root_leaf]
    children: dict[int, list[tuple[int, int]]] = {}
    table: dict[int, dict[int, int]] = {}

    def fill(e: int, v: int, parent: int) -> None:
        if v in tree.label_of_leaf:
            table[e] = {d: 1}
            return
        children[v] = [(idx, w) for idx, w in tree.adj[v] if w != parent]
        (e1, c1), (e2, c2) = children[v]
        fill(e1, c1, v)
        fill(e2, c2, v)
        out: dict[int, int] = {}
        for w1, n1 in table[e1].items():
            for w2, n2 in table[e2].items():
                # the triangle inequalities bound w; stepping by 2 keeps
                # w + w1 + w2 even
                for w in range(abs(w1 - w2), w1 + w2 + 1, 2):
                    out[w] = out.get(w, 0) + n1 * n2
        table[e] = out

    fill(root_edge, below, root_leaf)
    return table, root_edge, below, children


def count_admissible_regular(tree: TrivalentTree, d: int) -> int:
    """Number of admissible weightings regular of degree d (exact DP)."""
    table, root_edge, _, _ = _completion_counts(tree, d)
    return table[root_edge].get(d, 0)


def enumerate_admissible_regular(tree: TrivalentTree, d: int):
    """Yield every admissible weighting regular of degree d, DP-pruned."""
    table, root_edge, below, children = _completion_counts(tree, d)
    weights = [0] * len(tree.edges)
    weights[root_edge] = d

    def gen(v: int, w: int):
        if v in tree.label_of_leaf:
            yield True  # leaf edges only take the table's one weight, d
            return
        (e1, c1), (e2, c2) = children[v]
        for w1 in sorted(table[e1]):
            for w2 in sorted(table[e2]):
                if not admissible_triple(w, w1, w2):
                    continue
                weights[e1], weights[e2] = w1, w2
                for _ in gen(c1, w1):
                    for _ in gen(c2, w2):
                        yield True

    for _ in gen(below, d):
        yield TreeWeighting(tree, tuple(weights))


def toric_plucker_applicable(tree: TrivalentTree, a: int, b: int, c: int, d: int) -> bool:
    """Does {ab, cd} -> {ac, bd} qualify for the toric Plucker relation?

    True iff the ab and cd geodesics meet and the ac and bd geodesics meet
    (vertex intersection; in a trivalent tree two meeting leaf geodesics
    always share an edge anyway).
    """
    assert len({a, b, c, d}) == 4, "leaves must be distinct"
    pab = set(tree.leaf_path(a, b)[0])
    pcd = set(tree.leaf_path(c, d)[0])
    if not pab & pcd:
        return False
    pac = set(tree.leaf_path(a, c)[0])
    pbd = set(tree.leaf_path(b, d)[0])
    return bool(pac & pbd)
