"""Symmetric powers of the degree-one invariants and the relation ideal.

A SymElement of degree k is a rational combination of monomials, each
monomial an unordered multiset of k perfect matchings (a k-colored graph with
the colors forgotten).  Monomials are written in the Y-convention: Y of a
matching is its X-graph directed min->max times the orientation sign of
that direction, so the coefficient of a monomial is the coefficient of the
product of the corresponding Y generators.  This module is the only place
that applies the convention (``_y_product``); ``invariant_ring`` sees only
X-graphs.  Kempe factorization writes a regular X-graph back as a
combination of Y-monomials.

Coordinates in Sym^k(V) are taken by integer matching ids (a matching's
position in ``noncrossing_matchings``): Y of a matching is cached as
``{id: coeff}``, and one table per (n, k) turns sorted ids into a column of
``sym_basis``, the monomial basis of multisets of non-crossing matchings.
The relation ideal in a fixed degree is the kernel of the projection onto
the invariant ring, an exact integer matrix over that basis and the
non-crossing graph basis.  Orbit spans of a relation are in ``symmetry_rep``.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod

from . import exact_linalg
from .graph_core import (
    Edge,
    GraphKey,
    canonicalize,
    catalan,
    check_labels,
    check_work,
    connected_component_partition,
    enumerate_noncrossing_regular,
    is_regular,
    json_coeff,
    json_edges,
    json_int,
    json_ints,
    json_layer,
    json_list,
    json_object,
    matching_key,
    noncrossing_matchings,
    orientation_sign,
    read_json,
    valences,
)
from .invariant_ring import Combination, RingElement, evaluate, straighten, straighten_graph

Monomial = tuple[GraphKey, ...]  # sorted multiset of matchings


@lru_cache(maxsize=None)
def matching_ids(n: int) -> dict[GraphKey, int]:
    """Non-crossing matching -> id, its position in ``noncrossing_matchings``."""
    return {m: i for i, m in enumerate(noncrossing_matchings(n))}


@lru_cache(maxsize=None)
def y_expansion(n: int, mkey: GraphKey) -> dict[int, int]:
    """Y of a matching in the non-crossing Y-basis, ``{matching id: coeff}``."""
    eps, ids = orientation_sign(mkey), matching_ids(n)
    return {ids[g]: eps * c * orientation_sign(g)
            for g, c in straighten_graph(n, mkey).items()}


@dataclass(frozen=True, eq=False)
class SymElement(Combination):
    """Finitely supported map {multiset of k matchings} -> Q."""

    n: int
    degree: int
    terms: dict[Monomial, Fraction]

    def shape(self) -> tuple[int, int]:
        return (self.n, self.degree)

    @classmethod
    def from_terms(cls, n: int, degree: int, items) -> "SymElement":
        def checked(key):
            key = tuple(sorted(matching_key(m) for m in key))
            if len(key) != degree:
                raise ValueError(f"monomial of {len(key)} matchings in degree {degree}")
            if any(2 * len(m) != n for m in key):
                raise ValueError(f"layers must be perfect matchings of 1..{n}")
            return key
        return cls._collect((n, degree), ((checked(key), c) for key, c in items))

    @classmethod
    def monomial(cls, n: int, matchings, coeff=1) -> "SymElement":
        return cls.from_terms(n, len(tuple(matchings)), [(tuple(matchings), coeff)])

    def __repr__(self):
        if not self.terms:
            return f"SymElement(n={self.n}, deg={self.degree}, 0)"
        bits = [f"{c}*{[list(m) for m in k]}" for k, c in sorted(self.terms.items())]
        return f"SymElement(n={self.n}, deg={self.degree}, " + " + ".join(bits) + ")"

    def to_json(self) -> str:
        terms = [{"coeff": str(c),
                  "monomial": [[list(e) for e in m] for m in key]}
                 for key, c in sorted(self.terms.items())]
        return json.dumps({"n": self.n, "degree": self.degree, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "SymElement":
        obj = read_json(text, "element")
        items = []
        for t in json_list(obj["terms"], "terms"):
            t = json_object(t, "term")
            mono = tuple(json_edges(m, "layer") for m in json_list(t["monomial"], "monomial"))
            items.append((mono, json_coeff(t["coeff"])))
        return cls.from_terms(json_int(obj["n"], "n"), json_int(obj["degree"], "degree"), items)


def _y_product(mono) -> tuple[int, GraphKey]:
    """(sign, sorted edges) with Y_m1 ... Y_mk = sign * X of the edges."""
    sign = 1
    edges: list = []
    for m in mono:
        sign *= orientation_sign(m)
        edges.extend(m)
    return sign, tuple(sorted(edges))


def _product_graphs(e: SymElement) -> RingElement:
    """Each monomial multiplied out to its product graph, not straightened."""
    items = []
    for mono, coeff in e.terms.items():
        sign, edges = _y_product(mono)
        items.append((edges, coeff * sign))
    return RingElement.from_terms(e.n, items)


def project_to_ring(e: SymElement) -> RingElement:
    """Multiply out each monomial (with Y-signs) and straighten the result."""
    return straighten(_product_graphs(e))


def evaluate_sym(e: SymElement, config) -> Fraction:
    """Evaluate the image of a SymElement at a point configuration.

    Each monomial's product graph is evaluated once, as a product of
    determinants, with no straightening involved, so it is an independent
    oracle for relations.
    """
    return evaluate(_product_graphs(e), config)


def _expand_monomial(n: int, mono, num: int, acc: dict[int, int]) -> None:
    """Add ``num`` times the product of the layers' Y-basis expansions to ``acc``,
    by column; the longest expansion's columns are read off ``_column_table``."""
    *head, last = sorted((y_expansion(n, m).items() for m in mono), key=len)
    table = _column_table(n, len(mono))
    for combo in itertools.product(*head):
        c = num * prod(a for _, a in combo)
        columns = table[tuple(sorted(i for i, _ in combo))]
        for j, a in last:
            col = columns[j]
            acc[col] = acc.get(col, 0) + c * a


def monomial_vector(n: int, mono) -> dict[int, int]:
    """Integer coordinates of one monomial of matchings, by ``sym_basis`` column.

    The same as ``coords_vector(SymElement.monomial(n, mono))`` for a monomial
    of perfect matchings in canonical form, without building the element.
    """
    acc: dict[int, int] = {}
    _expand_monomial(n, mono, 1, acc)
    return {col: c for col, c in acc.items() if c}


@lru_cache(maxsize=None)
def sym_basis(n: int, k: int) -> tuple[Monomial, ...]:
    """Monomial basis of Sym^k(V): sorted multisets of non-crossing matchings."""
    return tuple(itertools.combinations_with_replacement(noncrossing_matchings(n), k))


def coords_vector(e: SymElement) -> dict[int, int | Fraction]:
    """Coordinates in Sym^k(V), keyed by column of ``sym_basis(e.n, e.degree)``.

    Each term's products are summed as integers over the common denominator
    of the coefficients; by the number rule of ``exact_linalg``, the entries
    are ``int`` when that denominator is 1 and ``Fraction`` otherwise.
    """
    denom = lcm(*(c.denominator for c in e.terms.values()))
    acc: dict[int, int] = {}
    for mono, coeff in e.terms.items():
        _expand_monomial(e.n, mono, coeff.numerator * (denom // coeff.denominator), acc)
    if denom == 1:
        return {col: v for col, v in acc.items() if v}
    return {col: Fraction(v, denom) for col, v in acc.items() if v}


@lru_cache(maxsize=None)
def _column_table(n: int, k: int) -> dict[tuple[int, ...], list[int]]:
    """``table[p][j]``: the ``sym_basis(n, k)`` column of the ids p (sorted) plus j,
    for any id j; N * C(N + k - 2, k - 1) entries for N matchings."""
    size = len(noncrossing_matchings(n))
    table: dict[tuple[int, ...], list[int]] = {}
    for col, ids in enumerate(itertools.combinations_with_replacement(range(size), k)):
        for i in range(k):
            table.setdefault(ids[:i] + ids[i + 1:], [0] * size)[ids[i]] = col
    return table


def component_partition_of_monomial(n: int, mono: Monomial):
    edges = [e for m in mono for e in m]
    _, partition = connected_component_partition(n, edges)
    return partition


# --- outer multiplication -----------------------------------------------------

def outer_product(a: SymElement, b: SymElement) -> SymElement:
    """Disjoint-union product on 1..a.n+b.n, ``b`` shifted above ``a``.

    Layers are aligned by sorted list position; degrees must agree.
    """
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    shift = a.n
    items = []
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            layers = [la + tuple((x + shift, y + shift) for x, y in lb)
                      for la, lb in zip(ma, mb)]
            items.append((tuple(layers), ca * cb))
    return SymElement.from_terms(a.n + b.n, a.degree, items)


# --- Kempe factorization ------------------------------------------------------

def _find_perfect_matching(left, edges) -> list[Edge] | None:
    """Perfect matching in a bipartite multigraph by augmenting paths; each edge
    has its end in ``left`` first."""
    adj: dict[int, list[int]] = {u: [] for u in left}
    for a, b in edges:
        adj[a].append(b)
    match_r: dict[int, int] = {}

    def augment(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_r or augment(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    for u in left:
        if not augment(u, set()):
            return None
    return [(u, v) for v, u in match_r.items()]


def _peel_matchings(n: int, key: GraphKey, d: int) -> list[GraphKey]:
    """Split a d-regular bipartite-neutral graph into d matchings (Hall)."""
    pos = [v for v in range(1, n // 2 + 1)]
    remaining = list(key)
    layers = []
    for _ in range(d):
        m = _find_perfect_matching(pos, remaining)
        assert m is not None, "Hall factorization failed on a regular bipartite graph"
        layer = matching_key(m)
        layers.append(layer)
        for e in layer:
            remaining.remove(e)
    assert not remaining
    return layers


def _cycle_peel_two_regular(n: int, key: GraphKey):
    """Split a 2-regular graph into two matchings by alternating its cycles.

    Returns None when some cycle is odd.  Deterministic: each cycle is walked
    from its smallest vertex, and each step takes the first unused edge at the
    vertex reached, which opens layer 1 at the start.
    """
    at: dict[int, list[int]] = {}
    for idx, (a, b) in enumerate(key):
        at.setdefault(a, []).append(idx)
        at.setdefault(b, []).append(idx)
    used: set[int] = set()
    layers: tuple[list, list] = ([], [])
    for cur in sorted(at):
        parity = 0
        while (idx := next((i for i in at[cur] if i not in used), None)) is not None:
            used.add(idx)
            layers[parity].append(key[idx])
            parity ^= 1
            a, b = key[idx]
            cur = b if cur == a else a
        if parity:
            return None  # odd cycle
    return tuple(sorted(layers[0])), tuple(sorted(layers[1]))


def kempe_factor(n: int, edges):
    """Write a regular graph as a combination of products of d matchings.

    The degree d is the graph's valence; an irregular graph or odd n raises.

    A matching maps to itself and a 2-regular union of even cycles peels
    directly by alternation; otherwise the +/- split is fixed (positives
    1..n/2, negatives n/2+1..n), and the first positive edge ab is Pluckered
    against the first negative edge ce, X_ab X_ce = X_ac X_be - X_ae X_bc,
    until everything is neutral; each bipartite term is factored into matchings
    via Hall's theorem.  Each step trades one positive edge, so p of them give
    at most 2^(p+1) graphs, refused over ``WORK_BUDGET`` before any step.  The
    image in the ring always straightens to the same expansion as X of the input.
    """
    if n % 2:
        raise ValueError(f"no perfect matchings of 1..{n}: n is odd")
    cf = canonicalize(edges)
    if cf.sign == 0:
        raise ValueError("graph has a loop")
    d = max(valences(n, cf.graph))
    if not is_regular(n, cf.graph, d):
        raise ValueError("graph is not regular")
    if d == 0:
        raise ValueError("degree must be >= 1")
    if d == 1:
        return SymElement.from_terms(
            n, 1, [((cf.graph,), Fraction(cf.sign * orientation_sign(cf.graph)))])
    if d == 2:
        peeled = _cycle_peel_two_regular(n, cf.graph)
        if peeled is not None:
            sign = cf.sign * _y_product(peeled)[0]
            return SymElement.from_terms(n, 2, [(peeled, Fraction(sign))])
    half = n // 2
    # a canonical edge (a, b) has a < b: positive iff b <= n/2, negative iff a > n/2,
    # so positive edges sort before negative ones, and the new edges are canonical
    positive = sum(1 for _, b in cf.graph if b <= half)
    check_work(f"the Kempe lift at n={n}", 2 ** (positive + 1) * len(cf.graph))
    work: dict[GraphKey, int] = {cf.graph: cf.sign}
    done: dict[GraphKey, int] = {}
    while work:
        key, coeff = work.popitem()
        i = next((i for i, (_, b) in enumerate(key) if b <= half), None)
        if i is None:
            assert all(a <= half for a, _ in key), "a negative edge with no positive one"
            done[key] = done.get(key, 0) + coeff
            continue
        j = next(j for j, (c, _) in enumerate(key) if c > half)
        (a, b), (c, e) = key[i], key[j]
        rest = key[:i] + key[i + 1:j] + key[j + 1:]
        for pair, sign in ((((a, e), (b, c)), -1), (((a, c), (b, e)), 1)):
            child = tuple(sorted(rest + pair))
            work[child] = work.get(child, 0) + coeff * sign
    terms = []
    for key, coeff in done.items():
        if not coeff:
            continue
        layers = _peel_matchings(n, key, d)
        sign = _y_product(layers)[0]
        terms.append((tuple(sorted(layers)), Fraction(coeff * sign)))
    return SymElement.from_terms(n, d, terms)


# --- relation constructors ------------------------------------------------------

def recoloring_relation(n: int, layers_left, layers_right) -> SymElement:
    """Y-monomial difference of two colorings of one underlying graph.

    Both sides must have the same edge multiset; the relative sign is fixed by
    the Y-convention, so the difference projects to zero in the ring.
    """
    left = tuple(matching_key(m) for m in layers_left)
    right = tuple(matching_key(m) for m in layers_right)
    sign_l, union_l = _y_product(left)
    sign_r, union_r = _y_product(right)
    if union_l != union_r:
        raise ValueError("recoloring must preserve the edge multiset")
    return SymElement.from_terms(
        n, len(left), [(left, 1), (right, -sign_l * sign_r)])


def segre_cubic() -> SymElement:
    """The Segre cubic relation on six points, hexagon 1..6 in circular order."""
    red = ((1, 2), (3, 6), (4, 5))
    blue = ((1, 4), (2, 3), (5, 6))
    green = ((1, 6), (2, 5), (3, 4))
    red2 = ((1, 4), (2, 5), (3, 6))
    blue2 = ((1, 2), (3, 4), (5, 6))
    green2 = ((1, 6), (2, 3), (4, 5))
    return recoloring_relation(6, (red, blue, green), (red2, blue2, green2))


def segre8() -> SymElement:
    """The eight-point cubic: Segre hexagon on 1..6 plus a tripled edge 7-8."""
    return outer_product(segre_cubic(),
                         SymElement.monomial(2, (((1, 2),),) * 3))


def _check_layer(n: int, layer: GraphKey, name: str) -> None:
    """Raise ``ValueError`` unless a layer is a perfect matching of 1..n."""
    if 2 * len(matching_key(layer)) != n:
        raise ValueError(f"{name} is not a perfect matching of 1..{n}")


@dataclass(frozen=True)
class BinomialQuadDatum:
    """2-colored regular graph plus a subset U not split by any edge."""

    n: int
    u: frozenset[int]
    layer1: GraphKey
    layer2: GraphKey

    def validate(self) -> None:
        _check_layer(self.n, self.layer1, "color1")
        _check_layer(self.n, self.layer2, "color2")
        if not set(self.u) <= set(range(1, self.n + 1)):
            raise ValueError(f"U = {sorted(self.u)} is not inside 1..{self.n}")
        for a, b in itertools.chain(self.layer1, self.layer2):
            if (a in self.u) != (b in self.u):
                raise ValueError(f"edge ({a},{b}) crosses U")

    def recolored(self) -> tuple[GraphKey, GraphKey]:
        move1 = [e for e in self.layer1 if e[0] in self.u]
        keep1 = [e for e in self.layer1 if e[0] not in self.u]
        move2 = [e for e in self.layer2 if e[0] in self.u]
        keep2 = [e for e in self.layer2 if e[0] not in self.u]
        return (tuple(sorted(keep1 + move2)), tuple(sorted(keep2 + move1)))

    @classmethod
    def from_json_dict(cls, obj) -> "BinomialQuadDatum":
        return cls(json_int(obj["n"], "n"), frozenset(json_ints(obj["U"], "U")),
                   matching_key(json_layer(obj["color1"], "color1")),
                   matching_key(json_layer(obj["color2"], "color2")))


def simple_binomial(d: BinomialQuadDatum) -> SymElement:
    """Rel(D) = Y_Gamma - Y_Gamma' with the colors inverted inside U."""
    d.validate()
    if len(d.u) != 4:
        raise ValueError("datum is not simple (|U| != 4)")
    return recoloring_relation(d.n, (d.layer1, d.layer2), d.recolored())


def simplest_binomial(cycle_a, cycle_b, doubled_rest=()) -> SymElement:
    """The simplest binomial relation: recolor one of two 4-cycles.

    ``cycle_a`` and ``cycle_b`` are 4-tuples (w, x, y, z) read as the 4-cycle
    w-x-y-z with color-1 edges {wx, yz} and color-2 edges {xy, zw};
    ``doubled_rest`` is a matching on the remaining labels, doubled in both
    colors.  U is the vertex set of ``cycle_b``.
    """
    for cycle in (cycle_a, cycle_b):
        if len(cycle) != 4:
            raise ValueError(f"a cycle needs 4 labels, got {list(cycle)}")
    rest = [tuple(e) for e in doubled_rest]
    labels = set(cycle_a) | set(cycle_b)
    for a, b in rest:
        labels.update((a, b))
    n = max(labels)
    if len(labels) != len(cycle_a) + len(cycle_b) + 2 * len(rest):
        raise ValueError("vertex sets overlap")

    def cyc(c):
        w, x, y, z = c
        return [(w, x), (y, z)], [(x, y), (z, w)]

    a1, a2 = cyc(cycle_a)
    b1, b2 = cyc(cycle_b)
    layer1 = tuple(sorted(matching_key(a1 + b1 + rest)))
    layer2 = tuple(sorted(matching_key(a2 + b2 + rest)))
    datum = BinomialQuadDatum(n, frozenset(cycle_b), layer1, layer2)
    return simple_binomial(datum)


@dataclass(frozen=True)
class GenSegreDatum:
    """A 3-colored graph on a 3-part even partition, one part per color: an edge
    between two parts has the third color, the one neither part has."""

    n: int
    u_red: frozenset[int]
    u_green: frozenset[int]
    u_blue: frozenset[int]
    red: GraphKey
    green: GraphKey
    blue: GraphKey

    def parts(self) -> dict[str, frozenset[int]]:
        return {"red": self.u_red, "green": self.u_green, "blue": self.u_blue}

    def part_of(self) -> dict[int, str]:
        """Label -> the color of its part."""
        return {v: name for name, p in self.parts().items() for v in p}

    def layers(self) -> dict[str, GraphKey]:
        return {"red": matching_key(self.red),
                "green": matching_key(self.green),
                "blue": matching_key(self.blue)}

    def validate(self) -> None:
        for name, p in self.parts().items():
            if not p or len(p) % 2:
                raise ValueError(f"part {name} must be even and nonempty")
        if sorted(itertools.chain(*self.parts().values())) != list(range(1, self.n + 1)):
            raise ValueError("parts must partition the labels")
        for color, layer in self.layers().items():
            _check_layer(self.n, layer, color)
        part, cross = self.part_of(), self.cross_edges()
        for third, edges in cross.items():
            for color, (a, b) in edges:
                if color != third:
                    raise ValueError(f"edge ({a},{b}) between {part[a]},{part[b]} must be "
                                     f"{third}, got {color}")
        for third, edges in cross.items():
            if len(edges) not in (0, 2):
                raise ValueError(f"{len(edges)} edges between {sorted(set(cross) - {third})}, "
                                 "need 0 or 2")

    def cross_edges(self) -> dict[str, list[tuple[str, Edge]]]:
        """The edges between two parts, ``{third color: [(color, edge)]}``."""
        part = self.part_of()
        cross: dict[str, list] = {name: [] for name in self.parts()}
        for color, layer in self.layers().items():
            for a, b in layer:
                if part[a] != part[b]:
                    third, = set(cross) - {part[a], part[b]}
                    cross[third].append((color, (a, b)))
        return cross

    def black_purple(self) -> tuple[GraphKey, GraphKey]:
        """Recolor: own-color edges inside each part go black, the rest purple."""
        part, black, purple = self.part_of(), [], []
        for color, layer in self.layers().items():
            for a, b in layer:
                (black if part[a] == part[b] == color else purple).append((a, b))
        return tuple(sorted(black)), tuple(sorted(purple))

    def is_degenerate(self) -> bool:
        """Missing special pair, or special pairs disconnected inside a part; a
        part's two pairs are those of the two other colors, and one component
        pass serves every part, as no edge inside a part leaves it."""
        part, cross = self.part_of(), self.cross_edges()
        if any(not v for v in cross.values()):
            return True
        inside = [(a, b) for layer in self.layers().values() for a, b in layer
                  if part[a] == part[b]]
        blocks, _ = connected_component_partition(self.n, inside)
        comp_of = {v: i for i, blk in enumerate(blocks) for v in blk}
        for name in cross:
            first, second = ({comp_of[v] for _, e in edges for v in e if part[v] == name}
                             for third, edges in cross.items() if third != name)
            if first.isdisjoint(second):
                return True
        return False

    @classmethod
    def from_json_dict(cls, obj) -> "GenSegreDatum":
        parts = [frozenset(json_ints(obj[k], k)) for k in ("UR", "UG", "UB")]
        layers = [matching_key(json_layer(obj[c], c)) for c in ("red", "green", "blue")]
        return cls(sum(map(len, parts)), *parts, *layers)


def _kempe_lift(n: int, purple, black) -> SymElement:
    """A lift of X of purple + black: Kempe-factor the purple graph and append
    the black matching, with the black matching's orientation sign."""
    black = matching_key(black)
    sign, lift = orientation_sign(black), kempe_factor(n, canonicalize(purple).graph)
    return SymElement.from_terms(n, lift.degree + 1,
                                 [(mono + (black,), c * sign) for mono, c in lift.terms.items()])


def generalized_segre(s: GenSegreDatum) -> SymElement:
    """Y of the datum minus a Sym^3 lift of its black/purple recoloring.

    The lift factors the purple 2-regular layer into matchings with the fixed
    Kempe split, so the element is canonical only modulo the quadratic ideal;
    it projects to exactly zero regardless.
    """
    s.validate()
    layers = s.layers()
    black, purple = s.black_purple()
    assert all(v == 1 for v in valences(s.n, black)[1:]), "black layer not a matching"
    assert all(v == 2 for v in valences(s.n, purple)[1:]), "purple layer not 2-regular"
    lift = _kempe_lift(s.n, purple, black).scale(_y_product(layers.values())[0])
    lead = SymElement.monomial(s.n, (layers["red"], layers["green"], layers["blue"]))
    return lead - lift


@dataclass(frozen=True)
class SquareRotationDatum:
    """Purple/black graph with a 4-set U of purple path endpoints.

    ``u`` is stored as the square's corner order (u1, u2, u3, u4); the
    associated relation swaps colors on the appended square.
    """

    n: int
    u: tuple[int, int, int, int]
    purple: GraphKey
    black: GraphKey

    def validate(self) -> None:
        if len(self.u) != 4 or len(set(self.u)) != 4 or not all(1 <= v <= self.n for v in self.u):
            raise ValueError(f"U = {list(self.u)} must be 4 distinct labels in 1..{self.n}")
        check_labels(self.n, self.purple + self.black)
        # counted by label, so a huge n with few edges stops at its first bare label
        pv, bv = Counter(itertools.chain(*self.purple)), Counter(itertools.chain(*self.black))
        for v in range(1, self.n + 1):
            want_p, want_b = (1, 0) if v in self.u else (2, 1)
            if pv[v] != want_p or bv[v] != want_b:
                raise ValueError(f"valences at {v}: purple {pv[v]} black {bv[v]}")

    def special_paths(self) -> list[list[int]]:
        """The two purple paths ending in U, each as its vertices in increasing
        order: the purple components that meet U.  On a datum that passes
        ``validate``, purple has valence 1 on U and 2 elsewhere, so such a
        component is a path with both ends in U, and any other is a cycle."""
        blocks, _ = connected_component_partition(self.n, self.purple)
        return [sorted(b) for b in blocks if not b.isdisjoint(self.u)]

    @classmethod
    def from_json_dict(cls, obj) -> "SquareRotationDatum":
        return cls(json_int(obj["n"], "n"), tuple(json_ints(obj["U"], "U")),
                   json_layer(obj["purple"], "purple"), json_layer(obj["black"], "black"))


def square_rotation(p: SquareRotationDatum) -> SymElement:
    """Append the square swap to the datum and lift both sides to Sym^3."""
    p.validate()
    u1, u2, u3, u4 = p.u
    square, rotated = ((u1, u2), (u3, u4)), ((u1, u4), (u2, u3))
    return _kempe_lift(p.n, p.purple + square, p.black + rotated) \
        - _kempe_lift(p.n, p.purple + rotated, p.black + square)


# --- ideal components, spans, dimensions ---------------------------------------

def sym_work(n: int, k: int) -> int:
    """Units to build Sym^k at n, or ``ValueError`` over ``WORK_BUDGET``: kn/2 edges
    for each of the C(n, 2) (k + 1)^2 entries of the row enumeration's table,
    checked first, and of the C(Catalan(n/2) + k - 1, k) columns."""
    if n < 2 or n % 2 or k < 1:
        raise ValueError(f"need even n >= 2 and k >= 1, got n={n}, k={k}")
    what, edges = f"Sym^{k} at n={n}", k * n // 2
    table = check_work(what, comb(n, 2) * (k + 1) ** 2 * edges)
    return check_work(what, table + comb(catalan(n // 2) + k - 1, k) * edges)


@lru_cache(maxsize=None)
def relation_matrix(n: int, k: int) -> exact_linalg.QMatrix:
    """Matrix of the projection Sym^k(V) -> R^(k) in the canonical bases.

    Rows: non-crossing k-regular graphs (lex order).  Columns: sorted
    monomial multisets of non-crossing matchings (lex order).  Refused
    before any work over ``WORK_BUDGET`` by ``sym_work``.
    """
    sym_work(n, k)
    rows = enumerate_noncrossing_regular(n, k)
    row_index = {g: i for i, g in enumerate(rows)}
    basis = sym_basis(n, k)
    m = exact_linalg.QMatrix(len(rows), len(basis))
    for j, mono in enumerate(basis):
        sign, edges = _y_product(mono)
        for g, c in straighten_graph(n, edges).items():
            m.set(row_index[g], j, sign * c)
    return m.freeze()


@lru_cache(maxsize=None)
def ideal_component_dim(n: int, k: int) -> int:
    """dim I^(k) = dim Sym^k(V) - dim R^(k), by exact rank within ``WORK_BUDGET``."""
    m = relation_matrix(n, k)
    return m.cols - exact_linalg.rank(m)


def ideal_kernel_basis(n: int, k: int) -> list[dict[int, int]]:
    """Exact basis of I^(k), each a primitive ``{column of sym_basis: int}``."""
    return exact_linalg.kernel_basis(relation_matrix(n, k))


@lru_cache(maxsize=None)
def _quadratic_ideal_span(n: int):
    """V-multiples of the quadratic relations and their span, built once per n.

    The kernel vectors are primitive integer rows, so the multiples, the
    span's reductions and ``matvec`` on them run on ``int``s.  Shared by
    every caller; none may add to the span or change a vector.
    """
    sym_work(n, 3)  # there are at most as many multiples as Sym^3 columns
    quads = ideal_kernel_basis(n, 2)
    ids, table = matching_ids(n), _column_table(n, 3)
    times = [table[ids[a], ids[b]] for a, b in sym_basis(n, 2)]
    # multiplying by v maps distinct quadratic monomials to distinct cubic
    # ones, so each product has exactly the nonzeros of q
    vectors = [{times[j][v]: c for j, c in q.items()}
               for v in range(len(ids)) for q in quads]
    span = exact_linalg.IncrementalSpan(len(sym_basis(n, 3)))
    for vec in vectors:
        span.add(vec)
    return tuple(vectors), span


def quadratic_ideal_component(n: int):
    """Spanning set and dimension of Q^(3): V-multiples of quadratic relations."""
    vectors, span = _quadratic_ideal_span(n)
    return [dict(vec) for vec in vectors], span.dim


def in_quadratic_ideal(e: SymElement) -> bool:
    """Membership of a cubic element in Q^(3), by exact span arithmetic."""
    if e.degree != 3:
        raise ValueError(f"Q^(3) holds cubic elements, got degree {e.degree}")
    _, span = _quadratic_ideal_span(e.n)
    return span.contains(coords_vector(e))


def count_good_bipartitions(n: int) -> int:
    """Bipartitions (P, Q), |P| = 6, with few Q-elements above P's 2nd smallest."""
    if n not in (10, 12):
        raise ValueError("good bipartitions are defined for n in {10, 12}")
    allowed_excess = 1 if n == 10 else 2
    count = 0
    labels = range(1, n + 1)
    for p in itertools.combinations(labels, 6):
        cutoff = sorted(p)[1]
        q = [v for v in labels if v not in p]
        if sum(1 for v in q if v > cutoff) <= allowed_excess:
            count += 1
    return count
