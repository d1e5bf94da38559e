"""The invariant ring: X-graph combinations, straightening and evaluation.

A ring element is a finitely supported rational combination of canonical
loop-free directed graphs (X-graphs) on 1..n; its algebra (sum, difference,
scaling, equality) is ``Combination``, shared with ``relations.SymElement``.  The straightening algorithm
rewrites any element into the non-crossing basis by resolving crossing edge
pairs with the Plucker relation

    X_ab X_cd = X_ad X_cb + X_ac X_bd

always picking the lexicographically smallest crossing pair.  Both children
have sign +1, so every coefficient of an expansion is a positive int.  The
expansions of the graphs asked for, of the non-crossing leaves, and of each
intermediate graph that a second call reaches are memoized in a process-wide
in-process dict keyed by the canonical graph alone: the expansion of a graph
does not depend on n, which only names the label set.  Other intermediates
are dropped when their call returns.  Rewrites take new edges from one shared
table, so memo keys share edge tuples.  A call counts its rewrites against
``graph_core.WORK_BUDGET``, two graphs of the call's edge count each, and
raises ``ValueError`` past it.
``degree_trace`` gives the dimensions and characters of the graded pieces
without building them.

Matchings as Y-generators, with their orientation signs, and Kempe
factorization into them live in ``relations``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .exact_linalg import exact
from .graph_core import (
    WORK_BUDGET,
    GraphKey,
    canonicalize,
    check_labels,
    check_work,
    json_coeff,
    json_edges,
    json_int,
    json_list,
    json_object,
    read_json,
)

# One straighten() call may not exceed this many Plucker rewrites; hitting the
# bound means a bug in the termination argument, not bad user input.
STRAIGHTEN_FUEL = 10_000_000


class FuelExhausted(RuntimeError):
    """Internal error: the rewrite engine exceeded its fuel budget."""


class StraightenCache:
    """Memo of canonical graph -> integer expansion in the non-crossing basis.

    ``seen`` holds the hash of each intermediate graph a call let go, so a
    second call that reaches it stores it; a hash collision only stores a
    graph early.  ``rewrites`` counts the Plucker rewrites done.
    """

    def __init__(self):
        self.memo: dict[GraphKey, dict[GraphKey, int]] = {}
        self.edges: dict[tuple[int, int], tuple[int, int]] = {}  # shared by memo keys
        self.seen: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.rewrites = 0

    def clear(self) -> None:
        self.memo.clear()
        self.edges.clear()
        self.seen.clear()
        self.hits = 0
        self.misses = 0
        self.rewrites = 0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self.memo), "rewrites": self.rewrites}


GLOBAL_CACHE = StraightenCache()


def first_crossing_pair(edges: GraphKey):
    """Lexicographically smallest crossing pair, keyed by sorted endpoint 4-tuple.

    ``edges`` is canonical: sorted, each edge (a, b) with a < b.  For j > i
    with edges (a, b), (c, d), c >= a; the pair crosses iff a < c < b < d and
    its key is then (a, c, b, d), and no edge from c >= b on crosses (a, b).
    The first crossing pair of this sweep has the smallest key: an earlier i
    crosses nothing, a later j gives a larger (c, d), and a later i' with the
    same a and a larger b' either crosses at c' >= b > c or its partner also
    crosses edge i at a smaller key.  Equal keys need a repeated edge, and
    the sweep meets the first (i, j) of those.
    """
    k = len(edges)
    for i in range(k):
        a, b = edges[i]
        for j in range(i + 1, k):
            c, d = edges[j]
            if c >= b:
                break
            if a < c and b < d:
                return i, j
    return None


def _plucker_children(edges: GraphKey, i: int, j: int,
                      shared: dict) -> tuple[GraphKey, GraphKey]:
    """Rewrite a crossing canonical pair; children stay canonical, signs +1.

    ``edges[i] = (a, b)`` and ``edges[j] = (c, d)`` with i < j must cross, so
    a < c < b < d: the edges are sorted, which gives a <= c, and a crossing
    pair has a < c.  Both replacement pairs are then min->max and
    non-crossing.  The new edges come from ``shared``, added on first use.
    """
    rest = edges[:i] + edges[i + 1:j] + edges[j + 1:]
    a, b = edges[i]
    c, d = edges[j]
    ad, cb, ac, bd = (a, d), (c, b), (a, c), (b, d)
    g1 = tuple(sorted(rest + (shared.setdefault(ad, ad), shared.setdefault(cb, cb))))
    g2 = tuple(sorted(rest + (shared.setdefault(ac, ac), shared.setdefault(bd, bd))))
    return g1, g2


def straighten_graph(n: int, key: GraphKey) -> dict[GraphKey, int]:
    """Expand one canonical graph in the non-crossing basis (positive int coeffs).

    A crossing graph's expansion is the sum of its two children's.  The memo
    keeps the expansion asked for, every non-crossing leaf, and each
    intermediate graph that a second call reaches; the others live in a
    per-call dict.  Termination holds because a Plucker step strictly
    decreases the total Euclidean chord length of every branch, but a fuel
    counter guards against implementation bugs.

    A rewrite builds two graphs of ``len(key)`` edges, 2 len(key) units of
    ``WORK_BUDGET``: a call past the budget raises ``ValueError`` with n and
    the rewrites done, which ``stats()`` still counts.
    """
    cache = GLOBAL_CACHE
    memo = cache.memo
    if key in memo:
        cache.hits += 1
        return memo[key]
    cache.misses += 1
    seen, shared = cache.seen, cache.edges
    local: dict[GraphKey, dict[GraphKey, int]] = {}
    rewrites = 0
    units = 2 * len(key)
    bound = min(STRAIGHTEN_FUEL, WORK_BUDGET // max(units, 1) + 1)
    stack: list = [key]  # a graph to expand, or a frame [g, g1, g2] to sum
    while stack:
        top = stack.pop()
        if type(top) is list:
            g, g1, g2 = top
            e1, e2 = memo.get(g1) or local[g1], memo.get(g2) or local[g2]
            acc = {**e1, **e2}  # copies keep their hashes; add the shared terms
            if len(acc) < len(e1) + len(e2):
                for h in e1.keys() & e2.keys():
                    acc[h] = e1[h] + e2[h]
            if g is key or hash(g) in seen:
                memo[g] = acc
            else:
                local[g] = acc
            continue
        if top in memo or top in local:
            continue
        found = first_crossing_pair(top)
        if found is None:
            memo[top] = {top: 1}
            continue
        rewrites += 1
        if rewrites >= bound:
            if rewrites >= STRAIGHTEN_FUEL:
                raise FuelExhausted(
                    f"straightening exceeded {STRAIGHTEN_FUEL} rewrites on n={n}")
            cache.rewrites += rewrites - 1
            check_work(f"straightening at n={n} after {rewrites - 1} rewrites", units * rewrites)
        g1, g2 = _plucker_children(top, *found, shared)
        stack += ([top, g1, g2], g1, g2)
    seen.update(map(hash, local))
    cache.rewrites += rewrites
    return memo[key]


class Combination:
    """The algebra of finite rational combinations, shared by ``RingElement``
    and ``relations.SymElement``.

    A subclass is a frozen dataclass whose fields are its ``shape()``, the
    label count n or (n, degree), followed by ``terms``: a dict from keys to
    nonzero ``Fraction``s.  Elements of different shapes do not add.
    """

    @classmethod
    def zero(cls, *shape):
        return cls(*shape, {})

    @classmethod
    def _collect(cls, shape: tuple, items):
        """The element of this shape summing the (key, coefficient) items."""
        acc: dict = {}
        for key, coeff in items:
            coeff = Fraction(coeff)
            if coeff:
                acc[key] = acc.get(key, Fraction(0)) + coeff
        return cls(*shape, {k: v for k, v in acc.items() if v})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.shape() != other.shape():
            raise ValueError(f"label-set mismatch: {self.shape()} and {other.shape()}")
        return self._collect(self.shape(),
                             list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self.zero(*self.shape())
        return type(self)(*self.shape(), {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.shape() == other.shape() \
            and self.terms == other.terms

    def __hash__(self):
        return hash((*self.shape(), tuple(sorted(self.terms.items()))))


@dataclass(frozen=True, eq=False)
class RingElement(Combination):
    """Rational combination of canonical loop-free directed graphs on 1..n."""

    n: int
    terms: dict[GraphKey, Fraction] = field(default_factory=dict)

    def shape(self) -> tuple[int]:
        return (self.n,)

    @classmethod
    def from_terms(cls, n: int, items) -> "RingElement":
        return cls._collect((n,), items)

    def __repr__(self):
        if not self.terms:
            return f"RingElement(n={self.n}, 0)"
        bits = [f"{c}*X{list(k)}" for k, c in sorted(self.terms.items())]
        return f"RingElement(n={self.n}, " + " + ".join(bits) + ")"

    def to_json(self) -> str:
        terms = [{"coeff": str(c), "edges": [list(e) for e in k]}
                 for k, c in sorted(self.terms.items())]
        return json.dumps({"n": self.n, "terms": terms})

    @classmethod
    def from_json(cls, text: str | dict) -> "RingElement":
        obj = read_json(text, "element")
        n = json_int(obj["n"], "n")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        items = []
        for t in json_list(obj["terms"], "terms"):
            t = json_object(t, "term")
            edges = json_edges(t["edges"], "edges")
            check_labels(n, edges)
            cf = canonicalize(edges)
            items.append((cf.graph, json_coeff(t["coeff"]) * cf.sign))
        return cls.from_terms(n, items)


def x_of(n: int, edges) -> RingElement:
    """X of a directed graph: sign-canonicalized basis graph, or 0 on loops."""
    cf = canonicalize(edges)
    if cf.sign == 0:
        return RingElement.zero(n)
    return RingElement(n, {cf.graph: Fraction(cf.sign)})


def straighten(e: RingElement) -> RingElement:
    """Rewrite into the non-crossing basis; a projection onto normal forms."""
    acc: dict[GraphKey, Fraction] = {}
    for key, coeff in e.terms.items():
        for h, c in straighten_graph(e.n, key).items():
            acc[h] = acc.get(h, Fraction(0)) + coeff * c
    return RingElement(e.n, {k: v for k, v in acc.items() if v})


@dataclass(frozen=True)
class PointConfig:
    """n points on the projective line, exact projective coordinates (x, y).

    An integral coordinate is stored as an ``int``, any other as a
    ``Fraction``; ``ValueError`` on the point (0, 0).
    """

    points: tuple[tuple[int | Fraction, int | Fraction], ...]

    def __post_init__(self):
        points = tuple((exact(x), exact(y)) for x, y in self.points)
        if (0, 0) in points:
            raise ValueError("(0,0) is not a projective point")
        object.__setattr__(self, "points", points)

    @classmethod
    def from_integers(cls, xs) -> "PointConfig":
        return cls(tuple((x, 1) for x in xs))


def evaluate(e: RingElement, p: PointConfig) -> Fraction:
    """Evaluate at a configuration: product of 2x2 determinants per edge.

    The coefficients are summed over their common denominator D, so at
    integer points every product and the sum are ints and the result is the
    one ``Fraction(total, D)``; fractional coordinates take the same loop in
    ``Fraction`` arithmetic.  Always returns a ``Fraction``.
    """
    if len(p.points) != e.n:
        raise ValueError("configuration size mismatch")
    points = p.points
    denom = lcm(*(c.denominator for c in e.terms.values()))
    total = 0
    for key, coeff in e.terms.items():
        prod = coeff.numerator * (denom // coeff.denominator)
        for a, b in key:
            xa, ya = points[a - 1]
            xb, yb = points[b - 1]
            prod *= xa * yb - xb * ya
            if not prod:
                break
        total += prod
    return Fraction(total, denom)


# degree_trace refuses more coefficient updates than this: at the limit one
# call took 0.7-2.6 s on a 2-vCPU VM (Python 3.11.7).
TRACE_CELLS = 10_000_000


def check_trace_cells(what: str, cells: int, unit: str = "coefficient updates") -> None:
    """Raise ``ValueError`` when ``what`` needs over ``TRACE_CELLS`` ``unit``."""
    if cells > TRACE_CELLS:
        raise ValueError(f"{what} needs {cells} {unit}, "
                         f"over the limit of {TRACE_CELLS}")


def degree_trace(mu: tuple[int, ...], k: int) -> int:
    """tr(sigma | R_k) for sigma of cycle type ``mu``, by the SL_2 weight count.

    It is the t^0 minus the t^2 coefficient of prod_{c in mu} chi_k(t^c),
    chi_k(t) = t^k + t^(k-2) + ... + t^-k.  In u = t^2 a factor is
    u^(-ck/2) (1 - u^(c(k+1))) / (1 - u^c): a downward pass subtracting at
    offset c(k+1), then a running sum with stride c.  Both passes find each
    coefficient from lower ones, so the list stops at u^(nk/2 + 1).  Raises
    ``ValueError`` on bad input or over TRACE_CELLS = 10**7 updates (about 2 s).
    """
    if k < 0 or any(c < 1 for c in mu):
        raise ValueError(f"need positive cycle lengths and k >= 0, got {mu}, {k}")
    n = sum(mu)
    if n * k % 2:
        return 0
    mid = n * k // 2
    check_trace_cells(f"the trace at n={n}, k={k} over {len(mu)} cycles", len(mu) * (mid + 2))
    coeffs = [1] + [0] * (mid + 1)
    for c in mu:
        step = c * (k + 1)
        coeffs[step:] = [a - b for a, b in zip(coeffs[step:], coeffs)]
        for r in range(c):
            coeffs[r::c] = accumulate(coeffs[r::c])
    return coeffs[mid] - coeffs[mid + 1]


def hilbert_dim(n: int, d: int) -> int:
    """dim of the degree-d graded piece: the number of non-crossing d-regular
    graphs on 1..n, counted as ``degree_trace`` at the identity.

    Raises ``ValueError`` unless n is even and at least 2 and d >= 0, or when
    the count is over ``degree_trace``'s size limit, checked before the n
    cycles are listed.
    """
    if n < 2 or n % 2 or d < 0:
        raise ValueError(f"need even n >= 2 and d >= 0, got n={n}, d={d}")
    check_trace_cells(f"the trace at n={n}, k={d} over {n} cycles", n * (n * d // 2 + 2))
    return degree_trace((1,) * n, d)
