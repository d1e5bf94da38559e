"""Labeled multigraphs on circled points: canonical forms, matchings, signs.

Vertices are the integers 1..n, thought of as sitting on a circle in that
clockwise order.  A directed graph is a multiset of ordered pairs; loops are
allowed on input but are killed by canonicalization.  Everything here is a
pure function on immutable tuples, so values can be hashed, cached and shared
freely.

Representation conventions, used throughout the package:

* directed edge: pair ``(a, b)`` of ints in 1..n
* canonical directed graph: tuple of edges, each with ``a < b``, sorted
  lexicographically -- this is the hash key for ring elements
* matching: canonical graph whose edges partition 1..n into pairs
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Edge = tuple[int, int]
GraphKey = tuple[Edge, ...]


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical graph together with the sign picked up canonicalizing.

    ``sign`` is 0 exactly when the source graph contained a loop, otherwise
    (-1)**(number of edges reversed).
    """

    graph: GraphKey
    sign: int


def canonicalize(edges) -> CanonicalForm:
    """Rewrite every edge min->max, sort, and track the sign relation."""
    out = []
    sign = 1
    for a, b in edges:
        if a == b:
            return CanonicalForm(graph=(), sign=0)
        if a > b:
            a, b = b, a
            sign = -sign
        out.append((a, b))
    out.sort()
    return CanonicalForm(graph=tuple(out), sign=sign)


def valences(n: int, edges) -> list[int]:
    """Number of edge endpoints at each vertex (index 0 unused)."""
    val = [0] * (n + 1)
    for a, b in edges:
        val[a] += 1
        val[b] += 1
    return val


def is_regular(n: int, edges, d: int) -> bool:
    return all(v == d for v in valences(n, edges)[1:])


def perm_sign(word) -> int:
    """Sign of a permutation given as a sequence of distinct integers."""
    word = list(word)
    sign = 1
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                sign = -sign
    return sign


_ORIENTATION_SIGNS: dict[GraphKey, int] = {}


def orientation_sign(edges) -> int:
    """The fixed orientation eps on directed perfect matchings.

    eps(m) is the sign of the permutation (a1,b1,a2,b2,...) of 1..n, edges
    listed by increasing min endpoint.  Reordering whole edges permutes the
    word by blocks of two, an even permutation, so the edge order does not
    actually matter; sorting just pins the definition down.  Raises
    ``ValueError`` when the edges are not a perfect matching on 1..n.

    Memoized by the edges as a tuple of tuples: the edges as given are
    looked up first and normalised only on a miss.  Errors are not cached,
    so a bad matching raises on every call.
    """
    try:
        return _ORIENTATION_SIGNS[edges]
    except (TypeError, KeyError):  # unhashable, or not seen in this form
        pass
    key = tuple(tuple(e) for e in edges)
    word = [v for e in sorted(key, key=min) for v in e]
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a perfect matching: {key}")
    sign = _ORIENTATION_SIGNS[key] = perm_sign(word)
    return sign


def matching_key(pairs) -> GraphKey:
    """Canonical key for an undirected perfect matching (``ValueError`` if not one)."""
    cf = canonicalize(pairs)
    if cf.sign == 0:
        raise ValueError("loop in matching")
    word = [v for e in cf.graph for v in e]
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a perfect matching: {cf.graph}")
    return cf.graph


def connected_component_partition(n: int, edges):
    """Vertex sets of connected components, plus the integer partition.

    Isolated vertices count as singleton components.  The partition is the
    multiset of component sizes, sorted descending.
    """
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps: dict[int, set[int]] = {}
    for v in range(1, n + 1):
        comps.setdefault(find(v), set()).add(v)
    blocks = sorted(comps.values(), key=lambda s: (-len(s), min(s)))
    partition = tuple(sorted((len(b) for b in blocks), reverse=True))
    return blocks, partition


@lru_cache(maxsize=None)
def enumerate_matchings(n: int) -> tuple[GraphKey, ...]:
    """All (n-1)!! perfect matchings on 1..n, in a fixed deterministic order."""
    if n < 0 or n % 2:
        raise ValueError(f"need even n >= 0, got n={n}")

    def rec(verts):
        if not verts:
            yield ()
            return
        first = verts[0]
        for i in range(1, len(verts)):
            rest = verts[1:i] + verts[i + 1:]
            for tail in rec(rest):
                yield ((first, verts[i]),) + tail

    return tuple(tuple(sorted(m)) for m in rec(tuple(range(1, n + 1))))


@lru_cache(maxsize=None)
def enumerate_noncrossing_regular(n: int, d: int) -> tuple[GraphKey, ...]:
    """All loop-free non-crossing d-regular multigraphs on 1..n, lex sorted.

    Built by interval decomposition (``_interval_graphs``), so no candidate
    is ever tested for crossings.  Raises ``ValueError`` unless n is even
    and at least 2 and d >= 0.
    """
    if n < 2 or n % 2 or d < 0:
        raise ValueError(f"need even n >= 2 and d >= 0, got n={n}, d={d}")
    return tuple(sorted(_interval_graphs(1, n, d, d, d, {})))


def _interval_graphs(i: int, j: int, a: int, b: int, d: int,
                     memo: dict) -> tuple[GraphKey, ...]:
    """Non-crossing multigraphs on i..j (i < j) with valence a at i, b at j
    and d strictly between, each a canonical key, each exactly once.

    With a = 0 vertex i is done.  Otherwise let k be i's largest partner and
    take one copy of (i, k) out: nothing can cross that chord, so the rest
    splits into a graph on i..k with valence t - 1 at k and one on k..j with
    the other d - t (t = 1..d), or is one graph on i..j when k = j.  Every
    edge of the left part at i sorts before (i, k), and every other edge of
    it before every edge of the right part, so keys join by slicing.
    ``memo`` is the caller's dict; a module-level function keeps it out of
    reference cycles, so it is freed when the caller drops it.
    """
    key = (i, j, a, b)
    found = memo.get(key)
    if found is not None:
        return found
    out: list[GraphKey] = []
    if a == 0:
        if j == i + 1:
            if b == 0:
                out.append(())
        else:
            out.extend(_interval_graphs(i + 1, j, d, b, d, memo))
    else:
        m = a - 1
        for k in range(i + 1, j):
            edge = ((i, k),)
            for t in range(1, d + 1):
                lefts = _interval_graphs(i, k, m, t - 1, d, memo)
                if not lefts:
                    continue
                rights = _interval_graphs(k, j, d - t, b, d, memo)
                for g in lefts:
                    g = g[:m] + edge + g[m:]
                    out.extend(g + h for h in rights)
        if b > 0:
            edge = ((i, j),)
            out.extend(g[:m] + edge + g[m:]
                       for g in _interval_graphs(i, j, m, b - 1, d, memo))
    found = memo[key] = tuple(out)
    return found


@lru_cache(maxsize=None)
def noncrossing_matchings(n: int) -> tuple[GraphKey, ...]:
    """The Catalan(n/2) non-crossing matchings, the degree-one basis."""
    return enumerate_noncrossing_regular(n, 1)


def catalan(k: int) -> int:
    """Catalan numbers by the convolution recurrence (independent oracle)."""
    cat = [1]
    for m in range(1, k + 1):
        cat.append(sum(cat[i] * cat[m - 1 - i] for i in range(m)))
    return cat[k]


# --- the work budget -----------------------------------------------------------

# One unit is one edge of a graph the work builds or one cell of a span it
# grows; each took 3.6-11 us near this many (2-vCPU VM, Python 3.11.7).
WORK_BUDGET = 250_000


def check_work(what: str, units: int) -> int:
    """``units``, or ``ValueError`` with the estimate when over ``WORK_BUDGET``."""
    if units > WORK_BUDGET:
        raise ValueError(f"{what} needs {units} units of work, over the budget of {WORK_BUDGET}")
    return units


# --- text / JSON interchange -------------------------------------------------

_GRAPH_RE = re.compile(r"^\s*n\s*=\s*(\d+)\s*;\s*edges\s*=\s*(.*)$")


def json_int(value, what: str) -> int:
    """An integer read from JSON; ``ValueError`` on a float, bool or string."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    """A list read from JSON; ``ValueError`` on an object, string or number."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


class _JsonObject(dict):
    """A JSON object whose missing key raises ``ValueError`` naming the key."""

    def __init__(self, value: dict, what: str):
        super().__init__(value)
        self.what = what

    def __missing__(self, key):
        raise ValueError(f"{self.what} has no {key!r} field")


def json_object(value, what: str) -> dict:
    """An object read from JSON; ``ValueError`` on a list, string or number.

    Reading a key it lacks raises ``ValueError`` with the key's name.
    """
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return _JsonObject(value, what)


def read_json(text: str | dict, what: str) -> dict:
    """The JSON object of the argument ``what``, given as text or as a dict: the
    one reader of JSON, where JSON too deep for the parser is bad input too."""
    if type(text) is str:
        try:
            text = json.loads(text)
        except RecursionError:
            raise ValueError(f"{what} is nested too deeply to read") from None
        except ValueError as exc:  # the parser's JSONDecodeError
            raise ValueError(f"{what} is not valid JSON: {exc}") from None
    return json_object(text, what)


def json_coeff(value) -> Fraction:
    """An exact coefficient read from JSON: an integer, or a fraction string with no
    exponent, which ``Fraction`` would expand into all its digits."""
    if type(value) is not int and (type(value) is not str or "e" in value.lower()):
        raise ValueError(f"coefficient must be a fraction string or an integer, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {value!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"coefficient {value!r} is not a fraction a/b") from None


def json_ints(value, what: str) -> list[int]:
    """A list of integers read from JSON; ``ValueError`` naming ``what`` otherwise."""
    return [json_int(v, f"{what} entry") for v in json_list(value, what)]


def json_edges(edges, what: str) -> list[Edge]:
    """Edges ``[[a, b], ...]`` of the JSON field ``what``, each two integers."""
    out = [tuple(json_ints(e, "edge")) for e in json_list(edges, what)]
    for e in out:
        if len(e) != 2:
            raise ValueError(f"edge must have 2 labels, got {list(e)}")
    return out


def json_layer(edges, what: str) -> GraphKey:
    """The canonical layer of the JSON edge list ``what``; ``ValueError`` on a loop."""
    out = json_edges(edges, what)
    for a, b in out:
        if a == b:
            raise ValueError(f"{what} has a loop at {a}")
    return canonicalize(out).graph


def check_labels(n: int, edges) -> None:
    """Raise ``ValueError`` unless every endpoint lies in 1..n."""
    for a, b in edges:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"edge ({a},{b}) out of range 1..{n}")


def parse_graph(text: str) -> tuple[int, list[Edge]]:
    """Parse ``n=<int>; edges=<a>-<b>,<a>-<b>,...`` (repetition = multiplicity)."""
    m = _GRAPH_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad graph text: {text!r}")
    n = int(m.group(1))
    body = m.group(2).strip()
    edges: list[Edge] = []
    if body:
        for part in body.split(","):
            try:
                a, b = map(int, part.split("-"))
            except ValueError:
                raise ValueError(f"edge {part.strip()!r} is not a-b with integer labels") from None
            edges.append((a, b))
    check_labels(n, edges)
    return n, edges


def parse_graph_json(text: str | dict) -> tuple[int, list[Edge]]:
    """JSON mirror of the text format: ``{"n":8,"edges":[[1,2],[3,4]]}``."""
    obj = read_json(text, "graph")
    n = json_int(obj["n"], "n")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    edges = json_edges(obj["edges"], "edges")
    check_labels(n, edges)
    return n, edges


def graph_to_json(n: int, edges) -> str:
    return json.dumps({"n": n, "edges": [list(e) for e in edges]})


def perm_sign_of_map(perm: dict[int, int]) -> int:
    return perm_sign([perm[i] for i in sorted(perm)])
