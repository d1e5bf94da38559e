"""Symmetric group actions, orbit spans, characters, the partition filtration.

The symmetric group acts on graphs by relabeling; on the Y generators the
action is twisted by the sign character.  ``orbit_span_check`` asks
whether one relation's orbit spans its piece I^(k) of the ideal.  In degree
2, where the character of I^(2) is one irreducible with multiplicity 1 and
its hook-length dimension is dim I^(2) (n = 8 and 10), any nonzero relation
generates I^(2), so a character computation answers with no permutation
tried.  Elsewhere (degree 3 and up, such as the Segre cubic at n = 6) the
orbit span is grown as the closure of the relation under the two
generators (1 2) and (1 2 ... n) of S_n, in one exact span, until it is
stable or reaches dim I^(k); no permutation outside the two is tried.  For
n <= 6, I^(2) = 0 and every relation is zero in coordinates.  I^(2)_12 has
two irreducible parts, so the certificate does not apply there; the closure's
4565 x 8778 span cells (293 s, 158 MB on a 2-vCPU VM) are over ``WORK_BUDGET``,
so it is refused before the first image.

Characters of the induced actions on V, Sym^2(V), Lambda^2(V), R^(2) and
I^(2) come from one trace formula, ``invariant_ring.degree_trace`` (the
SL_2 weight count), and the cycle index for the symmetric and exterior
squares; nothing is straightened.  They are decomposed against one
character table of S_n per n, built once in ``int``s.

The partition filtration on Sym^3(V) is built from one basis per
component-partition group of degree-3 monomials, computed once per n;
F_p is the span of the groups q <= p.

All representation arithmetic is exact: Murnaghan-Nakayama for irreducible
characters, the cycle-type formula for class sizes, hook lengths for
dimensions.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import exact_linalg
from .graph_core import canonicalize, check_work, enumerate_matchings, perm_sign_of_map
from .invariant_ring import RingElement, degree_trace
from .relations import (
    SymElement,
    component_partition_of_monomial,
    coords_vector,
    ideal_component_dim,
    monomial_vector,
    project_to_ring,
    sym_basis,
    sym_work,
)

Perm = dict[int, int]
PartitionT = tuple[int, ...]


# --- action on elements ---------------------------------------------------------

def act_ring(perm: Perm, e: RingElement) -> RingElement:
    """Relabel directed graphs and re-canonicalize signs (no sign twist)."""
    if set(perm) != set(range(1, e.n + 1)):
        raise ValueError("permutation acts on the wrong label set")
    items = []
    for key, coeff in e.terms.items():
        cf = canonicalize([(perm[a], perm[b]) for a, b in key])
        items.append((cf.graph, coeff * cf.sign))
    return RingElement.from_terms(e.n, items)


def act_sym(perm: Perm, e: SymElement) -> SymElement:
    """Sign-twisted action on Y-monomials: each layer contributes sgn(perm)."""
    if set(perm) != set(range(1, e.n + 1)):
        raise ValueError("permutation acts on the wrong label set")
    twist = perm_sign_of_map(perm) ** e.degree
    items = []
    for mono, coeff in e.terms.items():
        new = tuple(canonicalize([(perm[a], perm[b]) for a, b in m]).graph
                    for m in mono)
        items.append((new, coeff * twist))
    return SymElement.from_terms(e.n, e.degree, items)


def orbit_span_check(rel: SymElement):
    """Rank of the S_n-orbit span of a relation; does it fill I^(k)?

    Raises ``ValueError`` unless the input projects to zero, so that the
    orbit stays inside I^(k).  An element whose coordinates in Sym^k(V) are
    zero has a zero orbit, whatever its formal terms: (0, dim I^(k) == 0).

    The certificate: in degree 2, when ``quadratic_ideal_irrep(n)`` names
    the partition of an irreducible I^(2), the span of a nonzero orbit is a
    nonzero submodule of I^(2), so it is all of it, and the answer is
    (dim I^(2), True) with no permutation tried.  This covers n = 8 and 10.
    Every other case (degree 3 and up, or a reducible I^(2)) grows the
    orbit span by ``orbit_closure`` up to the ideal dimension.
    """
    n, k = rel.n, rel.degree
    target = ideal_component_dim(n, k)
    if not project_to_ring(rel).is_zero():
        raise ValueError("element is not a relation")
    vector = coords_vector(rel)
    if not vector:
        return 0, target == 0
    if k == 2 and quadratic_ideal_irrep(n) is not None:
        return target, True
    dim = orbit_closure(rel, target).dim
    return dim, dim == target


def orbit_closure(rel: SymElement, target: int) -> exact_linalg.IncrementalSpan:
    """The span of the S_n-orbit of ``rel``, or a part of it of dimension ``target``.

    S_n is generated by (1 2) and (1 2 ... n).  The span starts at ``rel``;
    both generators are applied to every image that enlarged it, until a
    pass adds nothing.  Each kept image then maps into the span under both
    generators, so the span is stable under S_n and is the orbit span.  It
    stops early once its dimension reaches ``target``; at most two images
    are tried per dimension.  Refused when target x columns span cells are
    over ``WORK_BUDGET``.
    """
    n = rel.n
    columns = len(sym_basis(n, rel.degree))
    check_work(f"the orbit span at n={n}, degree {rel.degree}", target * columns)
    generators = ({1: 2, 2: 1} | {i: i for i in range(3, n + 1)},
                  {i: i % n + 1 for i in range(1, n + 1)})
    span = exact_linalg.IncrementalSpan(columns)
    frontier = [rel] if span.add(coords_vector(rel)) else []
    while frontier and span.dim < target:
        grown = []
        for element in frontier:
            for sigma in generators:
                image = act_sym(sigma, element)
                if span.add(coords_vector(image)):
                    grown.append(image)
                    if span.dim == target:
                        return span
        frontier = grown
    return span


@lru_cache(maxsize=None)
def quadratic_ideal_irrep(n: int) -> PartitionT | None:
    """The partition lambda with I^(2)_n = V_lambda, or None if it is not irreducible.

    Irreducible means the character of I^(2) decomposes as one partition
    with multiplicity 1.  Its hook-length dimension must also equal dim
    I^(2) from the exact rank: that ties the character, built as Sym^2 V -
    R^(2) by the trace formula, to the kernel the orbit lives in (it holds
    only when Sym^2 V -> R^(2) is onto).  The sign twist of ``act_sym``
    cancels in degree 2, and twisting would not change irreducibility.
    """
    parts = decompose(character_of_action(n, "I2"))
    if len(parts) != 1:
        return None
    (lam, mult), = parts.items()
    if mult != 1 or hook_length_dim(lam) != ideal_component_dim(n, 2):
        return None
    return lam


# --- partitions, characters, hook lengths ---------------------------------------

@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[PartitionT, ...]:
    """All partitions of n, parts descending, in lexicographic order."""
    if n == 0:
        return ((),)
    return tuple(sorted((k,) + rest for k in range(1, n + 1)
                        for rest in partitions(n - k) if not rest or rest[0] <= k))


def class_size(mu: PartitionT) -> int:
    """|conjugacy class| = n! / prod(k^{m_k} m_k!) over cycle lengths k."""
    n = sum(mu)
    denom = 1
    for k in set(mu):
        m = mu.count(k)
        denom *= k ** m * factorial(m)
    return factorial(n) // denom


@lru_cache(maxsize=None)
def mn_character(lam: PartitionT, mu: PartitionT) -> int:
    """Murnaghan-Nakayama by border-strip removal on beta-numbers."""
    if sum(lam) != sum(mu):
        raise ValueError(f"mn_character needs partitions of one n, got {lam} and {mu}")
    if not lam:
        return 1
    k = mu[0]
    rest = mu[1:]
    ell = len(lam)
    betas = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        new = sorted((beta_set - {b}) | {nb}, reverse=True)
        height = sum(1 for b2 in beta_set if nb < b2 < b)
        new_lam = tuple(v - (len(new) - 1 - i) for i, v in enumerate(new))
        new_lam = tuple(v for v in new_lam if v > 0)
        total += (-1) ** height * mn_character(new_lam, rest)
    return total


def hook_length_dim(lam: PartitionT) -> int:
    """n! divided by the product of hook lengths."""
    n = sum(lam)
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    return factorial(n) // prod


@dataclass(frozen=True)
class ClassFunction:
    """Rational class function on S_n, stored per cycle type."""

    n: int
    values: dict[PartitionT, int | Fraction]

    def __call__(self, mu: PartitionT) -> int | Fraction:
        return self.values[tuple(mu)]


@dataclass(frozen=True)
class CharacterTable:
    """The character table of S_n in ``int``s.

    ``classes`` are the cycle types, ``partitions(n)``; ``sizes`` their class
    sizes; ``rows`` the irreducible characters, one Murnaghan-Nakayama row
    per partition in the same order, each listing its values on ``classes``.
    """

    classes: tuple[PartitionT, ...]
    sizes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """The character table of S_n, built once per n."""
    classes = partitions(n)
    return CharacterTable(classes, tuple(class_size(mu) for mu in classes),
                          tuple(tuple(mn_character(lam, mu) for mu in classes)
                                for lam in classes))


def decompose(chi: ClassFunction) -> dict[PartitionT, int]:
    """Multiplicities of the irreducibles, from the cached character table.

    The multiplicity of lambda is the sum over classes of size * chi * chi_lambda,
    divided once by n!; ``ValueError`` when one is not a non-negative integer.
    """
    table = character_table(chi.n)
    weighted = [size * chi.values[mu] for mu, size in zip(table.classes, table.sizes)]
    order = factorial(chi.n)
    out: dict[PartitionT, int] = {}
    for lam, row in zip(table.classes, table.rows):
        total = sum(w * x for w, x in zip(weighted, row))
        mult, rem = divmod(total, order)
        if rem or mult < 0:
            raise ValueError(f"multiplicity {Fraction(total) / order} at {lam} "
                             "is not a non-negative integer")
        if mult:
            out[lam] = mult
    return out


# --- characters of the concrete spaces ------------------------------------------

SPACES = ("V", "Sym2V", "Lam2V", "R2", "I2")

# The first decompose at an n builds its character table, p(n)^2
# Murnaghan-Nakayama values: 0.28 s at n = 14, 0.83 s at n = 16 and 2.2 s at
# n = 18; each further space at that n then took 0.01-0.07 s (2-vCPU VM,
# Python 3.11.7).
MAX_CHARACTER_N = 14


def _square_cycle_type(mu: PartitionT) -> PartitionT:
    """Cycle lengths of sigma^2: each even cycle c splits into two of c/2."""
    return tuple(p for c in mu for p in ((c // 2,) * 2 if c % 2 == 0 else (c,)))


def character_of_action(n: int, space: str) -> ClassFunction:
    """Character of the action on one of V, Sym2V, Lam2V, R2, I2.

    V = R_1 and R2 are ``degree_trace`` at k = 1 and 2; Sym^2 V and
    Lambda^2 V are (chi(sigma)^2 +- chi(sigma^2)) / 2; I2 = Sym2V - R2.
    Raises ``ValueError`` unless n is even with 2 <= n <= MAX_CHARACTER_N.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need even n >= 2, got n={n}")
    if n > MAX_CHARACTER_N:
        raise ValueError(f"n={n} is over the limit n <= {MAX_CHARACTER_N} for "
                         f"characters (their decomposition grows as p(n)^2)")
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}")
    values = {}
    for mu in partitions(n):
        v = degree_trace(mu, 1)
        v_sq = degree_trace(_square_cycle_type(mu), 1)
        sym2 = (v * v + v_sq) // 2
        r2 = degree_trace(mu, 2)
        values[mu] = {"V": v, "Sym2V": sym2, "Lam2V": (v * v - v_sq) // 2,
                      "R2": r2, "I2": sym2 - r2}[space]
    return ClassFunction(n, values)


def expected_partition_set(n: int, space: str) -> set[PartitionT]:
    """The partition sets of the degree-two decomposition table."""
    sets = {
        "Sym2V": lambda p: len(p) <= 4 and all(v % 2 == 0 for v in p),
        "Lam2V": lambda p: len(p) == 4 and all(v % 2 == 1 for v in p),
        "R2": lambda p: len(p) <= 3 and all(v % 2 == 0 for v in p),
        "I2": lambda p: len(p) == 4 and all(v % 2 == 0 for v in p),
    }
    pred = sets[space]
    return {p for p in partitions(n) if pred(p)}


# --- the partition filtration on Sym^3 -------------------------------------------

@lru_cache(maxsize=None)
def even_partitions(n: int) -> tuple[PartitionT, ...]:
    return tuple(p for p in partitions(n) if all(v % 2 == 0 for v in p))


@lru_cache(maxsize=None)
def refines(q: PartitionT, p: PartitionT) -> bool:
    """q <= p in the refinement order: the parts of q fill bins of the sizes in p.

    The first part of q goes into each bin with room for it, bins of equal
    room tried once, and the rest of q into the room left over.
    """
    if sum(q) != sum(p):
        return False
    if not q:
        return True
    return any(refines(q[1:], tuple(sorted(p[:j] + (room - q[0],) + p[j + 1:], reverse=True)))
               for j, room in enumerate(p) if room >= q[0] and room not in p[:j])


@lru_cache(maxsize=None)
def _group_bases(n: int) -> dict[PartitionT, tuple[dict[int, int], ...]]:
    """A basis of the span of each component-partition group of degree-3 monomials.

    Every monomial's coordinates are computed once, from the products of
    Y-basis expansions, and added to its group's span; a group stops once it
    spans all of Sym^3.  The values are the pivot rows, keyed by the group's
    component partition.  Shared by every caller; none may change a row.
    Each monomial is 3n/2 units of ``WORK_BUDGET``.
    """
    sym_work(n, 3)  # bounds n before its (n - 1)!! matchings are listed
    matchings = enumerate_matchings(n)
    check_work(f"the partition filtration at n={n}", comb(len(matchings) + 2, 3) * 3 * n // 2)
    full = len(sym_basis(n, 3))
    spans: dict[PartitionT, exact_linalg.IncrementalSpan] = \
        defaultdict(lambda: exact_linalg.IncrementalSpan(full))
    for mono in itertools.combinations_with_replacement(matchings, 3):
        span = spans[component_partition_of_monomial(n, mono)]
        if span.dim < full:
            span.add(monomial_vector(n, mono))
    return {part: tuple(span.pivots.values()) for part, span in spans.items()}


def filtration_span(n: int, parts) -> exact_linalg.IncrementalSpan:
    """Span of all degree-3 monomials whose component partition is in parts."""
    bases = _group_bases(n)
    span = exact_linalg.IncrementalSpan(len(sym_basis(n, 3)))
    for part in parts:
        for row in bases.get(part, ()):
            span.add(row)
    return span


def filtration_dim(n: int, p: PartitionT) -> int:
    """dim F_p(Sym^3 V): span of monomials with partition <= p (refinement)."""
    parts = [q for q in even_partitions(n) if refines(q, p)]
    return filtration_span(n, parts).dim


def gr_dim(n: int, p) -> int:
    """dim of the associated graded piece gr_p(Sym^3 V).

    Quotient of F_p by the joint span of all F_q with q strictly finer; if
    several incomparable q sit below p, all of them are subtracted.  F_p is
    the span of the groups q <= p, so each group adds its cached basis.
    Refused over ``WORK_BUDGET`` (n >= 8) before any partition is listed.
    """
    bases = _group_bases(n)
    p = tuple(sorted(p, reverse=True))
    if p not in even_partitions(n):
        raise ValueError(f"{p} is not an even partition of {n}")
    below = [q for q in even_partitions(n) if q != p and refines(q, p)]
    span = filtration_span(n, below)
    dim_below = span.dim
    for row in bases.get(p, ()):
        span.add(row)
    return span.dim - dim_below
