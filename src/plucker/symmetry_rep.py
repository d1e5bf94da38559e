"""Symmetric group actions, orbit spans, characters, the partition filtration.

The symmetric group acts on graphs by relabeling; on the Y generators the
action is twisted by the sign character.  ``orbit_span_check`` asks
whether one relation's orbit spans its piece I^(k) of the ideal.  In degree
2, where the character of I^(2) is one irreducible with multiplicity 1 and
its hook-length dimension is dim I^(2) (n = 8 and 10), any nonzero relation
generates I^(2), so a character computation answers with no permutation
tried.  Elsewhere (degree 3 and up, such as the Segre cubic at n = 6) the
orbit is scanned, growing an exact span until it reaches dim I^(k).  For
n <= 6, I^(2) = 0 and every relation is zero in coordinates.  I^(2)_12 has
two irreducible parts, so the certificate would not apply there; the
feasibility guard of ``ideal_component_dim`` refuses n = 12 before either
route.

Characters of the induced actions on V, Sym^2(V), Lambda^2(V), R^(2) and
I^(2) come from one trace formula, ``invariant_ring.degree_trace`` (the
SL_2 weight count), and the cycle index for the symmetric and exterior
squares; nothing is straightened.

All representation arithmetic is exact: Murnaghan-Nakayama for irreducible
characters, the cycle-type formula for class sizes, hook lengths for
dimensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import exact_linalg
from .graph_core import canonicalize, enumerate_matchings, perm_sign_of_map
from .invariant_ring import RingElement, degree_trace
from .relations import (
    SymElement,
    component_partition_of_monomial,
    coords_vector,
    ideal_component_dim,
    project_to_ring,
    sym_basis,
)

Perm = dict[int, int]
PartitionT = tuple[int, ...]


def all_perms(n: int):
    base = list(range(1, n + 1))
    for img in itertools.permutations(base):
        yield dict(zip(base, img))


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
    Every other case (degree 3 and up, or a reducible I^(2)) scans S_n in
    ``all_perms`` order, growing one ``IncrementalSpan`` until it reaches
    the ideal dimension.
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
    span = exact_linalg.IncrementalSpan(len(sym_basis(n, k)))
    for sigma in all_perms(n):
        span.add(coords_vector(act_sym(sigma, rel)))
        if span.dim == target:
            return target, True
    return span.dim, span.dim == target


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
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(sorted(out))


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
    assert sum(lam) == sum(mu)
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
    values: dict[PartitionT, Fraction]

    def __call__(self, mu: PartitionT) -> Fraction:
        return self.values[tuple(mu)]


def irreducible_character(lam: PartitionT) -> ClassFunction:
    n = sum(lam)
    return ClassFunction(n, {mu: Fraction(mn_character(lam, mu))
                             for mu in partitions(n)})


def inner_product(chi: ClassFunction, psi: ClassFunction) -> Fraction:
    n = chi.n
    total = Fraction(0)
    for mu in partitions(n):
        total += class_size(mu) * chi.values[mu] * psi.values[mu]
    return total / factorial(n)


def decompose(chi: ClassFunction) -> dict[PartitionT, int]:
    """Multiplicities of the irreducibles; raises on non-integral values."""
    out: dict[PartitionT, int] = {}
    for lam in partitions(chi.n):
        mult = inner_product(chi, irreducible_character(lam))
        if mult.denominator != 1 or mult < 0:
            raise ValueError(f"non-integral multiplicity {mult} at {lam}")
        if mult:
            out[lam] = int(mult)
    return out


# --- characters of the concrete spaces ------------------------------------------

SPACES = ("V", "Sym2V", "Lam2V", "R2", "I2")

# decompose costs p(n)^2 Murnaghan-Nakayama values: one space took 0.5 s at
# n = 14, 1.2 s at n = 16 and 3.1 s at n = 18 (2-vCPU VM, Python 3.11.7).
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
        values[mu] = Fraction({"V": v, "Sym2V": sym2, "Lam2V": (v * v - v_sq) // 2,
                               "R2": r2, "I2": sym2 - r2}[space])
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
    """q <= p in the refinement order: q can be grouped into blocks summing to p."""
    if sum(q) != sum(p):
        return False
    if not p:
        return not q
    target = p[0]
    rest_p = p[1:]
    items = list(q)

    def pick(idx, remaining, chosen):
        if remaining == 0:
            left = list(items)
            for c in chosen:
                left.remove(c)
            return refines(tuple(sorted(left, reverse=True)), rest_p)
        for i in range(idx, len(items)):
            if i > idx and items[i] == items[i - 1]:
                continue
            if items[i] <= remaining and pick(i + 1, remaining - items[i],
                                              chosen + [items[i]]):
                return True
        return False

    return pick(0, target, [])


@lru_cache(maxsize=None)
def _sym3_monomials_by_partition(n: int):
    """All degree-3 multi-matching monomials, grouped by component partition."""
    groups: dict[PartitionT, list] = {}
    for mono in itertools.combinations_with_replacement(enumerate_matchings(n), 3):
        part = component_partition_of_monomial(n, mono)
        groups.setdefault(part, []).append(mono)
    return groups


def filtration_span(n: int, parts) -> exact_linalg.IncrementalSpan:
    """Span of all degree-3 monomials whose component partition is in parts."""
    groups = _sym3_monomials_by_partition(n)
    span = exact_linalg.IncrementalSpan(len(sym_basis(n, 3)))
    for part in parts:
        for mono in groups.get(part, []):
            span.add(coords_vector(SymElement.monomial(n, mono)))
    return span


def filtration_dim(n: int, p: PartitionT) -> int:
    """dim F_p(Sym^3 V): span of monomials with partition <= p (refinement)."""
    parts = [q for q in even_partitions(n) if refines(q, p)]
    return filtration_span(n, parts).dim


def gr_dim(n: int, p) -> int:
    """dim of the associated graded piece gr_p(Sym^3 V) for n in {4, 6}.

    Quotient of F_p by the joint span of all F_q with q strictly finer; if
    several incomparable q sit below p, all of them are subtracted.
    """
    if n not in (4, 6):
        raise ValueError("feasibility guard: n in {4, 6}")
    p = tuple(sorted(p, reverse=True))
    if p not in even_partitions(n):
        raise ValueError(f"{p} is not an even partition of {n}")
    below = [q for q in even_partitions(n) if q != p and refines(q, p)]
    span = filtration_span(n, below)
    dim_below = span.dim
    for mono in _sym3_monomials_by_partition(n).get(p, []):
        span.add(coords_vector(SymElement.monomial(n, mono)))
    return span.dim - dim_below
