"""Rewriting calculus for reduced weightings on caterpillar trees.

A weighting on the r-th caterpillar is stored compactly as the stalk values
(s1..sr, left to right) plus the base-edge values (b2..b_{r-2}); only the
triangle inequalities constrain it, not parity.  It is the truncation of a
regular weighting on the r-th Y-tree: the interior halved, the degree kept
apart.  A *reduced matching* is an admissible reduced weighting with every stalk value 0 or 1;
tuples of these are the monomials of the degenerated ring, and the operations
here (balancing, normal forms, type vectors, the toric cubic move) implement
its relation calculus.

Reduced matchings live in one table, ``reduced_matching``: each value
(stalks, bases) is validated the first time it is met and maps to one
instance from then on.  The table is the validation: normal forms check
their entries and take their outputs by lookup, without rebuilding or
rechecking a weighting, and pair tables build one weighting per distinct sum.

The *spine* (s1, b2, ..., b_{r-2}, sr) lists the flanks of the base vertices
left to right, the end stalks being the outer flanks.  Base vertex v sits
between spine[v-2] and spine[v-1], so its local triple is (spine[v-2], s_v,
spine[v-1]); the spine and the middle stalks s2..s_{r-1} make the weighting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .toric_trees import admissible_triple

Triple = tuple[int, int, int]


@dataclass(frozen=True, order=True)
class CatWeighting:
    """Reduced weighting on the r-th caterpillar: stalks s1..sr, bases b2..b_{r-2}."""

    r: int
    stalks: tuple[int, ...]
    bases: tuple[int, ...]

    def __post_init__(self):
        if self.r < 3:
            raise ValueError(f"caterpillars need r >= 3, got r = {self.r}")
        if len(self.stalks) != self.r:
            raise ValueError(f"need {self.r} stalk values, got {len(self.stalks)}")
        if len(self.bases) != self.r - 3:
            raise ValueError(f"need {self.r - 3} base values, got {len(self.bases)}")
        if min(self.stalks + self.bases) < 0:
            raise ValueError("weights must be non-negative")

    # -- the spine view ------------------------------------------------------

    @property
    def spine(self) -> tuple[int, ...]:
        """The flanks (s1, b2, ..., b_{r-2}, sr); vertex v sits between v-2 and v-1."""
        return (self.stalks[0],) + self.bases + (self.stalks[-1],)

    @classmethod
    def from_spine(cls, spine, middle) -> "CatWeighting":
        """The weighting with this spine and middle stalks s2..s_{r-1}."""
        spine, middle = tuple(spine), tuple(middle)
        return cls(len(middle) + 2, spine[:1] + middle + spine[-1:], spine[1:-1])

    def local_triple(self, v: int) -> Triple:
        if not 2 <= v <= self.r - 1:
            raise ValueError(f"base vertices run 2..{self.r - 1}, got {v}")
        spine = self.spine
        return (spine[v - 2], self.stalks[v - 1], spine[v - 1])

    # -- predicates ---------------------------------------------------------

    def is_admissible(self) -> bool:
        spine = self.spine
        return all(admissible_triple(a, s, c, reduced=True)
                   for a, s, c in zip(spine, self.stalks[1:-1], spine[1:]))

    def is_unbreakable(self) -> bool:
        """No base edge carries weight zero (vacuous when r = 3)."""
        return 0 not in self.bases

    def __add__(self, other: "CatWeighting") -> "CatWeighting":
        return sum_weighting((self, other))

    def __str__(self):
        """``(s1 | s2 b2 s3 ... b_{r-2} s_{r-1} | sr)``."""
        pairs = "".join(f"{s} {b} " for s, b in zip(self.stalks[1:], self.bases))
        return f"({self.stalks[0]} | {pairs}{self.stalks[-2]} | {self.stalks[-1]})"


def _one_r(tup, what: str) -> int:
    """The r of a tuple's entries; ``ValueError`` naming ``what`` if none or mixed."""
    if not tup:
        raise ValueError(f"{what} needs a non-empty tuple")
    r = tup[0].r
    for entry in tup:
        if entry.r != r:
            raise ValueError(f"{what} needs weightings on one caterpillar, got different r")
    return r


def sum_weighting(tup) -> CatWeighting:
    """The entrywise sum of a non-empty tuple of weightings on one caterpillar.

    One weighting is its own sum; more are built once from the column sums.
    ``ValueError`` on an empty tuple or on weightings of different r.
    """
    if len(tup) == 1:
        return tup[0]
    r = _one_r(tup, "sum_weighting")
    return CatWeighting(r, tuple(map(sum, zip(*[entry.stalks for entry in tup]))),
                        tuple(map(sum, zip(*[entry.bases for entry in tup]))))


@lru_cache(maxsize=None)
def reduced_matching(stalks: tuple[int, ...],
                     bases: tuple[int, ...]) -> CatWeighting | None:
    """The table's reduced matching with these stalk and base values.

    ``None`` when they make no reduced matching (an inadmissible weighting,
    or a stalk above 1).  A key is validated once, the first time it is met,
    and maps to the same instance from then on; the instance shares the key's
    tuples.  The table fills as keys are met rather than from
    ``enumerate_reduced_matchings``, whose size grows as the Catalan numbers
    in r.
    """
    entry = CatWeighting(len(stalks), stalks, bases)
    if entry.is_admissible() and max(stalks) <= 1:
        return entry
    return None


@lru_cache(maxsize=None)
def enumerate_reduced_matchings(r: int) -> tuple[CatWeighting, ...]:
    """All reduced matchings on the r-th caterpillar, lexicographic order.

    Base values are forced into 0..2 by the triangle inequalities against the
    adjacent stalk values, so the search is a small DFS.
    """
    if r < 3:
        raise ValueError("caterpillars need r >= 3")
    out = []

    def rec(v, stalks, bases, left_value):
        if v == r - 1:
            for sv in (0, 1):
                for sr in (0, 1):
                    if admissible_triple(left_value, sv, sr, reduced=True):
                        out.append(CatWeighting(
                            r, tuple(stalks + [sv, sr]), tuple(bases)))
            return
        for sv in (0, 1):
            for b in range(abs(left_value - sv), left_value + sv + 1):
                rec(v + 1, stalks + [sv], bases + [b], b)

    for s1 in (0, 1):
        rec(2, [s1], [], s1)
    return tuple(sorted(out, key=lambda w: (w.stalks, w.bases)))


def _columns_within_one(rows) -> bool:
    """Every column of the equal-length rows spans at most one."""
    return all(max(col) - min(col) <= 1 for col in zip(*rows))


def is_balanced(tup) -> bool:
    """Pairwise base-edge values differ by at most one (vacuous when r = 3)."""
    return _columns_within_one(entry.bases for entry in tup)


# --- balancing ------------------------------------------------------------------

def balance_triples(triples):
    """Balance local triples (a, b, c), b <= 1, by sum-preserving pair moves.

    Returns the balanced triples.  Each move bumps the minimum of an
    imbalanced coordinate up and the maximum down, dragging the other
    coordinate along when it is strictly ordered the same way.  With b <= 1
    the two flanks of one triple differ by at most one, which is exactly what
    makes every move admissible and the quadratic potential decrease.
    ``ValueError`` on a triple that is inadmissible or has b > 1.
    """
    work = [tuple(t) for t in triples]
    for a, b, c in work:
        if b > 1 or not admissible_triple(a, b, c, reduced=True):
            raise ValueError(f"bad local triple {(a, b, c)}")

    def imbalanced_coordinate():
        for coord in (0, 2):
            values = [t[coord] for t in work]
            if max(values) - min(values) >= 2:
                lo = min(range(len(work)), key=lambda i: (work[i][coord], i))
                hi = min(range(len(work)), key=lambda i: (-work[i][coord], i))
                return coord, lo, hi
        return None

    while True:
        found = imbalanced_coordinate()
        if found is None:
            break
        coord, lo, hi = found
        other = 2 - coord
        ti, tj = list(work[lo]), list(work[hi])
        ti[coord] += 1
        tj[coord] -= 1
        if ti[other] < tj[other]:
            ti[other] += 1
            tj[other] -= 1
        work[lo], work[hi] = tuple(ti), tuple(tj)
        assert admissible_triple(*work[lo], reduced=True) and \
            admissible_triple(*work[hi], reduced=True), \
            "balancing move broke admissibility"
    return work


def _glue_balanced(r: int, per_vertex: dict[int, list[Triple]], n: int):
    """Chain locally balanced triples into weightings, matching shared edges."""
    slots: list[list[Triple]] = [[] for _ in range(n)]
    available = sorted(per_vertex[2])
    for i in range(n):
        slots[i].append(available[i])
    for v in range(3, r):
        pool = sorted(per_vertex[v])
        used = [False] * n
        for i in range(n):
            need = slots[i][-1][2]
            for k in range(n):
                if not used[k] and pool[k][0] == need:
                    used[k] = True
                    slots[i].append(pool[k])
                    break
            else:
                raise AssertionError("glue failed: no triple with matching flank")
    return [CatWeighting.from_spine([chain[0][0]] + [t[2] for t in chain],
                                    [t[1] for t in chain])
            for chain in slots]


def balance(tup):
    """Sum-preserving quadratic balancing; returns the balanced tuple.

    The entries are admissible weightings on one caterpillar with middle
    stalks <= 1; ``ValueError`` otherwise, or on an empty tuple.
    """
    tup = tuple(tup)
    r = _one_r(tup, "balance")
    for entry in tup:
        if not entry.is_admissible():
            raise ValueError(f"{entry} is not admissible")
        if max(entry.stalks[1:-1]) > 1:
            raise ValueError(f"{entry} has a middle stalk above 1")
    if _columns_within_one(entry.spine for entry in tup):
        return tup
    per_vertex = {v: balance_triples([e.local_triple(v) for e in tup])
                  for v in range(2, r)}
    out = _glue_balanced(r, per_vertex, len(tup))
    total_in = sum_weighting(tup)
    total_out = sum_weighting(out)
    assert total_in == total_out, "balancing changed the sum"
    assert is_balanced(out)
    return tuple(out)


# --- breakability, types, the toric cubic move ----------------------------------

_TYPE_A = [(0, 0, 0), (1, 1, 1), (1, 1, 1)]
_TYPE_B = sorted([(1, 1, 0), (0, 1, 1), (1, 0, 1)])


def type_at(tup, v: int) -> str | None:
    """A, B or None at one base vertex, for a length-3 tuple."""
    locals_ = sorted(entry.local_triple(v) for entry in tup)
    if locals_ == _TYPE_A:
        return "A"
    if locals_ == _TYPE_B:
        return "B"
    return None


def _triple_r(tup) -> int:
    """The caterpillar of a triple; ``ValueError`` on another length or mixed r."""
    if len(tup) != 3:
        raise ValueError(f"types and the cubic move need triples, got {len(tup)} entries")
    return _one_r(tup, "types and the cubic move")


def type_vector(tup) -> tuple[str | None, ...]:
    """The A/B/None pattern at every base vertex (triples on one caterpillar only)."""
    return tuple(type_at(tup, v) for v in range(2, _triple_r(tup)))


def _splice(left_donor: CatWeighting, local: Triple,
            right_donor: CatWeighting, v: int) -> CatWeighting:
    """New weighting: left of v from one entry, the v-triple, rest from another."""
    a, b, c = local
    out = CatWeighting.from_spine(
        left_donor.spine[:v - 2] + (a, c) + right_donor.spine[v:],
        left_donor.stalks[1:v - 1] + (b,) + right_donor.stalks[v:-1])
    assert out.is_admissible(), "splice produced an inadmissible weighting"
    return out


def toric_segre_move(tup, v: int):
    """Apply the toric generalized Segre cubic relation at base vertex v.

    Flips the type at v between A and B, preserves the sum and every other
    type coordinate.  ``ValueError`` unless the entries form a triple on one
    caterpillar with the required local pattern at v.
    """
    tup = tuple(tup)
    _triple_r(tup)
    t = type_at(tup, v)
    if t == "A":
        ones = [e for e in tup if e.local_triple(v) == (1, 1, 1)]
        zero = next(e for e in tup if e.local_triple(v) == (0, 0, 0))
        x, y = ones
        return (_splice(x, (1, 1, 0), zero, v),
                _splice(zero, (0, 1, 1), x, v),
                _splice(y, (1, 0, 1), y, v))
    if t == "B":
        p = next(e for e in tup if e.local_triple(v) == (1, 1, 0))
        q = next(e for e in tup if e.local_triple(v) == (0, 1, 1))
        rr = next(e for e in tup if e.local_triple(v) == (1, 0, 1))
        return (_splice(p, (1, 1, 1), q, v),
                _splice(rr, (1, 1, 1), rr, v),
                _splice(q, (0, 0, 0), p, v))
    raise ValueError(f"tuple has type {t!r} at vertex {v}; need A or B")


# --- normal forms ----------------------------------------------------------------

def normal_form(tup):
    """The unique balanced ascending form of an unbreakable tuple.

    The output depends only on the sum weighting: base edges and end stalks
    are dealt out in ascending order (the balanced multiset of each sum is
    unique), middle stalks are forced wherever the flanks differ, and the
    remaining stalk budget fills the free slots from the top.  This is the
    form the paper reaches by merging pairs into their min/max on every base
    edge; built from the sum alone, it is idempotent and invariant under
    permutations, and tuples with equal sums map to equal outputs.  It needs
    r >= 4: at r = 3 unbreakability is vacuous and the dealt form may not fit.

    The table of reduced matchings is the validation: each entry must be an
    unbreakable matching in ``reduced_matching``, checked on every call.  The
    form is then looked up by the raw column sums in ``_dealt_form``, which
    deals it once per (stalks, bases, length): every call with those sums
    gets the same tuple of the table's own instances.  A ``ValueError`` is
    raised on every call that meets it and never stored.
    """
    tup = tuple(tup)
    r = _one_r(tup, "normal_form")
    if r < 4:
        raise ValueError(f"normal_form needs r >= 4, got r = {r}")
    for entry in tup:
        known = reduced_matching(entry.stalks, entry.bases)
        if known is None:
            raise ValueError("entries must be reduced matchings")
        if not known.is_unbreakable():
            raise ValueError("normal_form requires unbreakable entries")
    stalks = tuple(map(sum, zip(*[entry.stalks for entry in tup])))
    bases = tuple(map(sum, zip(*[entry.bases for entry in tup])))
    return _dealt_form(stalks, bases, len(tup))


@lru_cache(maxsize=None)
def _dealt_form(stalks: tuple[int, ...], bases: tuple[int, ...], n: int):
    """The normal form of n unbreakable entries with these column sums.

    Dealt and checked once per key, the first time it is met; the same tuple
    is returned from then on.  ``ValueError`` when a dealt entry is not an
    unbreakable matching of the table (the cache stores no error).
    """
    r = len(stalks)

    def deal(sum_value: int) -> list[int]:
        k, rem = divmod(sum_value, n)
        return [k] * (n - rem) + [k + 1] * rem

    spine_cols = [deal(value) for value in (stalks[0],) + bases + (stalks[-1],)]
    for col in (spine_cols[0], spine_cols[-1]):
        assert max(col) <= 1, "end stalk sum exceeds the matching bound"

    middle_cols = []
    for v in range(2, r):
        left, right = spine_cols[v - 2], spine_cols[v - 1]
        budget = stalks[v - 1]
        values = [0] * n
        free = []
        for i in range(n):
            if left[i] != right[i]:
                assert abs(left[i] - right[i]) == 1, "flanks too far apart"
                values[i] = 1
            elif left[i] > 0:
                free.append(i)
        budget -= sum(values)
        assert 0 <= budget <= len(free), "stalk budget does not fit"
        for i in free[len(free) - budget:]:
            values[i] = 1
        middle_cols.append(values)

    stalk_cols = [spine_cols[0], *middle_cols, spine_cols[-1]]
    out = []
    for entry_stalks, entry_bases in zip(zip(*stalk_cols), zip(*spine_cols[1:-1])):
        entry = reduced_matching(entry_stalks, entry_bases)
        if entry is None or not entry.is_unbreakable():
            raise ValueError(f"dealt stalks {entry_stalks} and bases {entry_bases} "
                             "make no unbreakable reduced matching")
        out.append(entry)
    result = tuple(out)
    total = sum_weighting(result)
    assert (total.stalks, total.bases) == (stalks, bases)
    assert is_balanced(result)
    return result


# --- small exhaustive move-graph machinery (used by reports) ---------------------

@lru_cache(maxsize=16)
def pairs_by_sum(universe: tuple) -> dict:
    """The ordered pairs of universe entries, grouped by their sum.

    Each group lists its pairs in ``itertools.product`` order, and the groups
    come in the order of their first pair.  The pairs are grouped by their
    raw column sums, and the table is the validation: one weighting is built
    and checked per distinct sum, not one per pair.  ``ValueError`` on
    entries of different r.
    """
    if not universe:
        return {}
    r = _one_r(universe, "pairs_by_sum")
    rows = [(entry, entry.stalks + entry.bases) for entry in universe]
    groups: dict = {}
    for (x, xs), (y, ys) in itertools.product(rows, repeat=2):
        groups.setdefault(tuple(map(add, xs, ys)), []).append((x, y))
    return {CatWeighting(r, column_sums[:r], column_sums[r:]): pairs
            for column_sums, pairs in groups.items()}


def quadratic_neighbors(tup, universe):
    """All tuples reachable by one sum-preserving move on two entries."""
    tup = tuple(tup)
    index = pairs_by_sum(tuple(universe))
    out = set()
    for i, j in itertools.combinations(range(len(tup)), 2):
        for x, y in index.get(tup[i] + tup[j], ()):
            new = list(tup)
            new[i], new[j] = x, y
            out.add(tuple(new))
    out.discard(tup)
    return out
