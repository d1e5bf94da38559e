"""Rewriting calculus for reduced weightings on caterpillar trees.

A weighting on the r-th caterpillar is stored compactly as the stalk values
(s1..sr, left to right) plus the base-edge values (b2..b_{r-2}); only the
triangle inequalities constrain it, not parity.  Truncation halves the
interior of a regular weighting on the r-th Y-tree into one of these and
keeps the degree apart; untruncation is its inverse.  A *reduced
matching* is an admissible reduced weighting with every stalk value 0 or 1;
tuples of these are the monomials of the degenerated ring, and the operations
here (balancing, normal forms, type vectors, the toric cubic move) implement
its relation calculus.

Local coordinates at the base vertex v are the triple
(left(v), stalk(v), right(v)) where left(2) and right(r-1) are the end
stalks and the other flanks are base edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .toric_trees import TreeWeighting, admissible_triple, build_y_tree

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
        if any(w < 0 for w in self.stalks + self.bases):
            raise ValueError("weights must be non-negative")

    # -- local views -------------------------------------------------------

    def stalk(self, i: int) -> int:
        assert 1 <= i <= self.r
        return self.stalks[i - 1]

    def base(self, j: int) -> int:
        assert 2 <= j <= self.r - 2
        return self.bases[j - 2]

    def left_of(self, v: int) -> int:
        return self.stalk(1) if v == 2 else self.base(v - 1)

    def right_of(self, v: int) -> int:
        return self.stalk(self.r) if v == self.r - 1 else self.base(v)

    def local_triple(self, v: int) -> Triple:
        assert 2 <= v <= self.r - 1
        return (self.left_of(v), self.stalk(v), self.right_of(v))

    # -- predicates ---------------------------------------------------------

    def is_admissible(self) -> bool:
        return all(admissible_triple(*self.local_triple(v), reduced=True)
                   for v in range(2, self.r))

    def is_reduced_matching(self) -> bool:
        return self.is_admissible() and all(s <= 1 for s in self.stalks)

    def is_unbreakable(self) -> bool:
        """No base edge carries weight zero (vacuous when r = 3)."""
        return all(b > 0 for b in self.bases)

    def __add__(self, other: "CatWeighting") -> "CatWeighting":
        assert self.r == other.r
        return CatWeighting(self.r,
                            tuple(a + b for a, b in zip(self.stalks, other.stalks)),
                            tuple(a + b for a, b in zip(self.bases, other.bases)))

    def __str__(self):
        middle = []
        for v in range(2, self.r):
            middle.append(str(self.stalk(v)))
            if v <= self.r - 2:
                middle.append(str(self.base(v)))
        return "(%d | %s | %d)" % (self.stalk(1), " ".join(middle), self.stalk(self.r))


def sum_weighting(tup) -> CatWeighting:
    total = tup[0]
    for entry in tup[1:]:
        total = total + entry
    return total


# --- truncation ---------------------------------------------------------------

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
    degrees = {w.leaf_edge_weight(l) for l in tree.leaves()}
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


def is_balanced(tup) -> bool:
    """Pairwise base-edge values differ by at most one (vacuous when r = 3)."""
    if not tup:
        return True
    r = tup[0].r
    for j in range(2, r - 1):
        values = [entry.base(j) for entry in tup]
        if max(values) - min(values) > 1:
            return False
    return True


# --- balancing ------------------------------------------------------------------

def balance_triples(triples):
    """Balance local triples (a, b, c), b <= 1, by sum-preserving pair moves.

    Returns (balanced triples, move trace).  Each move bumps the minimum of
    an imbalanced coordinate up and the maximum down, dragging the other
    coordinate along when it is strictly ordered the same way.  With b <= 1
    the two flanks of one triple differ by at most one, which is exactly what
    makes every move admissible and the quadratic potential decrease.
    """
    work = [tuple(t) for t in triples]
    for a, b, c in work:
        assert b <= 1 and admissible_triple(a, b, c, reduced=True), \
            f"bad local triple {(a, b, c)}"
    trace = []

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
        trace.append((lo, hi, work[lo], work[hi]))
    return work, trace


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
    out = []
    for chain in slots:
        stalks = [chain[0][0]] + [t[1] for t in chain] + [chain[-1][2]]
        bases = [t[2] for t in chain[:-1]]
        out.append(CatWeighting(r, tuple(stalks), tuple(bases)))
    return out


def balance_with_trace(tup):
    """Balance a tuple of reduced caterpillar weightings (middle stalks <= 1)."""
    tup = list(tup)
    assert tup, "empty tuple"
    r = tup[0].r
    for entry in tup:
        assert entry.r == r and entry.is_admissible()
        assert all(entry.stalk(v) <= 1 for v in range(2, r)), \
            "middle stalks must be at most 1"
    per_vertex = {}
    traces = {}
    for v in range(2, r):
        balanced, trace = balance_triples([e.local_triple(v) for e in tup])
        per_vertex[v] = balanced
        traces[v] = trace
    out = _glue_balanced(r, per_vertex, len(tup))
    total_in = sum_weighting(tup)
    total_out = sum_weighting(out)
    assert total_in == total_out, "balancing changed the sum"
    assert is_balanced(out)
    return tuple(out), traces


def balance(tup):
    """Sum-preserving quadratic balancing; returns the balanced tuple."""
    if is_balanced(tup) and _span_balanced(tup):
        return tuple(tup)
    return balance_with_trace(tup)[0]


def _span_balanced(tup) -> bool:
    r = tup[0].r
    for i in (1, r):
        values = [entry.stalk(i) for entry in tup]
        if max(values) - min(values) > 1:
            return False
    return True


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


def type_vector(tup) -> tuple[str | None, ...]:
    """The A/B/None pattern at every base vertex (length-3 tuples only)."""
    assert len(tup) == 3, "type vectors are defined for triples"
    r = tup[0].r
    return tuple(type_at(tup, v) for v in range(2, r))


def _splice(left_donor: CatWeighting, local: Triple,
            right_donor: CatWeighting, v: int) -> CatWeighting:
    """New weighting: left of v from one entry, the v-triple, rest from another."""
    r = left_donor.r
    stalks = []
    bases = []
    for i in range(1, r + 1):
        if i < v:
            stalks.append(left_donor.stalk(i))
        elif i == v:
            stalks.append(local[1])
        else:
            stalks.append(right_donor.stalk(i))
    for j in range(2, r - 1):
        if j < v - 1:
            bases.append(left_donor.base(j))
        elif j == v - 1:
            bases.append(local[0])
        elif j == v:
            bases.append(local[2])
        else:
            bases.append(right_donor.base(j))
    if v == 2:
        stalks[0] = local[0]
    if v == r - 1:
        stalks[r - 1] = local[2]
    out = CatWeighting(r, tuple(stalks), tuple(bases))
    assert out.is_admissible(), "splice produced an inadmissible weighting"
    return out


def toric_segre_move(tup, v: int):
    """Apply the toric generalized Segre cubic relation at base vertex v.

    Flips the type at v between A and B, preserves the sum and every other
    type coordinate.  Raises if the required local pattern is absent.
    """
    tup = tuple(tup)
    assert len(tup) == 3
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

def merge_pair(x: CatWeighting, y: CatWeighting):
    """The min/max merge on a balanced unbreakable pair.

    Returns (eta, eta') with eta = min and eta' = max on every base edge and
    on the end stalks; middle stalk values are reallocated per trinode, the
    forced values first and any slack pushed onto eta'.
    """
    assert x.r == y.r
    r = x.r
    lo_b = tuple(min(a, b) for a, b in zip(x.bases, y.bases))
    hi_b = tuple(max(a, b) for a, b in zip(x.bases, y.bases))
    lo_s = [0] * r
    hi_s = [0] * r
    for i in (1, r):
        lo_s[i - 1] = min(x.stalk(i), y.stalk(i))
        hi_s[i - 1] = max(x.stalk(i), y.stalk(i))

    def flank(bases, stalks, v):
        left = stalks[0] if v == 2 else bases[v - 3]
        right = stalks[r - 1] if v == r - 1 else bases[v - 2]
        return left, right

    for v in range(2, r):
        budget = x.stalk(v) + y.stalk(v)
        la, lc = flank(lo_b, lo_s, v)
        ha, hc = flank(hi_b, hi_s, v)
        need_lo, need_hi = abs(la - lc), abs(ha - hc)
        slack = budget - need_lo - need_hi
        if slack < 0 or slack > (1 - need_lo) + (1 - need_hi):
            raise AssertionError("no admissible stalk allocation in merge")
        give_hi = min(1 - need_hi, slack)
        hi_s[v - 1] = need_hi + give_hi
        lo_s[v - 1] = need_lo + (slack - give_hi)
    eta = CatWeighting(r, tuple(lo_s), lo_b)
    eta2 = CatWeighting(r, tuple(hi_s), hi_b)
    assert eta.is_admissible() and eta2.is_admissible()
    assert eta + eta2 == x + y
    return eta, eta2


def normal_form(tup):
    """The unique balanced ascending form of an unbreakable tuple.

    The output depends only on the sum weighting: base edges and end stalks
    are dealt out in ascending order (the balanced multiset of each sum is
    unique), middle stalks are forced wherever the flanks differ, and the
    remaining stalk budget fills the free slots from the top.  Repeated
    min/max merging of pairs converges to exactly this form; computing it
    directly makes idempotence and permutation invariance immediate, and any
    two tuples with equal sums map to equal outputs.
    """
    tup = tuple(tup)
    if not tup:
        raise ValueError("normal_form needs a non-empty tuple")
    n = len(tup)
    r = tup[0].r
    for entry in tup:
        if not entry.is_reduced_matching():
            raise ValueError("entries must be reduced matchings")
        if not entry.is_unbreakable():
            raise ValueError("normal_form requires unbreakable entries")
    total = sum_weighting(tup)

    def deal(sum_value: int) -> list[int]:
        k, rem = divmod(sum_value, n)
        return [k] * (n - rem) + [k + 1] * rem

    stalk_cols = {i: deal(total.stalk(i)) for i in (1, r)}
    base_cols = {j: deal(total.base(j)) for j in range(2, r - 1)}
    for i, col in stalk_cols.items():
        assert max(col) <= 1, "end stalk sum exceeds the matching bound"

    def flank_cols(v: int):
        left = stalk_cols[1] if v == 2 else base_cols[v - 1]
        right = stalk_cols[r] if v == r - 1 else base_cols[v]
        return left, right

    middle_cols: dict[int, list[int]] = {}
    for v in range(2, r):
        left, right = flank_cols(v)
        budget = total.stalk(v)
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
        middle_cols[v] = values

    out = []
    for i in range(n):
        stalks = [stalk_cols[1][i]] + [middle_cols[v][i] for v in range(2, r)] \
            + [stalk_cols[r][i]]
        bases = [base_cols[j][i] for j in range(2, r - 1)]
        entry = CatWeighting(r, tuple(stalks), tuple(bases))
        assert entry.is_reduced_matching() and entry.is_unbreakable()
        out.append(entry)
    result = tuple(out)
    assert sum_weighting(result) == total
    assert is_balanced(result)
    return result


# --- breaking at a zero base edge and gluing back ---------------------------------

def split_at_base(tup, j: int):
    """Cut every entry at base edge j into left and right caterpillar pieces.

    Requires each entry to take value 0 or 1 on the cut edge (true for any
    balanced tuple that is breakable there).  The cut edge becomes the last
    stalk of the left piece (on the (j+1)-th caterpillar) and the first stalk
    of the right piece (on the (r-j+1)-th caterpillar); entry order is kept.
    """
    tup = tuple(tup)
    r = tup[0].r
    assert 2 <= j <= r - 2, "not a base edge"
    left, right = [], []
    for e in tup:
        cut = e.base(j)
        if cut > 1:
            raise ValueError("entry is not matching-valued at the cut edge")
        ls = tuple(e.stalk(i) for i in range(1, j + 1)) + (cut,)
        lb = tuple(e.base(k) for k in range(2, j))
        left.append(CatWeighting(j + 1, ls, lb))
        rs = (cut,) + tuple(e.stalk(i) for i in range(j + 1, r + 1))
        rb = tuple(e.base(k) for k in range(j + 1, r - 1))
        right.append(CatWeighting(r - j + 1, rs, rb))
    return tuple(left), tuple(right)


def concat_at_base(left, right):
    """Glue split pieces back into one tuple, pairing equal cut values.

    Left entries taking 0 on their last stalk are paired, in index order,
    with right entries taking 0 on their first stalk, and likewise for 1;
    the output follows the left entries' order.  This is the concatenation
    used to reassemble rewriting sequences across a broken edge, where the
    pairing within each group is immaterial.
    """
    left = tuple(left)
    right = tuple(right)
    assert left and len(left) == len(right)
    rl = left[0].r
    rr = right[0].r
    groups = {0: [], 1: []}
    for idx, f in enumerate(right):
        groups[f.stalk(1)].append(idx)
    out = []
    for e in left:
        cut = e.stalk(rl)
        if not groups[cut]:
            raise ValueError("cut values of the pieces do not match up")
        f = right[groups[cut].pop(0)]
        stalks = e.stalks[:-1] + f.stalks[1:]
        bases = e.bases + (cut,) + f.bases
        out.append(CatWeighting(rl + rr - 2, stalks, bases))
    return tuple(out)


# --- small exhaustive move-graph machinery (used by tests and reports) -----------

@lru_cache(maxsize=16)
def _combos_by_sum(universe: tuple, size: int) -> dict:
    """The ``size``-tuples of universe entries, grouped by their sum."""
    index: dict = {}
    for combo in itertools.product(universe, repeat=size):
        index.setdefault(sum_weighting(combo), []).append(combo)
    return index


def sum_preserving_replacements(tup, positions, universe):
    """All ways to replace the entries at the given positions, keeping the sum."""
    tup = tuple(tup)
    target = sum_weighting([tup[i] for i in positions])
    found = []
    for combo in _combos_by_sum(tuple(universe), len(positions)).get(target, ()):
        new = list(tup)
        for pos, entry in zip(positions, combo):
            new[pos] = entry
        found.append(tuple(new))
    return found


def quadratic_neighbors(tup, universe):
    """All tuples reachable by one sum-preserving move on at most 2 entries."""
    tup = tuple(tup)
    out = set()
    for i in range(len(tup)):
        for j in range(i, len(tup)):
            positions = (i,) if i == j else (i, j)
            for new in sum_preserving_replacements(tup, positions, universe):
                out.add(new)
    out.discard(tup)
    return out
