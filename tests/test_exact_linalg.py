import copy
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plucker.exact_linalg import (
    IncrementalSpan,
    QMatrix,
    _row_space,
    _unpeeled,
    kernel_basis,
    matvec,
    rank,
)
from plucker.invariant_ring import hilbert_dim
from plucker.relations import ideal_component_dim, relation_matrix


def sparse(row):
    """A dense test row as ``{col: value}``."""
    return {c: Fraction(v) for c, v in enumerate(row) if v}


def dense(vector, cols):
    return [vector.get(c, 0) for c in range(cols)]


def from_rows(rows, cols=None):
    """A frozen ``QMatrix`` from dense rows, ``cols`` wide (default: the first row's length)."""
    rows = [list(r) for r in rows]
    if cols is None:
        cols = len(rows[0]) if rows else 0
    m = QMatrix(len(rows), cols)
    for i, row in enumerate(rows):
        assert len(row) == cols, "ragged rows"
        for j, v in enumerate(row):
            m.set(i, j, v)
    return m.freeze()


def span_of(rows, cols):
    span = IncrementalSpan(cols)
    for row in rows:
        span.add(sparse(row))
    return span


def test_rank_examples():
    ident = from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(ident) == 3
    assert rank(from_rows([[1, 2], [2, 4]])) == 1
    assert rank(QMatrix(5, 7).freeze()) == 0


def test_kernel_examples():
    ident = from_rows([[1, 0], [0, 1]])
    assert kernel_basis(ident) == []
    m = from_rows([[1, 2], [2, 4]])
    kb = kernel_basis(m)
    assert kb == [{0: -2, 1: 1}]
    assert matvec(m, kb[0]) == {}
    # the free column's own entry is stored even when no row touches it
    kb = kernel_basis(from_rows([[1, 0, 3]]))
    assert kb == [{1: 1}, {2: 1, 0: -3}]
    assert all(v and all(v.values()) for v in kb)
    empty = QMatrix(0, 4).freeze()
    assert kernel_basis(empty) == [{i: 1} for i in range(4)]
    # matvec keeps no zero row, including a row whose terms cancel
    m = from_rows([[1, -1, 0], [0, 2, 0], [0, 0, 0]])
    assert matvec(m, {0: 1, 1: 1}) == {1: 2}
    assert matvec(m, {2: Fraction(5, 3)}) == {}


def test_span_examples():
    assert span_of([[1, 0], [0, 1]], 2).contains({0: 3, 1: -7})
    assert not span_of([[1, 1]], 2).contains({0: 1, 1: 2})
    assert span_of([[2, 4], [2, 4], [1, 2]], 2).dim == 1
    assert span_of([], 3).dim == 0 and not span_of([], 3).contains({0: 1})
    assert span_of([], 3).contains({})


def test_rank_nullity_and_kernel_annihilation():
    rng = random.Random(0)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = QMatrix(rows, cols)
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.6:
                    m.set(r, c, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        m.freeze()
        kb = kernel_basis(m)
        assert rank(m) + len(kb) == cols
        for v in kb:
            assert v and all(v.values())  # no zero is stored
            assert matvec(m, v) == {}


def test_rank_invariance_under_row_ops():
    rng = random.Random(1)
    for _ in range(20):
        rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        base = rank(from_rows(rows, 5))
        rng.shuffle(rows)
        scaled = [[Fraction(rng.choice([1, 2, 3, -1, 5]), rng.choice([1, 2])) * v
                   for v in row] for row in rows]
        assert rank(from_rows(scaled, 5)) == base


def test_incremental_span():
    span = IncrementalSpan(3)
    assert span.add({0: 1})
    assert not span.add({0: 2, 2: 0})
    assert span.add({1: Fraction(1, 3)})
    assert span.dim == 2
    assert span.contains({0: 5, 1: -7})
    assert not span.contains({2: 1})
    # a column outside 0..cols-1 is refused, not added
    for vector in ({5: 1}, {-1: 1}, {0: 1, 3: 0}):
        with pytest.raises(ValueError, match="outside 0..2"):
            span.add(vector)
        with pytest.raises(ValueError, match="outside 0..2"):
            span.contains(vector)
    assert span.dim == 2


def test_pivot_column_is_the_least_used():
    # rank and kernel_basis: the column fewest pivot rows touch
    m = from_rows([[1, 1, 0], [0, -2, 2]])
    # column 1 is in one pivot row, column 2 in none, so column 1 is free
    assert kernel_basis(m) == [{0: -1, 1: 1, 2: 1}]
    assert rank(m) == 2


def test_span_add_pivots_on_the_largest_column():
    span = IncrementalSpan(3)
    span.add({0: 1, 1: 1})
    span.add({1: -2, 2: 2})  # reduced to (2, 0, 2), then made primitive
    assert span.pivots == {1: {0: 1, 1: 1}, 2: {0: 1, 2: 1}}
    rng = random.Random(2)
    span = IncrementalSpan(8)
    for _ in range(12):
        span.add({c: rng.randint(-3, 3) for c in rng.sample(range(8), 3)})
    for col, row in span.pivots.items():
        assert col == max(row) and row[col] > 0


def test_frozen_matrix_rejects_writes():
    m = QMatrix(1, 1)
    m.freeze()
    with pytest.raises(ValueError):
        m.set(0, 0, 1)
    m = from_rows([[1, 0], [0, 2]])
    for r, c, v in ((0, 0, 5), (0, 1, 3), (1, 1, 0)):
        with pytest.raises(ValueError, match="frozen"):
            m.set(r, c, v)
    assert m.entries == {(0, 0): 1, (1, 1): 2}


# --- property tests against a plain Fraction Gauss-Jordan elimination ---------

def oracle_rref(rows, cols):
    """Canonical reduced row echelon form: (nonzero rows, pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][c]:
                f = rows[j][c]
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


@st.composite
def matrices(draw):
    """(cols, rows): small rational rows, with zero and repeated rows."""
    cols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(-4, 4, max_denominator=3))
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(base + [[0] * cols]), max_size=7))
    return cols, rows


properties = settings(derandomize=True, database=None, max_examples=100,
                      deadline=None)


@properties
@given(matrices())
def test_rank_and_kernel_agree_with_oracle(case):
    cols, rows = case
    m = from_rows(rows, cols)
    _, pivots = oracle_rref(rows, cols)
    assert rank(m) == span_of(rows, cols).dim == len(pivots)
    kb = kernel_basis(m)
    assert len(kb) == cols - len(pivots)
    assert len(oracle_rref([dense(v, cols) for v in kb], cols)[1]) == len(kb)
    for v in kb:
        assert all(v.values())
        assert matvec(m, v) == {}


def oracle_kernel(rows, cols):
    """Dense kernel basis read off ``oracle_rref``: for each free column f, 1 at f
    and minus each reduced row's entry at f at that row's pivot."""
    frows, pivots = oracle_rref(rows, cols)
    basis = []
    for f in range(cols):
        if f not in pivots:
            vec = [0] * cols
            vec[f] = 1
            for row, p in zip(frows, pivots):
                vec[p] = -row[f]
            basis.append(vec)
    return basis


@properties
@given(matrices())
def test_kernel_is_primitive_integer_rows(case):
    cols, rows = case
    m = from_rows(rows, cols)
    kb = kernel_basis(m)
    free = [c for c in range(cols) if c not in _row_space(m._rows, m.cols).pivots]
    assert len(kb) == len(free) == cols - rank(m)
    for v, f in zip(kb, free):
        assert all(type(x) is int and x for x in v.values())
        assert gcd(*v.values()) == 1
        assert v.keys() & set(free) == {f} and v[f] > 0
        assert matvec(m, v) == {}
    # the same space as the oracle's kernel
    oracle = oracle_kernel(rows, cols)
    both = [dense(v, cols) for v in kb] + oracle
    assert len(oracle_rref(both, cols)[1]) == len(oracle) == len(kb)


@properties
@given(matrices(), st.data())
def test_incremental_span_agrees_with_oracle(case, data):
    cols, rows = case
    span = IncrementalSpan(cols)
    for i, row in enumerate(rows):
        before = len(oracle_rref(rows[:i], cols)[1])
        grew = len(oracle_rref(rows[:i + 1], cols)[1]) > before
        assert span.contains(sparse(row)) == (not grew)
        assert span.add(sparse(row)) == grew
        assert span.dim == before + grew
    probe = data.draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols))
    inside = len(oracle_rref(rows + [probe], cols)[1]) == span.dim
    assert span_of(rows, cols).contains(sparse(probe)) == inside
    pivots = copy.deepcopy(span.pivots)
    assert span.contains(sparse(probe)) == inside
    assert span.pivots == pivots and span.dim == len(pivots)
    # pivot rows are primitive integer rows, zero at every earlier pivot column
    for k, (col, row) in enumerate(pivots.items()):
        assert row[col] and all(v and isinstance(v, int) for v in row.values())
        assert gcd(*row.values()) == 1
        assert not any(c in row for c in list(pivots)[:k])


# --- matvec through the column index -------------------------------------------

@properties
@given(matrices(), st.data())
def test_matvec_agrees_with_the_dense_product(case, data):
    cols, rows = case
    m = from_rows(rows, cols)
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    probe = data.draw(st.lists(entry, min_size=cols, max_size=cols))
    v = {c: x for c, x in enumerate(probe) if x}
    dense_product = {i: sum((Fraction(a) * x for a, x in zip(row, probe)), Fraction(0))
                     for i, row in enumerate(rows)}
    want = {i: x for i, x in dense_product.items() if x}
    first = matvec(m, v)
    assert first == want
    assert matvec(m, v) == first  # the index built by the first call


def test_matvec_on_a_matrix_being_built():
    m = QMatrix(2, 2)
    m.set(0, 0, 1)
    assert matvec(m, {0: 1, 1: 1}) == {0: 1}
    m.set(1, 1, 3)
    assert matvec(m, {0: 1, 1: 1}) == {0: 1, 1: 3}
    m.freeze()
    assert matvec(m, {1: Fraction(1, 3)}) == matvec(m, {1: Fraction(1, 3)}) == {1: 1}


# --- the number rule: int and Fraction inputs give the same results ----------

def test_set_stores_an_int_when_integral():
    m = QMatrix(1, 3)
    m.set(0, 0, Fraction(6, 3))
    m.set(0, 1, Fraction(1, 2))
    m.set(0, 2, Fraction(0, 5))
    assert m.entries == {(0, 0): 2, (0, 1): Fraction(1, 2)}
    assert type(m.entries[(0, 0)]) is int
    assert type(m.entries[(0, 1)]) is Fraction


@st.composite
def int_matrices(draw):
    """(cols, rows): small integer rows, with zero and repeated rows."""
    cols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(base + [[0] * cols]), max_size=7))
    return cols, rows


@properties
@given(int_matrices())
def test_int_and_fraction_routes_agree(case):
    cols, rows = case
    routes = [rows,
              [[Fraction(v) for v in row] for row in rows],
              [[Fraction(v, 3) for v in row] for row in rows]]
    ints, fractions, thirds = (from_rows(r, cols) for r in routes)
    assert all(type(v) is int for v in ints.entries.values())
    assert all(type(v) is int for v in fractions.entries.values())
    assert rank(ints) == rank(fractions) == rank(thirds)
    # scaling every entry by 1/3 scales no kernel vector
    assert kernel_basis(ints) == kernel_basis(fractions) == kernel_basis(thirds)
    spans = [IncrementalSpan(cols) for _ in routes]
    for span, route in zip(spans, routes):
        for row in route:
            span.add({c: v for c, v in enumerate(row) if v})
    assert spans[0].pivots == spans[1].pivots == spans[2].pivots


@properties
@given(int_matrices(), st.data())
def test_matvec_keeps_the_number_rule(case, data):
    # ints in, ints out; a Fraction only where a denominator is left
    cols, rows = case
    m = from_rows(rows, cols)
    probe = data.draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols))
    ints = {c: x for c, x in enumerate(probe) if x}
    assert all(type(x) is int for x in matvec(m, ints).values())
    thirds = {c: Fraction(x, 3) for c, x in enumerate(probe) if x}
    for x in matvec(m, thirds).values():
        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)
    assert matvec(from_rows([[3, 6]]), {0: Fraction(1, 3), 1: Fraction(1, 2)}) == {0: 4}
    assert type(matvec(from_rows([[3, 6]]), {0: Fraction(1, 3)})[0]) is int


# --- the row store and its entries view ----------------------------------------

def test_entries_view_over_the_rows():
    m = QMatrix(3, 4)
    m.set(2, 3, 7)
    m.set(0, 1, Fraction(1, 2))
    m.set(0, 0, -1)
    m.set(1, 2, 4)
    m.set(1, 2, 0)  # a write of zero removes the entry
    entries = m.entries
    assert len(entries) == 3 and len(QMatrix(5, 5).entries) == 0
    assert entries == {(0, 1): Fraction(1, 2), (0, 0): -1, (2, 3): 7}
    assert entries != {(0, 1): Fraction(1, 2), (0, 0): -1}
    assert entries[(2, 3)] == 7 and entries[(0, 1)] == Fraction(1, 2)
    assert sorted(entries.values()) == [-1, Fraction(1, 2), 7]
    assert list(entries) == [(0, 1), (0, 0), (2, 3)]  # by row, then by first write
    for missing in ((1, 2), (0, 3), (3, 0), (-1, 3), (0, -1)):
        assert missing not in entries and entries.get(missing) is None
        with pytest.raises(KeyError):
            entries[missing]
    m.set(1, 0, 9)  # the view follows later writes
    assert len(entries) == 4 and entries[(1, 0)] == 9
    with pytest.raises(TypeError):
        entries[(0, 0)] = 1
    assert repr(m) == "QMatrix(3x4, nnz=4)"


def _snapshot(m):
    return [(r, c, v, type(v)) for (r, c), v in m.entries.items()]


@properties
@given(matrices())
def test_batch_calls_leave_a_frozen_matrix_unchanged(case):
    cols, rows = case
    m = from_rows(rows, cols)
    before = _snapshot(m)
    rank(m)
    kernel_basis(m)
    matvec(m, {c: 1 for c in range(cols)})
    assert _snapshot(m) == before
    assert m.entries == {(i, j): Fraction(v) for i, row in enumerate(rows)
                         for j, v in enumerate(row) if v}


def test_shared_relation_matrix_keeps_its_rows():
    # relation_matrix is cached, so every caller eliminates the same matrix
    m = relation_matrix(8, 2)
    before = _snapshot(m)
    assert ideal_component_dim(8, 2) == m.cols - rank(m) == len(kernel_basis(m))
    assert _snapshot(m) == before and relation_matrix(8, 2) is m


# --- rank by peeling -------------------------------------------------------------

@st.composite
def peeling_matrices(draw):
    """(cols, rows, unpeeled): sparse rational rows of which only some peel.

    The core rows, over the first columns, each come twice, the second time
    scaled, so every column they touch is touched twice and none of them
    peels.  Each further row owns one later column: it is the first row
    nonzero there, and it may touch the core's columns and the columns of the
    rows before it, so the peel takes them from the last one back.  Zero rows
    are mixed in, and the rows are shuffled.  ``unpeeled`` counts the core and
    zero rows.
    """
    entry = st.fractions(-4, 4, max_denominator=3).filter(bool)
    width = draw(st.integers(0, 4))
    core = []
    for _ in range(draw(st.integers(0, 3)) if width else 0):
        row = draw(st.dictionaries(st.integers(0, width - 1), entry, max_size=width))
        scale = draw(entry)
        core += [row, {c: scale * v for c, v in row.items()}]
    owners = []
    for own in range(width, width + draw(st.integers(0, 4))):
        row = draw(st.dictionaries(st.integers(0, own - 1), entry, max_size=3)) if own else {}
        owners.append(row | {own: draw(entry)})
    zeros = [{}] * draw(st.integers(0, 2))
    cols = max(width + len(owners), 1)
    rows = draw(st.permutations(core + owners + zeros))
    return cols, [dense(row, cols) for row in rows], len(core) + len(zeros)


@properties
@given(peeling_matrices())
def test_rank_by_peeling_agrees_with_oracle(case):
    cols, rows, unpeeled = case
    m = from_rows(rows, cols)
    assert len(_unpeeled(m._rows)) == unpeeled
    assert rank(m) == len(oracle_rref(rows, cols)[1])


def test_peel_examples():
    # only row 0 touches column 0; once it is set aside, row 1 alone touches
    # column 1, and then row 2 alone touches column 2
    assert _unpeeled(from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])._rows) == []
    # every column touched twice: nothing peels, and elimination gives the rank
    m = from_rows([[1, 2], [2, 4], [0, 0]])
    assert _unpeeled(m._rows) == m._rows and rank(m) == 1


@pytest.mark.parametrize("n, k", [(6, 3), (8, 2), (8, 3), (10, 2)])
def test_peeling_alone_proves_degree_one_generation(n, k, monkeypatch):
    # full row rank of Sym^k V -> R_k with no row eliminated: the peeled rows
    # and the columns that named them form a triangular block
    def eliminate(span, row):
        raise AssertionError("rank eliminated a row")

    monkeypatch.setattr(IncrementalSpan, "_reduce", eliminate)
    assert rank(relation_matrix(n, k)) == hilbert_dim(n, k)
