"""Exact rational sparse linear algebra: rank, kernel, span membership.

Everything is over Q with arbitrary-precision arithmetic; no floats anywhere.
The number rule: an integral value is a Python ``int``, and a ``Fraction``
appears only where a denominator does (``exact``).  ``QMatrix`` stores its
entries by that rule, so an integer matrix is eliminated without building a
single ``Fraction``, and ``kernel_basis`` returns primitive integer vectors.
A vector is a dict ``{col: value}`` that never stores a zero: ``matvec``,
``kernel_basis`` and ``IncrementalSpan`` all take or return this one format,
and no dense list is built.  ``QMatrix`` keeps one such dict per row, and
``entries`` is a read-only ``{(row, col): value}`` view over them, so the
batch path reads the rows with no copy and no ``(row, col)`` key is stored.
All elimination goes through one row-major, fraction-free kernel, the pivot
rows of an ``IncrementalSpan``:

- Rows are primitive integer rows: denominators cleared, content divided out.
- Pivot rows are kept in insertion order, keyed by pivot column, and each one
  is zero at every earlier pivot column.  So a new row is reduced in one pass,
  in insertion order, against the pivots whose columns it touches; fill-in
  can only add later pivot columns.
- A reduction step updates the row in place, ``row = (p/g)*row - (q/g)*piv``
  with ``g = gcd(p, q)``.  The row's content is divided out once, after the
  last step; a primitive row with a positive pivot entry is unique, so the
  stored pivot rows are the same as with a division after every step.
- The pivot column depends on the path a row takes:
  - ``IncrementalSpan.add`` takes the largest column of the reduced row.
    Every pivot row is then zero above its pivot column, which keeps the
    fill-in of a long stream of rows, such as an orbit scan, low.
  - The batch path behind ``rank`` and ``kernel_basis`` takes the column
    that the fewest pivot rows touch (a Markowitz column count, as in
    structured Gaussian elimination), ties going to the smallest column.  On
    a whole sparse matrix this is far cheaper than the largest column.
  Both rules are deterministic.

``rank`` peels first, as structured Gaussian elimination does: a row that
alone touches some column is independent of the others, which are zero
there, so it is set aside with no arithmetic, again and again until no column
is touched by exactly one row left.  The rows set aside and the columns that
named them form a triangular block with a nonzero diagonal, so rank = rows
set aside + the kernel's rank of the rest.  Every relation matrix tried
peels completely: its full row rank needs no elimination.  ``kernel_basis``
is a thin wrapper over the kernel; the dimension of a span and membership in
it are ``IncrementalSpan.dim`` and ``IncrementalSpan.contains`` on a span
grown with ``add``.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def exact(value) -> int | Fraction:
    """``value`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class _Entries(Mapping):
    """Read-only view ``{(row, col): value}`` over a matrix's row dicts."""

    def __init__(self, rows: list[dict[int, int | Fraction]]):
        self._rows = rows

    def __getitem__(self, key: tuple[int, int]) -> int | Fraction:
        r, c = key
        if 0 <= r < len(self._rows) and c in self._rows[r]:
            return self._rows[r][c]
        raise KeyError(key)

    def __iter__(self):
        return ((r, c) for r, row in enumerate(self._rows) for c in row)

    def __len__(self) -> int:
        return sum(map(len, self._rows))


class QMatrix:
    """Immutable sparse matrix over Q, one dict ``{col: value}`` per row.

    Build with ``QMatrix(rows, cols)`` + ``set`` calls, then ``freeze()``.
    Zero entries are never stored; an integral entry is stored as an ``int``
    and any other as a ``Fraction`` (``exact``).  ``entries`` is a read-only
    ``{(row, col): value}`` view of the rows.  ``matvec`` builds a column
    index on its first call on a frozen matrix and keeps it; a matrix that is
    never multiplied never pays for one.
    """

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._rows: list[dict[int, int | Fraction]] = [{} for _ in range(rows)]
        self.entries: Mapping[tuple[int, int], int | Fraction] = _Entries(self._rows)
        self._frozen = False
        self._by_col: dict[int, list[tuple[int, int | Fraction]]] | None = None

    def set(self, r: int, c: int, value) -> None:
        if self._frozen:
            raise ValueError("matrix is frozen")
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"entry ({r}, {c}) outside a {self.rows}x{self.cols} matrix")
        value = exact(value)
        if value:
            self._rows[r][c] = value
        else:
            self._rows[r].pop(c, None)

    def freeze(self) -> "QMatrix":
        self._frozen = True
        return self

    def _columns(self) -> dict[int, list[tuple[int, int | Fraction]]]:
        """The rows as ``{col: [(row, value)]}``.

        Built on the first call once frozen and kept; a matrix that is still
        being built gets a fresh index every call.
        """
        if self._by_col is not None:
            return self._by_col
        index: dict[int, list[tuple[int, int | Fraction]]] = {}
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                index.setdefault(c, []).append((r, v))
        if self._frozen:
            self._by_col = index
        return index

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def primitive_row(vector: dict[int, int | Fraction]) -> dict[int, int]:
    """Primitive integer row of a rational vector ``{col: value}``.

    A row of ints skips the ``Fraction``/``lcm`` round trip.
    """
    row = {c: v for c, v in vector.items() if v}
    if any(type(v) is not int for v in row.values()):
        row = {c: Fraction(v) for c, v in row.items()}
        denom = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (denom // v.denominator) for c, v in row.items()}
    return _remove_content(row)


def _remove_content(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row by the gcd of its entries, in place; returns it."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def matvec(m: QMatrix, v: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
    """m.v for a vector ``{col: value}``, as ``{row: value}`` without zeros.

    Visits only the columns in the vector's support, through ``QMatrix._columns``.
    """
    columns = m._columns()
    out: dict[int, int | Fraction] = {}
    for c, x in v.items():
        for r, val in columns.get(c, ()):
            out[r] = out.get(r, 0) + val * x
    return {r: exact(x) for r, x in out.items() if x}


class IncrementalSpan:
    """Grow a row space one vector at a time, tracking its dimension.

    ``add`` reduces a vector ``{col: value}`` against the pivot rows and
    returns True when it enlarged the span; the new pivot row's pivot is its largest column.
    Used for orbit-span computations where early termination at a known
    target rank saves a lot of work.  ``pivots`` maps each pivot column to
    its primitive integer row, with a positive pivot entry, newest last.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.pivots: dict[int, dict[int, int]] = {}
        self._index: dict[int, int] = {}  # pivot column -> insertion position

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Reduce a primitive integer row in place; zero at every pivot column.

        A heap of insertion positions yields the pivots the row touches.  The
        result is primitive again.
        """
        pivots, index = self.pivots, self._index
        todo = [(index[c], c) for c in row.keys() & index.keys()]
        heapify(todo)
        while todo:
            col = heappop(todo)[1]
            q = row.get(col)
            if not q:
                continue
            piv = pivots[col]
            p = piv[col]
            g = gcd(p, q)
            p //= g
            q //= g
            if p != 1:
                for c in row:
                    row[c] *= p
            for c, v in piv.items():
                w = row.get(c)
                if w is None:
                    row[c] = -q * v
                    if c in index:
                        heappush(todo, (index[c], c))
                else:
                    w -= q * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
            if not row:
                return row
        return _remove_content(row)

    def _keep(self, col: int, row: dict[int, int]) -> None:
        """Store a reduced row as the pivot row of ``col``.

        A fresh dict, with a positive pivot entry: in-place updates leave a
        row's table as large as the row ever grew.
        """
        sign = 1 if row[col] > 0 else -1
        self._index[col] = len(self.pivots)
        self.pivots[col] = {c: sign * v for c, v in row.items()}

    def _row(self, vector) -> dict[int, int]:
        """``primitive_row`` of a vector; ``ValueError`` on a column outside 0..cols-1."""
        for c in vector:
            if not 0 <= c < self.cols:
                raise ValueError(f"column {c} outside 0..{self.cols - 1}")
        return primitive_row(vector)

    def add(self, vector) -> bool:
        row = self._reduce(self._row(vector))
        if not row:
            return False
        self._keep(max(row), row)
        return True

    def contains(self, vector) -> bool:
        return not self._reduce(self._row(vector))


def _row_space(rows: list[dict[int, int | Fraction]], cols: int) -> IncrementalSpan:
    """Row space of some rows, each pivot on the column fewest pivot rows touch."""
    span = IncrementalSpan(cols)
    uses: dict[int, int] = {}  # column -> pivot rows nonzero there
    for row in rows:  # primitive_row copies it, so the rows are unchanged
        row = span._reduce(primitive_row(row))
        if row:
            span._keep(min(row, key=lambda c: (uses.get(c, 0), c)), row)
            for c in row:
                uses[c] = uses.get(c, 0) + 1
    return span


def _unpeeled(rows: list[dict[int, int | Fraction]]) -> list[dict[int, int | Fraction]]:
    """The rows left once the rows that alone touch a column are set aside, repeatedly.

    Each column keeps the number of rows left that touch it and the XOR of
    their indices, so a column touched once names its row.
    """
    count: dict[int, int] = {}
    xor: dict[int, int] = {}
    for r, row in enumerate(rows):
        for c in row:
            count[c] = count.get(c, 0) + 1
            xor[c] = xor.get(c, 0) ^ r
    left = [True] * len(rows)
    todo = [c for c, k in count.items() if k == 1]
    while todo:
        c = todo.pop()
        if count[c] != 1:  # its row went with another column
            continue
        r = xor[c]
        left[r] = False
        for c in rows[r]:
            count[c] -= 1
            xor[c] ^= r
            if count[c] == 1:
                todo.append(c)
    return [row for row, keep in zip(rows, left) if keep]


def rank(m: QMatrix) -> int:
    """Rank over Q: the rows the peel sets aside plus the elimination rank of the rest.

    The peel reads the support, which is exact because no zero is stored;
    the rows it sets aside are never copied.
    """
    rest = _unpeeled(m._rows)
    return m.rows - len(rest) + _row_space(rest, m.cols).dim


def kernel_basis(m: QMatrix) -> list[dict[int, int]]:
    """Basis of the right kernel, one primitive integer vector per free column.

    The pivot rows are cleared newest first: once every later pivot row is
    zero at all other pivot columns, reducing an earlier one against them
    clears it there too.  Row p, with pivot entry d and entry a at a free
    column f, then puts ``-a*L/d`` at p in the vector of f, which is L at f,
    L the lcm of the d of the rows touching f; its content is divided out.
    m.v = 0 exactly, and the vectors come in increasing order of their free
    column, each positive there.
    """
    reduced = IncrementalSpan(m.cols)
    for col, row in reversed(_row_space(m._rows, m.cols).pivots.items()):
        reduced._keep(col, reduced._reduce(row))
    touching = {c: [] for c in range(m.cols) if c not in reduced.pivots}
    for p, row in reduced.pivots.items():
        for c, a in row.items():
            if c != p:
                touching[c].append((p, row[p], a))
    basis = []
    for f, rows in touching.items():
        scale = lcm(*(d for _, d, _ in rows))
        vec = {f: scale} | {p: -a * (scale // d) for p, d, a in rows}
        basis.append(_remove_content(vec))
    return basis
