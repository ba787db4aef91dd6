"""Sparse matrices over RingElement: exact products, block assembly,
determinants, inverses.

A matrix is a `Matrix`: its rows, a tuple of dicts {column: RingElement}
that hold the nonzero cells only, with the ring's n and the exact width.  Used by the
bimodule model and by the matrix backend of the pseudocomplex engine.
Determinants and inverses come from one fraction-free Gauss-Jordan
elimination over R on stored cells, so a matrix is inverted exactly when its
determinant is a unit.  `echelon` with `back_substitute` serves the rational
linear systems: ranks, nullspaces and particular solutions.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg

from .rings import RingElement, accumulate_product, exact_div, from_accumulated


class Matrix:
    """A matrix over Q[x_1..x_n, d] of `len(rows)` rows and `width` columns.
    `rows` is a tuple of sparse rows {column: RingElement}: no row stores a
    zero cell or a column outside 0..width-1.  Rows are shared between
    matrices and never mutated, and the arithmetic here walks them only.

    As a sequence a Matrix reads as its dense rows: row r is a tuple of
    `width` cells, 0 where none is stored.  No kernel here reads them; the
    benchmark's span counters and the dense oracles of the tests do.
    """

    __slots__ = ("n", "width", "rows")

    def __init__(self, n, width, rows):
        self.n = n
        self.width = width
        self.rows = tuple(rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, r):
        cells = [RingElement.zero(self.n)] * self.width
        for c, x in self.rows[r].items():
            cells[c] = x
        return tuple(cells)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.rows)))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and (self.n, self.width, self.rows) == (other.n, other.width, other.rows)
        )

    def __add__(self, other):
        if (self.n, len(self.rows), self.width) != (other.n, len(other.rows), other.width):
            raise ValueError(
                f"cannot add {mat_shape(self)} over n={self.n} "
                f"and {mat_shape(other)} over n={other.n}"
            )
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            row = dict(ra)
            for c, y in rb.items():
                x = row.pop(c, None)
                x = y if x is None else x + y
                if x.terms:
                    row[c] = x
            rows.append(row)
        return Matrix(self.n, self.width, rows)

    def __neg__(self):
        return mat_map(self, neg)


def mat_shape(m):
    return len(m.rows), m.width


def mat_zero(n, rows, cols):
    return Matrix(n, cols, ({},) * rows)


def mat_identity(n, size):
    one = RingElement.one(n)
    return Matrix(n, size, tuple({r: one} for r in range(size)))


def mat_map(a, f):
    """The matrix of f(x) over the stored cells x of a; a cell that f sends
    to 0 is not stored."""
    rows = []
    for row in a.rows:
        out = {}
        for c, x in row.items():
            x = f(x)
            if x.terms:
                out[c] = x
        rows.append(out)
    return Matrix(a.n, a.width, rows)


def mat_scale(a, f):
    return mat_map(a, lambda x: x * f)


def mat_blocks(grid):
    """The matrix whose block (i, j) is grid[i][j].

    Blocks in one grid row share a height, blocks in one grid column a width.
    """
    offsets, width = [], 0
    for block in grid[0]:
        offsets.append(width)
        width += block.width
    rows = []
    for blocks in grid:
        for r in range(len(blocks[0].rows)):
            row = {}
            for offset, block in zip(offsets, blocks):
                for c, x in block.rows[r].items():
                    row[offset + c] = x
            rows.append(row)
    return Matrix(grid[0][0].n, width, rows)


def mat_mul(a, b):
    """Exact product: the one-pair case of mat_mul_sum."""
    return mat_mul_sum(((a, b),))


def mat_mul_sum(pairs):
    """Exact sum of the products a . b over a nonempty sequence of pairs: the
    one product kernel.  Each output cell is accumulated once over every
    pair, walking the stored cells of a and, for each, the stored row of b
    it selects; cells that cancel are not stored.  Middle dimensions may
    differ per pair."""
    n, width = pairs[0][0].n, pairs[0][1].width
    cells = [{} for _ in pairs[0][0].rows]
    for a, b in pairs:
        if a.n != n or b.n != n:
            raise ValueError(f"cannot multiply over n={a.n} and n={b.n} in a sum over n={n}")
        b_rows = b.rows
        if len(a.rows) != len(cells) or not a.width or len(b_rows) != a.width or b.width != width:
            raise ValueError(f"shape mismatch {mat_shape(a)} x {mat_shape(b)}")
        for row_cells, row in zip(cells, a.rows):
            for k, x in row.items():
                for c, y in b_rows[k].items():
                    acc = row_cells.get(c)
                    if acc is None:
                        acc = row_cells[c] = {}
                    accumulate_product(acc, x, y)
    rows = []
    for row_cells in cells:
        row = {}
        for c, acc in row_cells.items():
            x = from_accumulated(n, acc)
            if x.terms:
                row[c] = x
        rows.append(row)
    return Matrix(n, width, rows)


def mat_is_zero(a):
    return not any(a.rows)


def _gauss_jordan(a, inverse):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of a, or of [a | I]
    when `inverse` is set; returns (det a, the sparse rows of det a . a^-1,
    or None without `inverse`), or (0, None).

    The working rows are dict copies of a's stored rows, and row r of I is
    one cell at column size + r.  At pivot p in column k, each other row
    becomes (p row - row[k] row_k) / q with q the previous pivot, so entries
    are minors and divisions exact; only cells that the row or row k store
    are touched, and column k leaves the rows.  A row swap negates one of
    the two rows, so the last pivot is det a.  Without `inverse` the rows
    above the pivot, which never pivot again, are not updated.
    """
    size, cols = mat_shape(a)
    if size != cols:
        raise ValueError(f"non-square matrix {size} x {cols}")
    prev = one = RingElement.one(a.n)
    m = [dict(row) for row in a.rows]
    if inverse:
        for r, row in enumerate(m):
            row[size + r] = one
    for k in range(size):
        if k not in m[k]:
            pivot = next((r for r in range(k + 1, size) if k in m[r]), None)
            if pivot is None:
                return RingElement.zero(a.n), None
            m[k], m[pivot] = m[pivot], {c: -x for c, x in m[k].items()}
        row_k = m[k]
        p = row_k.pop(k)
        scale, divide = p != one, prev != one
        for r in range(0 if inverse else k + 1, size):
            row = m[r]
            f = row.pop(k, None)
            if r == k or f is None and p == prev:
                continue  # row k, or a row that the step leaves as it is
            if scale:
                for c, x in row.items():
                    row[c] = p * x
            if f is not None:
                f = -f
                for c, y in row_k.items():
                    x = row.pop(c, None)
                    x = f * y if x is None else x + f * y
                    if x.terms:
                        row[c] = x
            if divide:
                for c, x in row.items():
                    row[c] = exact_div(x, prev)
        prev = p
    return prev, [{c - size: x for c, x in row.items()} for row in m] if inverse else None


def det_bareiss(a):
    """Fraction-free determinant; divisions are exact over the domain."""
    return _gauss_jordan(a, False)[0]


def echelon(rows):
    """Forward Gaussian elimination of sparse rational rows, in order.

    A row is a dict column -> coefficient; columns are any mutually
    comparable keys.  Each row is reduced against the pivots found so far, in
    increasing column order; a nonzero remainder is scaled to a leading 1 at
    its smallest column, which becomes a new pivot.  Returns {pivot column:
    reduced row}, whose length is the rank; a reduced row has 0 at every
    pivot found before it.
    """
    pivots = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        for col in sorted(pivots):
            f = row.pop(col, 0)
            if not f:
                continue
            for c, v in pivots[col].items():
                if c != col:
                    x = row.get(c, 0) - f * v
                    if x:
                        row[c] = x
                    else:
                        row.pop(c, None)
        if row:
            col = min(row)
            inv = Fraction(1, row[col])
            pivots[col] = {c: inv * v for c, v in row.items()}
    return pivots


def back_substitute(pivots, free):
    """The solution x of the reduced rows of `echelon` (each row dotted with
    x is 0) whose non-pivot columns take the values in `free` (0 where
    absent), as a dict of its nonzero values.

    Setting one free column to 1 gives a nullspace basis vector; a
    right-hand side kept as a last column and set to -1 gives a particular
    solution.
    """
    x = {c: v for c, v in free.items() if v}
    for col in sorted(pivots, reverse=True):
        val = 0
        for c, v in pivots[col].items():
            if c != col and c in x:
                val -= v * x[c]
        if val:
            x[col] = val
    return x


def mat_invert(a):
    """Exact inverse over the polynomial ring; raises ArithmeticError unless
    a is square with a unit determinant (a nonzero rational)."""
    rows, cols = mat_shape(a)
    if rows != cols:
        raise ArithmeticError(f"a {rows} x {cols} matrix is not invertible")
    det, block = _gauss_jordan(a, True)
    if not det.is_unit():
        raise ArithmeticError("matrix is not invertible over the ring")
    inverse, c = Matrix(a.n, cols, block), det.constant_coefficient()
    return inverse if c == 1 else -inverse if c == -1 else mat_scale(inverse, Fraction(1, c))
