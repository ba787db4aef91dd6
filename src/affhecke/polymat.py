"""Dense matrices over RingElement: exact products, block assembly,
determinants, inverses.

Matrices are tuples of tuples of RingElement, all sharing the same n.  Used
by the bimodule model and by the matrix backend of the pseudocomplex engine.
Determinants and inverses come from one fraction-free Gauss-Jordan
elimination over R, so a matrix is inverted exactly when its determinant is
a unit.  `echelon` with `back_substitute` serves the rational linear
systems: ranks, nullspaces and particular solutions.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import RingElement, accumulate_product, exact_div, from_accumulated


def mat_shape(m):
    return len(m), len(m[0]) if m else 0


def mat_zero(n, rows, cols):
    z = RingElement.zero(n)
    return tuple(tuple(z for _ in range(cols)) for _ in range(rows))


def mat_identity(n, size):
    one = RingElement.one(n)
    z = RingElement.zero(n)
    return tuple(
        tuple(one if r == c else z for c in range(size)) for r in range(size)
    )


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in ra) for ra in a)


def mat_scale(a, f):
    return tuple(tuple(x * f for x in ra) for ra in a)


def mat_blocks(grid):
    """The matrix whose block (i, j) is grid[i][j].

    Blocks in one grid row share a height, blocks in one grid column a width.
    """
    return tuple(
        tuple(x for row in rows for x in row)
        for blocks in grid
        for rows in zip(*blocks)
    )


def mat_mul(a, b):
    """Exact product: the one-pair case of mat_mul_sum."""
    return mat_mul_sum(((a, b),))


def mat_mul_sum(pairs):
    """Exact sum of the products a . b over a nonempty sequence of pairs: the
    one product kernel, accumulating each output cell once over every pair and
    visiting only nonzero entries.  Middle dimensions may differ per pair."""
    cols = mat_shape(pairs[0][1])[1]
    cells = [{} for _ in pairs[0][0]]
    for a, b in pairs:
        mid = len(a[0]) if a else 0
        if len(a) != len(cells) or mid == 0 or len(b) != mid or len(b[0]) != cols:
            raise ValueError(f"shape mismatch {mat_shape(a)} x {mat_shape(b)}")
        b_rows = [[(c, y) for c, y in enumerate(row) if y.terms] for row in b]
        for row_cells, row in zip(cells, a):
            for k, x in enumerate(row):
                if not x.terms:
                    continue
                for c, y in b_rows[k]:
                    accumulate_product(row_cells.setdefault(c, {}), x, y)
    n = a[0][0].n
    zero = RingElement.zero(n)
    out = []
    for row_cells in cells:
        out_row = [zero] * cols
        for c, acc in row_cells.items():
            out_row[c] = from_accumulated(n, acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a, b):
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def _gauss_jordan(a, inverse):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of a, or of [a | I]
    when `inverse` is set; returns (det a, det a . a^-1), or (0, None).

    At pivot p in column k, each other row becomes (p row - row[k] row_k) / q
    with q the previous pivot, so entries are minors and divisions exact.  A
    row swap negates one of the two rows, so the last pivot is det a.
    """
    size, cols = mat_shape(a)
    if size != cols:
        raise ValueError(f"non-square matrix {size} x {cols}")
    n = a[0][0].n if a else 0
    right = mat_identity(n, size) if inverse else [()] * size
    m = [list(row) + list(extra) for row, extra in zip(a, right)]
    prev = one = RingElement.one(n)
    for k in range(size):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, size) if not m[r][k].is_zero()), None)
            if pivot is None:
                return RingElement.zero(n), None
            m[k], m[pivot] = m[pivot], [-x for x in m[k]]
        row_k = m[k]
        p = row_k[k]
        for r, row in enumerate(m):
            f = row[k]
            if r == k or not f.terms and p == prev:
                continue  # row k, or a row that the step leaves as it is
            for c in range(k + 1, len(row)):
                x = p * row[c]
                if f.terms:
                    x = x - f * row_k[c]
                row[c] = x if prev is one else exact_div(x, prev)
        prev = p
    return prev, [row[size:] for row in m]


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
    scale = Fraction(1, det.constant_coefficient())
    return tuple(tuple(x * scale for x in row) for row in block)
