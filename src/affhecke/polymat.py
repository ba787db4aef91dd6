"""Dense matrices over RingElement: exact products, block assembly,
determinants, inverses.

Matrices are tuples of tuples of RingElement, all sharing the same n.  Used
by the bimodule model and by the matrix backend of the pseudocomplex engine.
Also the one exact rational elimination routine (`echelon` with
`back_substitute`): ranks, nullspaces, linear solutions and inverses.
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
    """Exact product, visiting only the nonzero entries of a and of b."""
    _, mid = mat_shape(a)
    mid2, cols = mat_shape(b)
    if mid != mid2 or mid == 0:
        raise ValueError(f"shape mismatch {mat_shape(a)} x {mat_shape(b)}")
    n = a[0][0].n
    zero = RingElement.zero(n)
    b_rows = [[(c, y) for c, y in enumerate(row) if y.terms] for row in b]
    out = []
    for row in a:
        cells = {}
        for k, x in enumerate(row):
            if not x.terms:
                continue
            for c, y in b_rows[k]:
                acc = cells.get(c)
                if acc is None:
                    acc = cells[c] = {}
                accumulate_product(acc, x, y)
        out_row = [zero] * cols
        for c, acc in cells.items():
            value = from_accumulated(n, acc)
            if value.terms:
                out_row[c] = value
        out.append(tuple(out_row))
    return tuple(out)


def mat_transpose(a):
    rows, cols = mat_shape(a)
    return tuple(tuple(a[r][c] for r in range(rows)) for c in range(cols))


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a, b):
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def det_bareiss(a):
    """Fraction-free determinant; divisions are exact over the domain."""
    size, cols = mat_shape(a)
    if size != cols:
        raise ValueError("determinant of non-square matrix")
    if size == 0:
        return RingElement.one(0)
    n = a[0][0].n
    m = [list(row) for row in a]
    sign = 1
    prev = RingElement.one(n)
    for k in range(size - 1):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, size) if not m[r][k].is_zero()), None)
            if pivot is None:
                return RingElement.zero(n)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                m[r][c] = exact_div(m[k][k] * m[r][c] - m[r][k] * m[k][c], prev)
            m[r][k] = RingElement.zero(n)
        prev = m[k][k]
    return m[size - 1][size - 1] * sign


def mat_constant_part(a):
    """Entry-wise constant (degree-0) coefficients, as Fractions."""
    return [[x.constant_coefficient() for x in row] for row in a]


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


def _rational_inverse(rows):
    """The inverse of a square rational matrix, from [A | I]; raises
    ArithmeticError when A is singular."""
    size = len(rows)
    pivots = echelon(
        {**dict(enumerate(row)), size + r: 1} for r, row in enumerate(rows)
    )
    if any(col >= size for col in pivots):
        raise ArithmeticError("constant part is singular")
    columns = [back_substitute(pivots, {size + c: -1}) for c in range(size)]
    zero = Fraction(0)
    return [[columns[c].get(r, zero) for c in range(size)] for r in range(size)]


def mat_invert(a):
    """Exact inverse of a matrix invertible over the polynomial ring.

    Requires the determinant to be a unit (nonzero rational).  Splits off
    the constant part and expands the finite Neumann series of the strictly
    positive-degree remainder.
    """
    size, cols = mat_shape(a)
    if size != cols:
        raise ValueError("cannot invert non-square matrix")
    if size == 0:
        return a
    n = a[0][0].n
    const = _rational_inverse(mat_constant_part(a))
    b = tuple(
        tuple(RingElement.constant(n, x) for x in row) for row in const
    )
    p = mat_add(mat_mul(a, b), mat_neg(mat_identity(n, size)))
    inv = mat_identity(n, size)
    power = p
    guard = 0
    while not mat_is_zero(power):
        inv = mat_add(inv, mat_scale(power, Fraction((-1) ** (guard + 1))))
        power = mat_mul(power, p)
        guard += 1
        if guard > 4 * size + 64:
            raise ArithmeticError("matrix is not invertible over the ring")
    return mat_mul(b, inv)
