"""Sparse matrices over RingElement: exact products, block assembly,
determinants, inverses.

A `Matrix` keeps the ring's n, the exact width and its rows, each one dict
{column << S | packed monomial: coefficient} with S = rings.packed_bits(n):
a product of two terms is one addition of keys, and a row of a product is
one flat accumulator (Gustavson, "Two fast algorithms for sparse matrices",
1978).  Ring elements are built only where a caller needs cells.  Used by
the bimodule model and by the matrix backend of the pseudocomplex engine.
Determinants and inverses come from one fraction-free Gauss-Jordan
elimination over R on stored cells, so a matrix is inverted exactly when its
determinant is a unit.  `echelon` with `back_substitute` serves the rational
linear systems: ranks, nullspaces and particular solutions.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import RingElement, checked_terms, exact_div, packed_bits, ring_text


def _cells(n, row):
    """The cells {column: RingElement} of a packed row."""
    s, cells = packed_bits(n), {}
    for key, x in row.items():
        c = key >> s
        if c in cells:
            cells[c].terms[key ^ c << s] = x
        else:
            cells[c] = RingElement._trusted(n, {key ^ c << s: x})
    return cells


class Matrix:
    """A matrix over Q[x_1..x_n, d] of `len(rows)` rows and `width` columns.
    `rows` is a tuple of packed rows that store no zero coefficient, no
    column outside 0..width-1 and an integral coefficient as an int; rows
    are shared between matrices and never mutated.  The constructor packs
    rows of cells {column: RingElement}; `cells` unpacks them.

    As a sequence a Matrix reads as its dense rows: row r is a tuple of
    `width` cells, 0 where none is stored.  No kernel here reads them; the
    benchmark's span counters and the dense oracles of the tests do.
    """

    __slots__ = ("n", "width", "rows")

    def __init__(self, n, width, rows):
        s, packed = packed_bits(n), []
        for row in rows:
            out = {}
            for c, cell in row.items():
                c <<= s
                for m, x in cell.terms.items():
                    out[c | m] = x
            packed.append(out)
        self.n, self.width, self.rows = n, width, tuple(packed)

    @classmethod
    def _packed(cls, n, width, rows):
        """Wrap packed rows that already keep the invariant."""
        out = object.__new__(cls)
        out.n, out.width, out.rows = n, width, tuple(rows)
        return out

    def cells(self):
        """The rows as fresh dicts {column: RingElement} of the stored cells."""
        return [_cells(self.n, row) for row in self.rows]

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, r):
        cells, zero = _cells(self.n, self.rows[r]), RingElement.zero(self.n)
        return tuple(cells.get(c, zero) for c in range(self.width))

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
            for k, y in rb.items():
                x = row.pop(k, 0) + y
                if x:
                    row[k] = x if type(x) is int or x.denominator != 1 else x.numerator
            rows.append(row)
        return Matrix._packed(self.n, self.width, rows)

    def __neg__(self):
        rows = [{k: -x for k, x in row.items()} for row in self.rows]
        return Matrix._packed(self.n, self.width, rows)


def mat_shape(m):
    return len(m.rows), m.width


def mat_zero(n, rows, cols):
    return Matrix._packed(n, cols, ({},) * rows)


def mat_identity(n, size):
    return Matrix._packed(n, size, ({r << packed_bits(n): 1} for r in range(size)))


def mat_map(a, f):
    """The matrix of f(x) over the stored cells x of a; a cell that f sends
    to 0 is not stored."""
    return Matrix(a.n, a.width, ({c: f(x) for c, x in _cells(a.n, row).items()} for row in a.rows))


def mat_texts(a):
    """The dense rows of a as cell texts, "0" where none is stored; a row's
    keys in decreasing order give each cell its terms in the order of text."""
    s, out = packed_bits(a.n), []
    for row in a.rows:
        texts, cells = ["0"] * a.width, {}
        for key, x in sorted(row.items(), reverse=True):
            c = key >> s
            cells.setdefault(c, []).append((key ^ c << s, x))
        for c, cell in cells.items():
            texts[c] = ring_text(a.n, tuple(cell))
        out.append(texts)
    return out


def mat_scale(a, f):
    """a times f, a RingElement or a rational: the product a . f I, or for
    f = c m of one term every key plus m with its coefficient times c."""
    f = f if isinstance(f, RingElement) else RingElement.constant(a.n, f)
    if f.n != a.n:
        raise ValueError(f"cannot scale a matrix over n={a.n} by an element over n={f.n}")
    if len(f.terms) != 1:
        diagonal = Matrix(a.n, a.width, ({c: f} for c in range(a.width)))
        return mat_mul_sum(((a, diagonal),)) if a.width else a
    ((m, c),) = f.terms.items()
    rows = ({k + m: x * c for k, x in row.items()} for row in a.rows)
    return Matrix._packed(a.n, a.width, [checked_terms(a.n, row) for row in rows])


def mat_blocks(grid):
    """The matrix whose block (i, j) is grid[i][j].

    Blocks in one grid row share a height, blocks in one grid column a width.
    The cells of a block at column offset o are its keys plus o << S.
    """
    s, shifts, width = packed_bits(grid[0][0].n), [], 0
    for block in grid[0]:
        shifts.append(width << s)
        width += block.width
    rows = []
    for blocks in grid:
        for r in range(len(blocks[0].rows)):
            row = {}
            for shift, block in zip(shifts, blocks):
                for k, x in block.rows[r].items():
                    row[k + shift] = x
            rows.append(row)
    return Matrix._packed(grid[0][0].n, width, rows)


def mat_mul(a, b):
    """Exact product: the one-pair case of mat_mul_sum."""
    return mat_mul_sum(((a, b),))


def mat_mul_sum(pairs):
    """Exact sum of the products a . b over a nonempty sequence of pairs: the
    one product kernel.  Each output row is one accumulator over every pair:
    a key of a's row selects the row of b at its column, and each key there
    plus the first key's monomial is an output key.  Coefficients that
    cancel are not stored; checked_terms refuses an overflowed monomial.
    Middle dimensions may differ per pair."""
    n, width = pairs[0][0].n, pairs[0][1].width
    s = packed_bits(n)
    mask = (1 << s) - 1
    out = [{} for _ in pairs[0][0].rows]
    for a, b in pairs:
        if a.n != n or b.n != n:
            raise ValueError(f"cannot multiply over n={a.n} and n={b.n} in a sum over n={n}")
        b_rows = b.rows
        if len(a.rows) != len(out) or not a.width or len(b_rows) != a.width or b.width != width:
            raise ValueError(f"shape mismatch {mat_shape(a)} x {mat_shape(b)}")
        for acc, row in zip(out, a.rows):
            get = acc.get
            for key, x in row.items():
                m = key & mask
                for k, y in b_rows[key >> s].items():
                    k += m
                    acc[k] = get(k, 0) + x * y
    return Matrix._packed(n, width, [checked_terms(n, acc) for acc in out])


def mat_is_zero(a):
    return not any(a.rows)


def _gauss_jordan(a, inverse):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of a, or of [a | I]
    when `inverse` is set; returns (det a, the rows of cells of det a . a^-1,
    or None without `inverse`), or (0, None).

    The working rows are a's cell view, and row r of I is one cell at
    column size + r.  At pivot p in column k, each other row
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
    m = a.cells()
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
