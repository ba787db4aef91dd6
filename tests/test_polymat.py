import random
from fractions import Fraction

import pytest

from affhecke import bimod, polymat
from affhecke.polymat import (
    Matrix,
    back_substitute,
    det_bareiss,
    echelon,
    mat_blocks,
    mat_identity,
    mat_invert,
    mat_is_zero,
    mat_mul,
    mat_mul_sum,
    mat_scale,
    mat_shape,
    mat_zero,
)
from affhecke.rings import EXPONENT_LIMIT, RingElement, exact_div
from bimodule_bases import (
    dense,
    exponents,
    gram_matrix,
    sigma_basis_change,
    sparse,
    stores_no_zero,
)


def random_entry(rng, n):
    if rng.random() < 0.6:
        return RingElement.zero(n)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * (n + 1)
        mono[rng.randrange(n + 1)] += rng.randint(0, 2)
        terms[tuple(mono)] = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    return RingElement(n, terms)


def random_sparse_matrix(rng, n, rows, cols):
    zero_row = rng.randrange(rows)
    zero_col = rng.randrange(cols)
    return tuple(
        tuple(
            RingElement.zero(n) if r == zero_row or c == zero_col else random_entry(rng, n)
            for c in range(cols)
        )
        for r in range(rows)
    )


def naive_mul(a, b):
    n = a[0][0].n
    out = []
    for row in a:
        out_row = []
        for c in range(len(b[0])):
            acc = RingElement.zero(n)
            for k, x in enumerate(row):
                acc = acc + x * b[k][c]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def test_mat_mul_matches_dense_reference():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows, mid, cols = (rng.randint(1, 6) for _ in range(3))
        a = random_sparse_matrix(rng, n, rows, mid)
        b = random_sparse_matrix(rng, n, mid, cols)
        product = mat_mul(sparse(a), sparse(b))
        assert mat_shape(product) == (rows, cols)
        assert dense(product) == naive_mul(a, b)
        assert stores_no_zero(product)
        for row in product.cells():
            for entry in row.values():
                assert all(entry.terms.values())


def test_mat_mul_cancellation_gives_zero_entries():
    x1 = RingElement.x(2, 1)
    a = sparse(((x1, x1),))
    b = sparse(((x1,), (-x1,)))
    assert mat_mul(a, b) == mat_zero(2, 1, 1)


def test_mat_mul_sum_is_the_sum_of_mat_muls():
    # each pair has its own middle dimension; the sum shares the outer shape
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 3)
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        pairs = []
        for _ in range(rng.randint(1, 4)):
            mid = rng.randint(1, 5)
            pairs.append((
                sparse(random_sparse_matrix(rng, n, rows, mid)),
                sparse(random_sparse_matrix(rng, n, mid, cols)),
            ))
        expected = mat_zero(n, rows, cols)
        for a, b in pairs:
            expected = expected + mat_mul(a, b)
        got = mat_mul_sum(pairs)
        assert mat_shape(got) == (rows, cols)
        assert got == expected
        assert stores_no_zero(got) and stores_no_zero(expected)
        assert all(all(x.terms.values()) for row in got.cells() for x in row.values())
        # a pair and its negative cancel in every cell
        a, b = pairs[0]
        negated = sparse(tuple(tuple(-x for x in row) for row in dense(a)))
        assert mat_mul_sum([(a, b), (negated, b)]) == mat_zero(n, rows, cols)


def _cellwise_mat_mul_sum_reference(pairs):
    """The cell-wise kernel that packed rows replaced, on the cell view:
    each output cell is a RingElement accumulated over every pair, walking
    the stored cells of a and, for each, the stored row of b it selects."""
    n, width = pairs[0][0].n, pairs[0][1].width
    zero = RingElement.zero(n)
    cells = [{} for _ in pairs[0][0].rows]
    for a, b in pairs:
        b_rows = b.cells()
        for row_cells, row in zip(cells, a.cells()):
            for k, x in row.items():
                for c, y in b_rows[k].items():
                    row_cells[c] = row_cells.get(c, zero) + x * y
    return Matrix(n, width, cells)


def random_cells(rng, n, rows, cols):
    """Rows of cells {column: RingElement} with multi-term cells, Fraction
    coefficients and empty rows."""
    out = []
    for _ in range(rows):
        row = {}
        if rng.random() < 0.8:
            for c in range(cols):
                x = random_entry(rng, n)
                if x.terms:
                    row[c] = x
        out.append(row)
    return out


def test_packed_rows_match_cellwise_reference():
    # about 200 seeded sums over n = 0..3 against the cell-wise kernel, cell
    # for cell; some are a pair and its negative, whose sum cancels to 0
    rng = random.Random(41)
    multi_term = fractions = width_one = empty_rows = cancelled = 0
    for case in range(200):
        n = case % 4
        rows, cols = rng.randint(1, 5), rng.choice((1, rng.randint(1, 6)))
        pairs = []
        for _ in range(rng.randint(1, 4)):
            mid = rng.choice((1, rng.randint(1, 6)))
            a = random_cells(rng, n, rows, mid)
            b = random_cells(rng, n, mid, cols)
            # the cell view round-trips: Matrix(n, w, cells) gives the cells back
            for cells, width in ((a, mid), (b, cols)):
                m = Matrix(n, width, cells)
                assert m.cells() == cells and Matrix(n, width, m.cells()) == m
                multi_term += any(len(x.terms) > 1 for row in cells for x in row.values())
                fractions += any(
                    type(v) is Fraction for row in cells for x in row.values() for v in x.terms.values()
                )
                empty_rows += not all(cells)
            pairs.append((Matrix(n, mid, a), Matrix(n, cols, b)))
        if rng.random() < 0.2:
            pairs.append((-pairs[0][0], pairs[0][1]))
            pairs = pairs[:1] + pairs[-1:]
        got = mat_mul_sum(pairs)
        expected = _cellwise_mat_mul_sum_reference(pairs)
        assert got == expected and got.cells() == expected.cells()
        assert stores_no_zero(got)
        # scaling by a ring element of any number of terms, or a rational
        a = pairs[0][0]
        f = rng.choice((random_entry(rng, n), Fraction(-3, 2), 0))
        scaled = Matrix(n, a.width, [{c: x * f for c, x in row.items()} for row in a.cells()])
        assert mat_scale(a, f) == scaled and stores_no_zero(mat_scale(a, f))
        width_one += cols == 1 or any(a.width == 1 for a, _ in pairs)
        cancelled += len(pairs) == 2 and pairs[1][0] == -pairs[0][0] and mat_is_zero(got)
    assert min(multi_term, fractions, width_one, empty_rows) >= 20 and cancelled >= 20


def test_kernel_refuses_an_overflowed_product():
    # x1 is the top field, next to the column bits, and d the lowest; a
    # product that reaches EXPONENT_LIMIT sets that field's guard bit, also
    # when its two paths cancel
    half = EXPONENT_LIMIT // 2
    for n, power in ((2, (half, 0, 0)), (2, (0, 0, half)), (0, (half,))):
        f = RingElement(n, {power: 1})
        with pytest.raises(OverflowError):
            mat_mul(Matrix(n, 1, ({0: f},)), Matrix(n, 1, ({0: f},)))
        a = Matrix(n, 2, ({0: f, 1: f},))
        b = Matrix(n, 1, ({0: f}, {0: -f}))
        with pytest.raises(OverflowError):
            mat_mul(a, b)
    # 64 columns, so that keys carry 6 column bits above the monomial; the
    # top field legally at EXPONENT_LIMIT - 1 does not raise
    n = 3
    top = RingElement(n, {(EXPONENT_LIMIT - 1 - half, 0, 0, 0): 1})
    x = RingElement(n, {(half, 0, 0, 0): 1})
    row = {c: top * RingElement.constant(n, c + 1) for c in range(64)}
    product = mat_mul(Matrix(n, 1, ({0: x},)), Matrix(n, 64, (row,)))
    assert product.cells() == [{c: x * y for c, y in row.items()}]
    assert all(
        exponents(cell) == {(EXPONENT_LIMIT - 1, 0, 0, 0): c + 1}
        for c, cell in product.cells()[0].items()
    )


def test_mat_mul_sum_shape_mismatch():
    rng = random.Random(14)

    def draw(rows, cols):
        return sparse(random_sparse_matrix(rng, 2, rows, cols))

    a, b = draw(2, 3), draw(3, 4)
    for bad in (
        (draw(3, 3), draw(3, 4)),  # rows
        (draw(2, 3), draw(3, 2)),  # columns
        (draw(2, 2), draw(3, 4)),  # middle
    ):
        with pytest.raises(ValueError, match=r"^shape mismatch \(\d, \d\) x \(\d, \d\)$"):
            mat_mul_sum([(a, b), bad])


def test_product_refuses_another_n():
    # diag(x1, x2) over n = 2 times diag(x1, x3) over n = 3 once gave
    # ({0: x1*x2}, {1: x3^2}): packed fields of different widths were added
    a = Matrix(2, 2, ({0: RingElement.x(2, 1)}, {1: RingElement.x(2, 2)}))
    b = Matrix(3, 2, ({0: RingElement.x(3, 1)}, {1: RingElement.x(3, 3)}))
    with pytest.raises(ValueError, match=r"^cannot multiply over n=2 and n=3 in a sum over n=2$"):
        mat_mul(a, b)
    # a pair over one n that is not the n of the first pair
    with pytest.raises(ValueError, match=r"^cannot multiply over n=3 and n=3 in a sum over n=2$"):
        mat_mul_sum([(a, a), (b, b)])
    assert mat_mul_sum([(a, a), (a, a)]) == mat_scale(mat_mul(a, a), 2)
    # packed keys over n = 3 do not add to keys over n = 2, so scaling refuses
    # one term and several terms alike
    for f in (RingElement.x(3, 1), RingElement.x(3, 1) + RingElement.delta(3)):
        with pytest.raises(ValueError, match=r"^cannot scale a matrix over n=2 by an element over n=3$"):
            mat_scale(a, f)


def test_matrix_sum_refuses_other_shapes_and_rings():
    # zipping the rows of a 2 x 2 and a 3 x 3 identity once gave 2 * I_2
    for a, b, shapes in (
        (mat_identity(0, 2), mat_identity(0, 3), r"\(2, 2\) over n=0 and \(3, 3\) over n=0"),
        (mat_zero(2, 2, 3), mat_zero(2, 3, 3), r"\(2, 3\) over n=2 and \(3, 3\) over n=2"),
        (mat_zero(2, 2, 3), mat_zero(2, 2, 2), r"\(2, 3\) over n=2 and \(2, 2\) over n=2"),
        (mat_identity(1, 2), mat_identity(2, 2), r"\(2, 2\) over n=1 and \(2, 2\) over n=2"),
    ):
        with pytest.raises(ValueError, match=rf"^cannot add {shapes}$"):
            a + b
    assert mat_identity(0, 2) + mat_zero(0, 2, 2) == mat_identity(0, 2)


def test_mat_blocks_places_non_square_blocks():
    rng = random.Random(5)
    heights, widths = (1, 2), (2, 3)
    grid = [[sparse(random_sparse_matrix(rng, 2, h, w)) for w in widths] for h in heights]
    m = mat_blocks(grid)
    assert isinstance(m, Matrix) and all(isinstance(row, dict) for row in m.rows)
    assert mat_shape(m) == (3, 5)
    assert stores_no_zero(m)
    for bi, h in enumerate(heights):
        for bj, w in enumerate(widths):
            for r in range(h):
                for c in range(w):
                    got = m.cells()[sum(heights[:bi]) + r].get(sum(widths[:bj]) + c)
                    assert got == grid[bi][bj].cells()[r].get(c)


def test_mat_blocks_of_one_block_is_that_matrix():
    a = sparse(random_sparse_matrix(random.Random(6), 3, 2, 4))
    assert mat_blocks([[a]]) == a
    x = sparse(((RingElement.x(2, 1),),))
    assert mat_blocks(((x,),)) == x


def test_mat_mul_shape_mismatch():
    with pytest.raises(ValueError, match=r"^shape mismatch \(1, 2\) x \(1, 2\)$"):
        mat_mul(mat_zero(2, 1, 2), mat_zero(2, 1, 2))
    with pytest.raises(ValueError, match=r"^shape mismatch \(1, 0\) x \(1, 1\)$"):
        mat_mul(mat_zero(2, 1, 0), mat_zero(2, 1, 1))


def dense_rank(rows):
    """Rank by textbook Gaussian elimination with row swaps."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def dense_inverse(rows):
    """Gauss-Jordan on [A | I]; None when A is singular."""
    size = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(size)]
        for r, row in enumerate(rows)
    ]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def random_rational_matrix(rng, rows, cols):
    """Small entries, many zeros; often singular: some rows are zero or
    combinations of earlier rows."""
    m = []
    for _ in range(rows):
        if m and rng.random() < 0.3:
            a, b = rng.choice(m), rng.choice(m)
            f = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
            m.append([x + f * y for x, y in zip(a, b)])
        elif rng.random() < 0.1:
            m.append([Fraction(0)] * cols)
        else:
            m.append([
                Fraction(0)
                if rng.random() < 0.4
                else Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                for _ in range(cols)
            ])
    return m


def sparse_rows(m, key=lambda c: c):
    return [{key(c): x for c, x in enumerate(row) if x} for row in m]


def test_echelon_rank_and_nullspace_match_dense_reference():
    rng = random.Random(31)
    deficient = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_rational_matrix(rng, rows, cols)
        rank = dense_rank(m)
        deficient += rank < min(rows, cols)
        pivots = echelon(sparse_rows(m))
        assert len(pivots) == rank
        # any comparable column keys give the same rank
        assert len(echelon(sparse_rows(m, key=lambda c: (c % 2, -c)))) == rank
        for col, row in pivots.items():
            assert row[col] == 1 and min(row) == col
        basis = [back_substitute(pivots, {free: 1}) for free in range(cols) if free not in pivots]
        assert len(basis) == cols - rank
        for x in basis:
            assert all(sum(a * x.get(c, 0) for c, a in enumerate(row)) == 0 for row in m)
        if basis:
            assert dense_rank([[x.get(c, 0) for c in range(cols)] for x in basis]) == len(basis)
    assert deficient >= 10


def test_back_substitute_particular_solution():
    rng = random.Random(32)
    inconsistent_cases = 0
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_rational_matrix(rng, rows, cols)
        # a right-hand side in the column space, kept as the last column
        y = [Fraction(rng.randint(-2, 2)) for _ in range(cols)]
        b = [sum(a * v for a, v in zip(row, y)) for row in m]
        pivots = echelon({**r, cols: rhs} for r, rhs in zip(sparse_rows(m), b))
        assert cols not in pivots
        x = back_substitute(pivots, {cols: -1})
        assert [sum(a * x.get(c, 0) for c, a in enumerate(row)) for row in m] == b
        # the all-ones right-hand side is inconsistent exactly when the
        # last column becomes a pivot
        inconsistent = dense_rank([row + [1] for row in m]) > dense_rank(m)
        assert (cols in echelon({**r, cols: 1} for r in sparse_rows(m))) == inconsistent
        inconsistent_cases += inconsistent
    assert inconsistent_cases >= 5


def test_rational_inverse_matches_dense_reference():
    rng = random.Random(33)
    singular = 0
    for _ in range(60):
        size = rng.randint(1, 5)
        m = random_rational_matrix(rng, size, size)
        a = sparse(tuple(tuple(RingElement.constant(0, x) for x in row) for row in m))
        expected = dense_inverse(m)
        if expected is None:
            singular += 1
            with pytest.raises(ArithmeticError):
                mat_invert(a)
        else:
            got = mat_invert(a)
            assert stores_no_zero(got)
            assert dense(got) == tuple(
                tuple(RingElement.constant(0, x) for x in row) for row in expected
            )
    assert singular >= 10


def test_invert_beyond_the_constant_part():
    # the constant part [[1, 0], [0, 1]] does not decide: det = 1, and the
    # part of positive degree is not nilpotent
    one, d = RingElement.one(0), RingElement.delta(0)
    a = sparse(((one + d * d, d), (d, one)))
    assert det_bareiss(a) == one
    assert mat_invert(a) == sparse(((one, -d), (-d, one + d * d)))


def unit_det_matrix(rng, size):
    """A product of elementary matrices with entries c d^k, a permutation and
    a diagonal of nonzero rationals: the determinant is a unit."""
    d = RingElement.delta(0)
    m = [list(row) for row in dense(mat_identity(0, size))]
    for _ in range(rng.randint(0, 2 * size)):
        i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if i == j:
            continue
        f = RingElement.constant(0, rng.choice([1, -1, 2, Fraction(1, 2)]))
        for _ in range(rng.randint(0, 2)):
            f = f * d
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    perm = rng.sample(range(size), size)
    scale = [RingElement.constant(0, rng.choice([1, -1, 3, Fraction(-2, 3)])) for _ in range(size)]
    return sparse(tuple(
        tuple(m[perm[r]][c] * scale[r] for c in range(size)) for r in range(size)
    ))


def check_invertibility_decision(a):
    """det a is a unit exactly when mat_invert(a) returns, and then
    a mat_invert(a) = I.  Returns whether a is invertible."""
    unit = det_bareiss(a).is_unit()
    try:
        inverse = mat_invert(a)
    except ArithmeticError:
        assert not unit
        return False
    assert unit
    assert stores_no_zero(inverse)
    assert mat_mul(a, inverse) == mat_identity(a.n, len(a))
    return True


def test_invertible_exactly_when_det_is_a_unit():
    rng = random.Random(34)
    d = RingElement.delta(0)
    non_constant = 0
    for _ in range(80):
        size = rng.randint(1, 4)
        a = unit_det_matrix(rng, size)
        assert check_invertibility_decision(a)
        non_constant += any(m != (0,) for row in a.cells() for x in row.values() for m in exponents(x))
        # a factor d in one row makes det d times a unit: not a unit
        r = rng.randrange(size)
        b = tuple(tuple(x * d for x in row) if i == r else row for i, row in enumerate(dense(a)))
        assert not check_invertibility_decision(sparse(b))
        check_invertibility_decision(
            sparse(tuple(tuple(random_entry(rng, 0) for _ in range(size)) for _ in range(size)))
        )
    assert non_constant >= 30


def test_bimodule_basis_changes_invert():
    rng = random.Random(35)
    for n in (2, 3, 4):
        for _ in range(8):
            word = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
            assert check_invertibility_decision(gram_matrix(n, word))
            assert check_invertibility_decision(sigma_basis_change(n, word))


def _dense_gauss_jordan_reference(a, inverse):
    """Dense fraction-free Gauss-Jordan elimination, the oracle of polymat's
    stored-cells kernel: every cell of a's dense rows and of a dense identity
    block takes a product and a difference at each step.  Returns (det a,
    the dense rows of det a . a^-1) or (0, None)."""
    size, cols = mat_shape(a)
    if size != cols:
        raise ValueError(f"non-square matrix {size} x {cols}")
    n = a.n
    prev = one = RingElement.one(n)
    zero = RingElement.zero(n)
    m = [list(row) for row in a]
    if inverse:
        for r, row in enumerate(m):
            row += [one if c == r else zero for c in range(size)]
    for k in range(size):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, size) if not m[r][k].is_zero()), None)
            if pivot is None:
                return zero, None
            m[k], m[pivot] = m[pivot], [-x for x in m[k]]
        row_k = m[k]
        p = row_k[k]
        for r, row in enumerate(m):
            f = row[k]
            if r == k or not f.terms and p == prev:
                continue
            for c in range(k + 1, len(row)):
                x = p * row[c]
                if f.terms:
                    x = x - f * row_k[c]
                row[c] = x if prev is one else exact_div(x, prev)
        prev = p
    return prev, [row[size:] for row in m]


def _unitriangular(rng, n, size, upper):
    """Cells off the diagonal are 0 or one term c x_i or c d of degree <= 1,
    so that the minors of a product of two stay small."""
    one, zero = RingElement.one(n), RingElement.zero(n)
    variables = [one, RingElement.delta(n)] + [RingElement.x(n, i) for i in range(1, n + 1)]

    def cell():
        if rng.random() < 0.5:
            return zero
        return rng.choice(variables) * rng.choice([1, -1, 2, Fraction(1, 2)])

    return [
        [one if r == c else cell() if (c > r) == upper else zero for c in range(size)]
        for r in range(size)
    ]


def _dense_product(a, b):
    n = a[0][0].n
    return [
        [sum((x * y for x, y in zip(row, col)), RingElement.zero(n)) for col in zip(*b)]
        for row in a
    ]


def _permutation_sign(perm):
    return (-1) ** sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))


def elimination_case(rng, n, size, kind):
    """A size x size matrix of the given kind over n, with its determinant."""
    zero = RingElement.zero(n)
    if not size:
        return Matrix(n, 0, ()), RingElement.one(n)
    det = {
        "determinant 2": RingElement.constant(n, 2),
        "determinant x1 + d": (RingElement.x(n, 1) if n else zero) + RingElement.delta(n),
    }.get(kind, RingElement.one(n))
    upper = _unitriangular(rng, n, size, True)
    perm = rng.sample(range(size), size)
    if kind == "zero first pivot":
        # the rows of an upper unitriangular matrix, row 0 moved down, so that
        # row 0 has 0 in column 0; a 1 x 1 case is the singular [0]
        m, det = (upper, det) if size > 1 else ([[zero]], zero)
        if perm[0] == 0:
            perm.reverse()
    else:
        m = _dense_product(_unitriangular(rng, n, size, False), upper)
    # scaling row 0 sets the determinant
    m[0] = [x * det for x in m[0]]
    if kind == "singular":
        # one row becomes a combination of the others (zero when size is 1)
        r = rng.randrange(size)
        coeffs = [(random_entry(rng, n), m[i]) for i in range(size) if i != r]
        m[r] = [sum((f * row[c] for f, row in coeffs), zero) for c in range(size)]
        det = zero
    m = [m[i] for i in perm]
    if _permutation_sign(perm) < 0:
        det = -det
    return Matrix(n, size, tuple({c: x for c, x in enumerate(row) if x.terms} for row in m)), det


ELIMINATION_KINDS = (
    "permuted unitriangular",
    "singular",
    "zero first pivot",
    "determinant 2",
    "determinant x1 + d",
)


def test_elimination_matches_dense_reference():
    # the stored-cells kernel against the dense one it replaced, cell for
    # cell: the determinant, the block det a . a^-1 and the inverse
    rng = random.Random(37)
    swaps = singular = cases = 0
    for n in (0, 2):
        for size in range(7):
            for kind in ELIMINATION_KINDS:
                for _ in range(3):
                    a, det = elimination_case(rng, n, size, kind)
                    ref_det, ref_block = _dense_gauss_jordan_reference(a, True)
                    assert ref_det == det
                    assert det_bareiss(a) == det
                    got_det, got_block = polymat._gauss_jordan(a, True)
                    assert got_det == det
                    if ref_block is None:
                        assert got_block is None
                        singular += 1
                        with pytest.raises(ArithmeticError):
                            mat_invert(a)
                        continue
                    block = Matrix(n, size, got_block)
                    assert stores_no_zero(block) and dense(block) == tuple(map(tuple, ref_block))
                    swaps += size > 1 and 0 not in a.cells()[0]
                    if det.is_unit():
                        inverse = mat_invert(a)
                        assert inverse == mat_scale(block, Fraction(1, det.constant_coefficient()))
                        assert not size or mat_mul(inverse, a) == mat_identity(n, size)
                    else:
                        with pytest.raises(ArithmeticError):
                            mat_invert(a)
                    cases += 1
    assert cases + singular == 2 * 7 * len(ELIMINATION_KINDS) * 3
    assert singular >= 40 and swaps >= 20


@pytest.mark.parametrize("n, word_from, word_to", [
    (6, (0, 2, 4), (4, 2, 0)),
    (8, (0, 2, 4, 6), (6, 4, 2, 0)),
])
def test_crossing_isomorphisms_invert(n, word_from, word_to):
    m = bimod.theta(n, word_from, word_to).matrix
    inverse = mat_invert(m)
    assert stores_no_zero(inverse)
    assert mat_mul(inverse, m) == mat_identity(n, len(m))


def test_cancelling_operations_store_no_zero_cell():
    # f + (-f), a product whose paths cancel and scaling by 0 leave every
    # cell empty; no operation stores a zero
    rng = random.Random(36)
    for _ in range(20):
        n = rng.randint(1, 3)
        rows, mid, cols = (rng.randint(1, 4) for _ in range(3))
        a = sparse(random_sparse_matrix(rng, n, rows, mid))
        b = sparse(random_sparse_matrix(rng, n, mid, cols))
        zero = mat_zero(n, rows, mid)
        for m in (
            a + (-a),
            mat_scale(a, 0),
            mat_scale(a, RingElement.zero(n)),
            mat_mul(a, b) + mat_mul(-a, b),
        ):
            assert stores_no_zero(m) and mat_is_zero(m)
            assert not any(m.rows)
        assert a + (-a) == zero and mat_scale(a, 0) == zero
        assert mat_mul_sum([(a, b), (-a, b)]) == mat_zero(n, rows, cols)
        for m in (a + a, -a, mat_scale(a, Fraction(-1, 2)), mat_mul(a, b)):
            assert stores_no_zero(m)
    # x1 x1 - x1 x1: the two paths of the one cell cancel
    x1 = RingElement.x(2, 1)
    product = mat_mul(sparse(((x1, x1),)), sparse(((x1,), (-x1,))))
    assert product == mat_zero(2, 1, 1) and product.rows[0] == {}


def test_width_is_carried_exactly():
    # a last column with no stored cell still counts: the shape is never
    # read off the largest stored column
    one = RingElement.one(2)
    a = Matrix(2, 3, ({0: one}, {1: one}))
    assert mat_shape(a) == (2, 3)
    assert a != Matrix(2, 2, ({0: one}, {1: one}))
    with pytest.raises(ValueError, match=r"^non-square matrix 2 x 3$"):
        det_bareiss(a)
    with pytest.raises(ArithmeticError, match=r"^a 2 x 3 matrix is not invertible$"):
        mat_invert(a)
    assert mat_shape(mat_mul(mat_identity(2, 2), a)) == (2, 3)
    with pytest.raises(ValueError, match=r"^shape mismatch \(2, 3\) x \(2, 2\)$"):
        mat_mul(a, mat_identity(2, 2))
    assert mat_shape(mat_mul(a, mat_zero(2, 3, 4))) == (2, 4)


def test_a_matrix_reads_as_its_dense_rows():
    # by position every cell reads, 0 where none is stored; an empty row
    # and a last column with no stored cell still count
    one, x1, zero = RingElement.one(2), RingElement.x(2, 1), RingElement.zero(2)
    a = Matrix(2, 3, ({0: one}, {}, {1: x1}))
    assert len(a) == 3 and len(a[1]) == 3
    assert tuple(a) == ((one, zero, zero), (zero, zero, zero), (zero, x1, zero))
    assert [a[r] for r in range(len(a))] == list(a)
    assert sparse(tuple(a)) == a
    assert not Matrix(2, 0, ({}, {}))[0] and not Matrix(2, 3, ())
