import random
from fractions import Fraction

import pytest

from affhecke.polymat import (
    _rational_inverse,
    back_substitute,
    echelon,
    mat_blocks,
    mat_eq,
    mat_mul,
    mat_shape,
)
from affhecke.rings import RingElement


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
        product = mat_mul(a, b)
        assert mat_shape(product) == (rows, cols)
        assert mat_eq(product, naive_mul(a, b))
        for row in product:
            for entry in row:
                assert all(entry.terms.values())


def test_mat_mul_cancellation_gives_zero_entries():
    x1 = RingElement.x(2, 1)
    a = ((x1, x1),)
    b = ((x1,), (-x1,))
    assert mat_mul(a, b)[0][0].terms == {}


def test_mat_blocks_places_non_square_blocks():
    rng = random.Random(5)
    heights, widths = (1, 2), (2, 3)
    grid = [[random_sparse_matrix(rng, 2, h, w) for w in widths] for h in heights]
    m = mat_blocks(grid)
    assert isinstance(m, tuple) and all(isinstance(row, tuple) for row in m)
    assert mat_shape(m) == (3, 5)
    for bi, h in enumerate(heights):
        for bj, w in enumerate(widths):
            for r in range(h):
                for c in range(w):
                    assert m[sum(heights[:bi]) + r][sum(widths[:bj]) + c] is grid[bi][bj][r][c]


def test_mat_blocks_of_one_block_is_that_matrix():
    a = random_sparse_matrix(random.Random(6), 3, 2, 4)
    assert mat_blocks([[a]]) == a
    x = ((RingElement.x(2, 1),),)
    assert mat_blocks(((x,),)) == x


def test_mat_mul_shape_mismatch():
    z = RingElement.zero(2)
    with pytest.raises(ValueError):
        mat_mul(((z, z),), ((z, z),))
    with pytest.raises(ValueError):
        mat_mul(((),), ((z,),))


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
        expected = dense_inverse(m)
        if expected is None:
            singular += 1
            with pytest.raises(ArithmeticError):
                _rational_inverse(m)
        else:
            got = _rational_inverse(m)
            assert got == expected
            assert all(isinstance(x, Fraction) for row in got for x in row)
    assert singular >= 10
