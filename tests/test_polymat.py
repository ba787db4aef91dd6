import random
from fractions import Fraction

import pytest

from affhecke.polymat import mat_eq, mat_mul, mat_shape
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


def test_mat_mul_shape_mismatch():
    z = RingElement.zero(2)
    with pytest.raises(ValueError):
        mat_mul(((z, z),), ((z, z),))
    with pytest.raises(ValueError):
        mat_mul(((),), ((z,),))
