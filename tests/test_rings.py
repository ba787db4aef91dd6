import random
from fractions import Fraction

import pytest

from affhecke.rings import (
    LaurentPoly,
    RingElement,
    _apply_variable_map,
    act_simple,
    demazure,
    divide_by_delta,
    exact_div,
    gauss,
    parse_ring_element,
    simple_root,
)
from bimodule_bases import act_sigma


def x(n, i):
    return RingElement.x(n, i)


def d(n):
    return RingElement.delta(n)


def act_tau(f):
    """tau(x_i) = x_{i+1} for i < n, tau(x_n) = x_1 - d, tau(d) = d."""
    n = f.n
    images = [x(n, j + 1) for j in range(1, n)] + [x(n, 1) - d(n), d(n)]
    return _apply_variable_map(f, images)


def act_tau_inverse(f):
    n = f.n
    images = [x(n, n) + d(n)] + [x(n, j - 1) for j in range(2, n + 1)] + [d(n)]
    return _apply_variable_map(f, images)


def random_element(rng, n, terms=4, deg=3):
    out = RingElement.zero(n)
    for _ in range(terms):
        mono = [0] * (n + 1)
        for _ in range(rng.randint(0, deg)):
            mono[rng.randrange(n + 1)] += 1
        out = out + RingElement(n, {tuple(mono): Fraction(rng.randint(-4, 4))})
    return out


def test_simple_roots():
    assert simple_root(3, 1) == x(3, 1) - x(3, 2)
    total = RingElement.zero(3)
    for i in range(3):
        total = total + simple_root(3, i)
    assert total == d(3)
    assert simple_root(2, 0) == x(2, 2) - x(2, 1) + d(2)


def test_act_simple():
    assert act_simple(0, x(3, 1)) == x(3, 3) + d(3)
    assert act_simple(0, x(3, 3)) == x(3, 1) - d(3)
    for i in range(3):
        assert act_simple(i, d(3)) == d(3)
    assert act_simple(1, x(2, 1) * x(2, 2)) == x(2, 1) * x(2, 2)
    rng = random.Random(1)
    for n in (2, 3, 4):
        for i in range(n):
            f = random_element(rng, n)
            assert act_simple(i, act_simple(i, f)) == f


def test_act_tau():
    assert act_tau(x(3, 3)) == x(3, 1) - d(3)
    # tau(alpha_{n-1}) = alpha_0, expanded symbolically
    for n in (2, 3, 4):
        assert act_tau(simple_root(n, n - 1)) == simple_root(n, 0)
        for i in range(n - 1):
            assert act_tau(simple_root(n, i)) == simple_root(n, i + 1)
    f = x(3, 1)
    for _ in range(3):
        f = act_tau(f)
    assert f == x(3, 1) - d(3)
    rng = random.Random(2)
    g = random_element(rng, 3)
    assert act_tau_inverse(act_tau(g)) == g


def test_act_sigma():
    assert act_sigma(x(2, 1)) == -x(2, 2)
    assert act_sigma(d(2)) == d(2)
    f = x(2, 1) + 3 * x(2, 2)
    assert act_sigma(act_sigma(f)) == f
    # sigma tau sigma = tau^{-1} as operators
    rng = random.Random(3)
    for n in (2, 3, 4):
        g = random_element(rng, n)
        assert act_sigma(act_tau(act_sigma(g))) == act_tau_inverse(g)


def test_demazure():
    assert demazure(1, x(3, 1)) == RingElement.one(3)
    assert demazure(0, x(3, 3)) == RingElement.one(3)
    assert demazure(1, d(3)).is_zero()
    for n in (2, 3):
        for i in range(n):
            assert demazure(i, simple_root(n, i)) == RingElement.constant(n, 2)


def test_twisted_leibniz():
    rng = random.Random(4)
    for n in (2, 3):
        for i in range(n):
            f, g = random_element(rng, n), random_element(rng, n)
            lhs = demazure(i, f * g)
            rhs = demazure(i, f) * g + act_simple(i, f) * demazure(i, g)
            assert lhs == rhs


def test_operator_braid_relations():
    rng = random.Random(5)
    for n in (3, 4):
        f = random_element(rng, n)
        for i in range(n):
            j = (i + 1) % n
            lhs = act_simple(i, act_simple(j, act_simple(i, f)))
            rhs = act_simple(j, act_simple(i, act_simple(j, f)))
            assert lhs == rhs
        if n == 4:
            assert act_simple(0, act_simple(2, f)) == act_simple(2, act_simple(0, f))
        # tau s_i tau^{-1} = s_{i+1}
        for i in range(n):
            assert act_tau(act_simple(i, act_tau_inverse(f))) == act_simple(
                (i + 1) % n, f
            )


def test_barbell_forcing():
    for n in (3, 4, 5):
        for i in range(n):
            j = (i + 1) % n
            assert act_simple(i, simple_root(n, j)) == simple_root(n, i) + simple_root(n, j)
            assert demazure(i, simple_root(n, j)) == RingElement.constant(n, -1)
        if n >= 4:
            assert act_simple(0, simple_root(n, 2)) == simple_root(n, 2)
            assert demazure(0, simple_root(n, 2)).is_zero()


def test_delta_quotient_and_division():
    f = (x(2, 1) + d(2)) * (x(2, 2) - d(2))
    assert f.subs_delta_zero() == x(2, 1) * x(2, 2)
    g = d(3) * (x(3, 1) + x(3, 2))
    assert divide_by_delta(g) == x(3, 1) + x(3, 2)
    with pytest.raises(ArithmeticError):
        divide_by_delta(x(3, 1))
    q = exact_div(x(2, 1) * x(2, 1) - x(2, 2) * x(2, 2), x(2, 1) - x(2, 2))
    assert q == x(2, 1) + x(2, 2)
    with pytest.raises(ArithmeticError):
        exact_div(x(2, 1), x(2, 2))


def test_serialization_round_trip():
    rng = random.Random(6)
    for n in (2, 3):
        for _ in range(25):
            f = random_element(rng, n)
            assert parse_ring_element(n, str(f)) == f
    assert str(x(2, 1) * x(2, 1) * x(2, 2) - 3 * d(2)) == "x1^2*x2 - 3*d"


def test_laurent():
    v = LaurentPoly.v(1)
    vin = LaurentPoly.v(-1)
    assert v * vin == LaurentPoly.one()
    assert (v + vin).bar() == v + vin
    assert gauss(2) == v + vin
    assert gauss(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    p = LaurentPoly({3: 2, -1: 5})
    assert p.bar().bar() == p
    assert str(gauss(2)) == "v + v^-1"


def test_laurent_drops_cancelled_coefficients():
    one, v = LaurentPoly.one(), LaurentPoly.v(1)
    assert ((one + v) * (one - v)).coeffs == {0: 1, 2: -1}
    assert (gauss(2) - gauss(2)).coeffs == {}
    assert (v + (-v)).coeffs == {}
    assert (gauss(3) * 0).coeffs == {}
    assert (LaurentPoly.v(2, 3) * gauss(2)).coeffs == {3: 3, 1: 3}


def convolution(p, q):
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_laurent_product_matches_convolution():
    rng = random.Random(17)
    monomials = [LaurentPoly.v(e, c) for e in (-3, -1, 0, 2) for c in (-2, -1, 1, 3)]
    others = [LaurentPoly(), LaurentPoly.one(), gauss(2), gauss(3)]
    for _ in range(40):
        support = rng.sample(range(-4, 5), rng.randint(2, 5))
        others.append(LaurentPoly({e: rng.choice((-3, -1, 1, 2)) for e in support}))
    for p in monomials + others:
        for q in monomials + others:
            assert (p * q).coeffs == convolution(p, q), (p, q)
            assert (q * p).coeffs == convolution(p, q), (q, p)
        for k in (-2, -1, 0, 1, 5):
            assert (p * k).coeffs == (k * p).coeffs == convolution(p, LaurentPoly.v(0, k))


def test_laurent_text():
    cases = {
        "0": LaurentPoly(),
        "1": LaurentPoly.one(),
        "-1": LaurentPoly.v(0, -1),
        "v": LaurentPoly.v(1),
        "-v^-2": LaurentPoly.v(-2, -1),
        "3*v": LaurentPoly.v(1, 3),
        "2*v^3 - v + 5": LaurentPoly({3: 2, 1: -1, 0: 5}),
        "v^2 + 1 + v^-2": gauss(3),
    }
    for text, p in cases.items():
        assert str(p) == repr(p) == text


def test_laurent_refuses_non_integral_terms():
    for coeffs in ({0: Fraction(1, 2)}, {0: 2.7}, {1.5: 1}, {Fraction(1, 2): 3}):
        with pytest.raises(ValueError, match="non-integral term"):
            LaurentPoly(coeffs)
    two = LaurentPoly({0: Fraction(4, 2), Fraction(2, 1): 1})
    assert two.coeffs == {0: 2, 2: 1}
    assert all(type(e) is int and type(c) is int for e, c in two.coeffs.items())


def test_ring_coefficients_are_int_when_integral():
    mono = (1, 0, 0)
    two = RingElement(2, {mono: Fraction(4, 2)})
    assert type(two.terms[mono]) is int and two.terms[mono] == 2
    half = RingElement(2, {mono: Fraction(1, 2)})
    assert half.terms[mono] == Fraction(1, 2)
    assert type((half + half).terms[mono]) is int
    assert type((half * 2).terms[mono]) is int
    assert type((half * half * 4).terms[(2, 0, 0)]) is int
    assert type(RingElement.constant(2, Fraction(6, 3)).constant_coefficient()) is int


def test_int_and_fraction_coefficients_agree():
    rng = random.Random(8)
    for n in (2, 3):
        for _ in range(20):
            f = random_element(rng, n)
            as_fractions = {m: Fraction(c) for m, c in f.terms.items()}
            g = RingElement(n, as_fractions)
            assert g == f and hash(g) == hash(f)


def test_ring_drops_cancelled_coefficients():
    x1, x2 = x(2, 1), x(2, 2)
    assert ((x1 + x2) - x2).terms == {(1, 0, 0): 1}
    assert ((x1 - x2) * (x1 + x2)).terms == {(2, 0, 0): 1, (0, 2, 0): -1}
    assert (x1 + (-x1)).terms == {}
    assert (x1 * 0).terms == {}
    assert (x1 * Fraction(0)).terms == {}
    half = RingElement(2, {(1, 0, 0): Fraction(1, 2)})
    assert (half - x1 + half).terms == {}
    assert parse_ring_element(2, "x1 + x1 - 2*x1").terms == {}
    assert parse_ring_element(2, "1/2*x2 + 1/2*x2") == x2
    rng = random.Random(9)
    for n in (2, 3):
        for _ in range(20):
            f, g = random_element(rng, n), random_element(rng, n)
            for value in (f + g, f - g, f * g, f * g - g * f, f - f):
                assert all(value.terms.values())


def test_exact_div_stays_integral():
    rng = random.Random(10)
    for n in (2, 3, 4):
        for i in range(n):
            alpha = simple_root(n, i)
            for _ in range(10):
                f = random_element(rng, n)
                q = exact_div(f * alpha, alpha)
                assert q == f
                assert all(type(c) is int for c in q.terms.values())
                assert all(type(c) is int for c in demazure(i, f).terms.values())
    x1 = x(2, 1)
    q = exact_div(x1, 2 * x1)
    assert q == RingElement.constant(2, Fraction(1, 2))
    assert q.constant_coefficient() == Fraction(1, 2)
    assert exact_div(x1 * x1 + x1 * d(2), 2 * x1) * 2 == x1 + d(2)
    with pytest.raises(ArithmeticError):
        exact_div(x1 * x1 + RingElement.one(2), x1)
    with pytest.raises(ArithmeticError):
        exact_div(x1 + x(2, 2), 2 * x1)


def test_act_simple_is_a_ring_homomorphism():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for i in range(n):
            for _ in range(5):
                f, g = random_element(rng, n), random_element(rng, n)
                assert act_simple(i, f * g) == act_simple(i, f) * act_simple(i, g)
                assert act_simple(i, f + g) == act_simple(i, f) + act_simple(i, g)
