import random
import re
from fractions import Fraction
from operator import add, sub

import pytest

from affhecke.polymat import Matrix, mat_divide_delta
from affhecke.rings import (
    EXPONENT_LIMIT,
    LaurentPoly,
    RingElement,
    act_simple,
    delta_zero_terms,
    demazure,
    exact_div,
    gauss,
    parse_ring_element,
    simple_root,
)
from bimodule_bases import act_sigma, exponents


def x(n, i):
    return RingElement.x(n, i)


def d(n):
    return RingElement.delta(n)


def divided_by_d(f):
    """f / d by polymat's packed-row kernel, on the one-cell matrix of f."""
    quotient = mat_divide_delta(Matrix(f.n, 1, ({0: f},)))
    return quotient.cells()[0].get(0, RingElement.zero(f.n))


def apply_variable_map(f, images):
    """The ring homomorphism that sends (x_1..x_n, d) to images."""
    n = f.n
    out = RingElement.zero(n)
    for mono, c in exponents(f).items():
        term = RingElement.constant(n, c)
        for image, e in zip(images, mono):
            for _ in range(e):
                term = term * image
        out = out + term
    return out


def act_tau(f):
    """tau(x_i) = x_{i+1} for i < n, tau(x_n) = x_1 - d, tau(d) = d."""
    n = f.n
    images = [x(n, j + 1) for j in range(1, n)] + [x(n, 1) - d(n), d(n)]
    return apply_variable_map(f, images)


def act_tau_inverse(f):
    n = f.n
    images = [x(n, n) + d(n)] + [x(n, j - 1) for j in range(2, n + 1)] + [d(n)]
    return apply_variable_map(f, images)


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


def act_s0(f):
    """s_0(x_1) = x_n + d, s_0(x_n) = x_1 - d; s_0 fixes d and the other x_i."""
    n = f.n
    images = [x(n, j) for j in range(1, n + 1)] + [d(n)]
    images[0], images[n - 1] = x(n, n) + d(n), x(n, 1) - d(n)
    return apply_variable_map(f, images)


@pytest.mark.parametrize("n", range(2, 6))
def test_s0_matches_variable_map(n):
    rng = random.Random(70 + n)
    for _ in range(20):
        f = random_element(rng, n, terms=5, deg=5) * Fraction(1, rng.randint(1, 3))
        assert act_simple(0, f) == act_s0(f)
    # the largest d exponent of s_0(x_1^a x_n^b d^e) is e + a + b: it may
    # reach EXPONENT_LIMIT - 1, and one more is refused
    for a, b in ((1, 1), (0, 2), (3, 0)):
        top = (a,) + (0,) * (n - 2) + (b, EXPONENT_LIMIT - 1 - a - b)
        f = RingElement(n, {top: 1})
        assert act_simple(0, f) == act_s0(f)
        with pytest.raises(OverflowError):
            act_simple(0, RingElement(n, {top[:n] + (top[n] + 1,): 1}))


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
    assert delta_zero_terms(f.terms) == (x(2, 1) * x(2, 2)).terms
    g = d(3) * (x(3, 1) + x(3, 2))
    assert divided_by_d(g) == x(3, 1) + x(3, 2)
    with pytest.raises(ArithmeticError, match=r"^cell \(0, 0\) has a term without d$"):
        divided_by_d(x(3, 1))
    with pytest.raises(ArithmeticError, match=r"^cell \(0, 0\) has a term without d$"):
        divided_by_d(d(3) + x(3, 1))
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


def test_plus_product_matches_sum_of_product():
    rng = random.Random(29)
    polys = [LaurentPoly(), LaurentPoly.one(), gauss(2), LaurentPoly.v(-1), LaurentPoly.v(1, -2)]
    for _ in range(40):
        support = rng.sample(range(-4, 5), rng.randint(1, 5))
        polys.append(LaurentPoly({e: rng.choice((-3, -1, 1, 2)) for e in support}))
    two_terms = [gauss(2), LaurentPoly({1: 1, -1: -1}), LaurentPoly({0: 2, 3: -1})]
    for q in polys:
        for p in polys:
            for m in polys[:5] + two_terms:
                got = q.plus_product(p, m)
                assert got.coeffs == (q + p * m).coeffs, (q, p, m)
                assert all(got.coeffs.values())
    # full cancellation, by a monomial and by a two-term multiplier
    p = LaurentPoly({2: 3, -1: -1})
    assert (-(p * LaurentPoly.v(-1))).plus_product(p, LaurentPoly.v(-1)).coeffs == {}
    assert (-(p * gauss(2))).plus_product(p, gauss(2)).coeffs == {}
    # a term that cancels and is then written again by a later product
    q = LaurentPoly({1: -1})
    assert q.plus_product(LaurentPoly({0: 1, 2: 1}), gauss(2)).coeffs == {3: 1, 1: 1, -1: 1}


def test_laurent_text_ignores_insertion_order():
    rng = random.Random(31)
    for _ in range(30):
        support = rng.sample(range(-5, 6), rng.randint(1, 6))
        terms = [(e, rng.choice((-3, -1, 1, 2))) for e in support]
        text = str(LaurentPoly(dict(terms)))
        for _ in range(4):
            rng.shuffle(terms)
            assert str(LaurentPoly(dict(terms))) == text
    assert str(LaurentPoly({-1: 1, 0: 5, 1: -1})) == "-v + 5 + v^-1"


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
    assert type(exponents(two)[mono]) is int and exponents(two)[mono] == 2
    half = RingElement(2, {mono: Fraction(1, 2)})
    assert exponents(half)[mono] == Fraction(1, 2)
    assert type(exponents(half + half)[mono]) is int
    assert type(exponents(half * 2)[mono]) is int
    assert type(exponents(half * half * 4)[(2, 0, 0)]) is int
    assert type(RingElement.constant(2, Fraction(6, 3)).constant_coefficient()) is int


def test_int_and_fraction_coefficients_agree():
    rng = random.Random(8)
    for n in (2, 3):
        for _ in range(20):
            f = random_element(rng, n)
            as_fractions = {m: Fraction(c) for m, c in exponents(f).items()}
            g = RingElement(n, as_fractions)
            assert g == f and hash(g) == hash(f)


def test_ring_drops_cancelled_coefficients():
    x1, x2 = x(2, 1), x(2, 2)
    assert exponents((x1 + x2) - x2) == {(1, 0, 0): 1}
    assert exponents((x1 - x2) * (x1 + x2)) == {(2, 0, 0): 1, (0, 2, 0): -1}
    assert exponents(x1 + (-x1)) == {}
    assert exponents(x1 * 0) == {}
    assert exponents(x1 * Fraction(0)) == {}
    half = RingElement(2, {(1, 0, 0): Fraction(1, 2)})
    assert exponents(half - x1 + half) == {}
    assert exponents(parse_ring_element(2, "x1 + x1 - 2*x1")) == {}
    assert parse_ring_element(2, "1/2*x2 + 1/2*x2") == x2
    rng = random.Random(9)
    for n in (2, 3):
        for _ in range(20):
            f, g = random_element(rng, n), random_element(rng, n)
            for value in (f + g, f - g, f * g, f * g - g * f, f - f):
                assert all(value.terms.values())


def other_n_pairs():
    # packed monomials of different widths once added as integers:
    # x1 over n = 2 times x1 over n = 3 read as x1
    return (
        (x(2, 1), x(3, 1)),
        (RingElement.zero(2), x(3, 1)),
        (x(2, 1), RingElement.zero(3)),
        (RingElement.one(0), RingElement.one(1)),
    )


def test_ring_product_refuses_another_n():
    for f, g in other_n_pairs():
        with pytest.raises(ValueError, match=rf"^cannot multiply elements over n={f.n} and n={g.n}$"):
            f * g
    assert x(2, 1) * 3 == 3 * x(2, 1) == RingElement(2, {(1, 0, 0): 3})


def test_ring_sum_refuses_another_n():
    for f, g in other_n_pairs():
        with pytest.raises(ValueError, match=rf"^cannot add elements over n={f.n} and n={g.n}$"):
            f + g


def test_ring_difference_refuses_another_n():
    for f, g in other_n_pairs():
        with pytest.raises(ValueError, match=rf"^cannot subtract elements over n={f.n} and n={g.n}$"):
            f - g


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


def test_exact_div_refusal_names_the_lead():
    # the remainder of d^9200 / (d^2 + 3d) is (-3)^9199 d, whose coefficient
    # has more digits than str() converts: the refusal names only the lead
    f = RingElement(0, {(9200,): 1})
    with pytest.raises(ArithmeticError, match=re.escape("leading monomial (1,)")):
        exact_div(f, RingElement(0, {(2,): 1, (1,): 3}))


def test_act_simple_is_a_ring_homomorphism():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for i in range(n):
            for _ in range(5):
                f, g = random_element(rng, n), random_element(rng, n)
                assert act_simple(i, f * g) == act_simple(i, f) * act_simple(i, g)
                assert act_simple(i, f + g) == act_simple(i, f) + act_simple(i, g)


# The tuple kernel that packed monomials replaced, kept as their oracle: terms
# are {exponent tuple (x_1, ..., x_n, d): coefficient} dicts.


def tuple_sum(f, g, sign=1):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def tuple_product(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def tuple_exact_div(f, g):
    """Long division in the lex order of exponent tuples; None when a lead
    of the remainder is not divisible by the lead of g."""
    g_lead = max(g)
    quo, rem = {}, dict(f)
    while rem:
        lead = max(rem)
        q = tuple(map(sub, lead, g_lead))
        if min(q) < 0:
            return None
        quo[q] = Fraction(rem[lead]) / g[g_lead]
        rem = tuple_sum(rem, tuple_product({q: quo[q]}, g), -1)
    return quo


def tuple_unit(n, index):
    return tuple(int(k == index) for k in range(n + 1))


def tuple_act_simple(n, i, f):
    if i:
        out = {}
        for m, c in f.items():
            m = list(m)
            m[i - 1], m[i] = m[i], m[i - 1]
            out[tuple(m)] = c
        return out
    images = [{tuple_unit(n, k): 1} for k in range(n + 1)]
    images[0] = {tuple_unit(n, n - 1): 1, tuple_unit(n, n): 1}  # x_n + d
    images[n - 1] = {tuple_unit(n, 0): 1, tuple_unit(n, n): -1}  # x_1 - d
    out = {}
    for m, c in f.items():
        term = {(0,) * (n + 1): c}
        for k, e in enumerate(m):
            for _ in range(e):
                term = tuple_product(term, images[k])
        out = tuple_sum(out, term)
    return out


def tuple_simple_root(n, i):
    if i:
        return {tuple_unit(n, i - 1): 1, tuple_unit(n, i): -1}
    return {tuple_unit(n, n - 1): 1, tuple_unit(n, 0): -1, tuple_unit(n, n): 1}


def tuple_demazure(n, i, f):
    num = tuple_sum(f, tuple_act_simple(n, i, f), -1)
    return tuple_exact_div(num, tuple_simple_root(n, i)) if num else {}


def tuple_text(n, f):
    """The text of RingElement.__str__, formatted from exponent tuples."""
    if not f:
        return "0"
    names = [f"x{i}" for i in range(1, n + 1)] + ["d"]
    parts = []
    for m in sorted(f, reverse=True):
        facs = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e]
        coeff = abs(f[m])
        body = "*".join(([] if coeff == 1 and facs else [str(coeff)]) + facs)
        parts.append(("-" if f[m] < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {term}" for sign, term in parts[1:])


def random_terms(rng, n, top, terms=4):
    """Seeded terms whose exponents are each small or just below top."""
    out = {}
    for _ in range(terms):
        mono = tuple(
            rng.choice((rng.randrange(min(6, top)), rng.randrange(max(top - 3, 0), top)))
            for _ in range(n + 1)
        )
        out[mono] = out.get(mono, 0) + rng.choice((-3, -1, 1, 2, Fraction(1, 2)))
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("n", range(6))
def test_packed_kernel_matches_tuple_oracle(n):
    rng = random.Random(40 + n)
    for _ in range(25):
        # factors below half the limit, so that every product fits
        f_t = random_terms(rng, n, EXPONENT_LIMIT // 2)
        g_t = random_terms(rng, n, EXPONENT_LIMIT // 2)
        f, g = RingElement(n, f_t), RingElement(n, g_t)
        assert exponents(f) == f_t and exponents(g) == g_t
        fg = f * g
        assert exponents(fg) == tuple_product(f_t, g_t)
        if g_t:
            assert exact_div(fg, g) == f
        # a divisor that need not divide: the oracle and exact_div refuse
        # alike.  Small exponents, since a long division runs until the lead
        # of the remainder is not divisible
        p_t, q_t = random_terms(rng, n, 6), random_terms(rng, n, 6, rng.randint(1, 3))
        if rng.random() < 0.5:
            p_t = tuple_product(p_t, q_t)
        if q_t:
            expected = tuple_exact_div(p_t, q_t)
            if expected is None:
                with pytest.raises(ArithmeticError, match="non-divisible"):
                    exact_div(RingElement(n, p_t), RingElement(n, q_t))
            else:
                assert exponents(exact_div(RingElement(n, p_t), RingElement(n, q_t))) == expected
        # single operands reach the limit
        h_t = random_terms(rng, n, EXPONENT_LIMIT)
        h = RingElement(n, h_t)
        assert str(h) == tuple_text(n, h_t)
        assert parse_ring_element(n, str(h)) == h
        assert exponents(parse_ring_element(n, str(h))) == h_t
        h0 = RingElement(n, {m: c for m, c in h_t.items() if not m[n]})
        assert delta_zero_terms(h.terms) == h0.terms
        if all(m[n] for m in h_t):
            assert exponents(divided_by_d(h)) == {
                m[:n] + (m[n] - 1,): c for m, c in h_t.items()
            }
        else:
            with pytest.raises(ArithmeticError):
                divided_by_d(h)
        for i in range(1, n):
            assert exponents(act_simple(i, h)) == tuple_act_simple(n, i, h_t)
        # s_0 expands binomials and a Demazure quotient has one term per
        # power, so those take small exponents
        if n >= 2:
            s_t = random_terms(rng, n, 5)
            s = RingElement(n, s_t)
            for i in range(n):
                assert exponents(act_simple(i, s)) == tuple_act_simple(n, i, s_t)
                assert exponents(demazure(i, s)) == tuple_demazure(n, i, s_t)
    for i in range(1, n):
        for j in range(1, n + 1):
            # x_i / x_j is refused unless i = j, by the oracle as well
            expected = tuple_exact_div({tuple_unit(n, i - 1): 1}, {tuple_unit(n, j - 1): 1})
            if i == j:
                assert exponents(exact_div(x(n, i), x(n, j))) == expected
            else:
                assert expected is None
                with pytest.raises(ArithmeticError, match="non-divisible"):
                    exact_div(x(n, i), x(n, j))


def test_exponent_range_is_checked_never_wrapped():
    limit = EXPONENT_LIMIT
    for mono, e in (((limit, 0, 0), limit), ((0, 0, limit), limit), ((0, -1, 0), -1)):
        with pytest.raises(ValueError, match=re.escape(
            f"exponent {e} of monomial {mono} is outside 0..{limit - 1}"
        )):
            RingElement(2, {mono: 1})
    for mono in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match=re.escape(
            f"monomial {mono} has {len(mono)} exponents, not n + 1 = 3"
        )):
            RingElement(2, {mono: 1})
    top = RingElement(2, {(limit - 1, 0, limit - 1): 1})
    assert exponents(top) == {(limit - 1, 0, limit - 1): 1}
    for k in range(3):
        half = RingElement(2, {tuple(limit // 2 if j == k else 0 for j in range(3)): 1})
        with pytest.raises(OverflowError):
            half * half
        below = RingElement(2, {tuple(limit // 2 - 1 if j == k else 0 for j in range(3)): 1})
        assert exponents(below * below) == {
            tuple(limit - 2 if j == k else 0 for j in range(3)): 1
        }
    with pytest.raises(ValueError, match=f"exponent {limit} of monomial"):
        parse_ring_element(2, f"x1^{limit}")
    with pytest.raises(ValueError, match=f"exponent {limit} of monomial"):
        parse_ring_element(2, f"d^{limit // 2}*d^{limit // 2}")
    # dividing by x1 + d^(L-1) leaves remainder terms with d^L or more: the
    # division is refused as an overflow, not continued on a wrapped lead
    divisor = RingElement(1, {(1, 0): 1, (0, limit - 1): 1})
    for mono in ((limit - 1, 0), (2, 1)):
        with pytest.raises(OverflowError):
            exact_div(RingElement(1, {mono: 1}), divisor)
