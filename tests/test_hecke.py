import itertools
import random

import pytest

from affhecke import hecke
from affhecke.braid import jm_braid, y_braid
from affhecke.hecke import (
    HeckeElement,
    b_simple,
    braid_hecke_image,
    c_element,
    c_godown_rhs,
    center_character,
    flatten_hecke,
    godown_applicable,
    is_central,
    is_tau_suffix,
    kl_basis,
)
from affhecke.rings import LaurentPoly, gauss
from affhecke.suites import proper_subsets
from affhecke.weyl import (
    ExtendedWeylElement,
    anticyclic_word,
    from_word,
    h_of,
    longest_element,
    tau_components,
)


def reference_text(a):
    """serialize() made afresh from coeffs: lines sorted by (length,
    window, omega), each "(omega, window) : coefficient"."""
    terms = sorted(a.coeffs.items(), key=lambda t: (t[0].length(), t[0].window, t[0].omega))
    return "\n".join(f"({w.omega}, {' '.join(map(str, w.window))}) : {p}" for w, p in terms)


def H(n, *word):
    return HeckeElement.std(from_word(n, list(word)))


def test_quadratic_relation():
    n = 2
    hs = H(n, 1)
    sq = hs * hs
    expected = HeckeElement.unit(n) + hs.scale(LaurentPoly({-1: 1, 1: -1}))
    assert sq == expected


def test_b_simple_square():
    bs = b_simple(3, 0)
    assert bs * bs == bs.scale(gauss(2))


def test_unit():
    a = H(3, 0, 1) + H(3, 2).scale(LaurentPoly.v(3))
    assert HeckeElement.unit(3) * a == a
    assert a * HeckeElement.unit(3) == a


def test_bar():
    n = 2
    hs = H(n, 1)
    assert hs.bar() == hs + HeckeElement.unit(n).scale(LaurentPoly({1: 1, -1: -1}))
    assert b_simple(n, 0).bar() == b_simple(n, 0)
    ve = HeckeElement.unit(n).scale(LaurentPoly.v(1))
    assert ve.bar() == HeckeElement.unit(n).scale(LaurentPoly.v(-1))


def test_bar_involution_on_products():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(10):
            a = HeckeElement.unit(n)
            for _ in range(rng.randint(1, 5)):
                choice = rng.randrange(n + 1)
                if choice == n:
                    a = a.times_omega(rng.choice([1, -1]))
                else:
                    a = a * b_simple(n, choice)
            assert a.bar().bar() == a
    # bar is an algebra map on random pairs
    for n in (2, 3):
        for _ in range(5):
            a = b_simple(n, rng.randrange(n)) * b_simple(n, rng.randrange(n))
            b = b_simple(n, rng.randrange(n)).times_omega(1)
            assert (a * b).bar() == a.bar() * b.bar()


def test_kl_basis():
    assert kl_basis(ExtendedWeylElement.identity(3)) == HeckeElement.unit(3)
    # coefficients below the top lie in vZ[v]
    for word in ([0, 1], [0, 1, 0], [0, 2], [1, 0, 2, 1]):
        w = from_word(4, word)
        b = kl_basis(w)
        for y, p in b.coeffs.items():
            if y != w:
                assert in_positive_v(p)
        assert b.bar() == b
    with pytest.raises(ValueError):
        kl_basis(longest_element(6, {0, 1, 2, 3, 4}), length_cap=14)


def test_kl_omega():
    w = ExtendedWeylElement.rotation(3, 2) * from_word(3, [1])
    b = kl_basis(w)
    assert b == HeckeElement.std(ExtendedWeylElement.rotation(3, 2)) * b_simple(3, 1)


def in_positive_v(p):
    """True when the support of a Laurent polynomial lies in v Z[v]."""
    return all(e > 0 for e in p.coeffs)


def symmetric_part(p):
    """The unique bar-invariant q with q = p mod vZ[v]."""
    out = {0: p.coeffs.get(0, 0)}
    for e, c in p.coeffs.items():
        if e < 0:
            out[e] = out.get(e, 0) + c
            out[-e] = out.get(-e, 0) + c
    return LaurentPoly(out)


def reference_kl_basis(w, cache):
    """b_w by a correction loop: b_{ws} b_s through the general
    product, then subtract bar-invariant multiples of lower b_y, longest
    offending y first, until every lower coefficient lies in vZ[v]."""
    n = w.n
    if w.omega:
        base = reference_kl_basis(ExtendedWeylElement(0, w.window), cache)
        return HeckeElement.std(ExtendedWeylElement.rotation(n, w.omega)) * base
    got = cache.get(w)
    if got is not None:
        return got
    if w.is_identity():
        got = HeckeElement.unit(n)
    else:
        k = next(k for k in range(n) if w.has_right_descent(k))
        got = reference_kl_basis(w.times_simple(k), cache) * b_simple(n, k)
        while True:
            bad = [(y, p) for y, p in got.coeffs.items() if y != w and not in_positive_v(p)]
            if not bad:
                break
            y, p = max(bad, key=lambda item: item[0].length())
            got = got - reference_kl_basis(y, cache).scale(symmetric_part(p))
    cache[w] = got
    return got


@pytest.mark.parametrize("n, max_length", ((3, 9), (4, 7), (5, 5)))
def test_kl_basis_matches_correction_loop(n, max_length):
    cache = {}
    level = {ExtendedWeylElement.identity(n)}
    for _ in range(max_length + 1):
        for w in level:
            for e in (-1, 0, 1):
                x = ExtendedWeylElement.rotation(n, e) * w
                expected = reference_kl_basis(x, cache)
                assert kl_basis(x).serialize() == expected.serialize()
        level = {w.times_simple(k) for w in level for k in range(n) if not w.has_right_descent(k)}


def test_c_element_base_and_errors():
    n = 3
    I = frozenset({0})
    bw = kl_basis(longest_element(n, I))
    bh = kl_basis(h_of(n, {1, 2}))
    assert c_element(n, I, {1, 2}, ()) == bw * bh
    with pytest.raises(ValueError):
        c_element(n, I, {0, 1}, {0})  # {0} is not a tau-suffix for I={0}


def tau_suffixes(n, I, X, comps):
    per = []
    for comp in comps:
        opts = [frozenset()]
        for m in range(1, len(comp) + 1):
            tail = comp[-m:]
            if all(t in X for t in tail):
                opts.append(frozenset(tail))
        per.append(opts)
    return {frozenset().union(*combo) for combo in itertools.product(*per)}


@pytest.mark.parametrize("n", (2, 3, 4))
def test_c_element_consistency(n):
    cap = 20
    for I in proper_subsets(n):
        comps = tau_components(n, I)
        memo = {}
        memo_last = {}
        for X in proper_subsets(n):
            for Y in tau_suffixes(n, I, X, comps):
                c = c_element(n, I, X, Y, cap, memo)
                assert c == c_element(n, I, X, Y, cap, memo_last, order="last")
                for j in sorted(X - Y):
                    if godown_applicable(n, I, X, Y, j, comps):
                        assert j in I
                        assert c == c_godown_rhs(n, I, X, Y, j, cap, memo)
            if is_tau_suffix(n, I, X, comps):
                cxx = c_element(n, I, X, X, cap, memo)
                assert cxx == kl_basis(longest_element(n, I) * h_of(n, X), cap)
                assert cxx.bar() == cxx


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_c_element_base_is_product_of_kl_elements(n):
    for I in proper_subsets(n):
        bw = kl_basis(longest_element(n, I))
        memo = {}
        for X in proper_subsets(n):
            assert c_element(n, I, X, (), _memo=memo) == bw * kl_basis(h_of(n, X))


def test_c_element_memo_serves_every_n_and_I():
    memo = {}
    c_element(3, {0}, {1}, (), _memo=memo)
    c_element(4, {1}, {1}, (), _memo=memo)
    assert c_element(3, {1}, {1}, (), _memo=memo) == c_element(3, {1}, {1}, ())
    assert c_element(4, {0}, {1}, (), _memo=memo) == c_element(4, {0}, {1}, ())
    assert c_element(3, {0}, {1}, (), _memo=memo) != c_element(3, {1}, {1}, ())


def test_c_element_checks_the_cap_before_the_prefix_memo():
    n, I = 4, frozenset({0, 1, 2})
    c_element(n, I, {0}, ())  # the memo now holds b_{w_I} b_{s_0}
    with pytest.raises(ValueError, match="length 6 exceeds cap 5"):
        c_element(n, I, {0}, (), length_cap=5)
    c_element(n, {0}, {0, 1, 2}, ())
    with pytest.raises(ValueError, match="length 3 exceeds cap 2"):
        c_element(n, {0}, {0, 1, 2}, (), length_cap=2)


def test_c_element_steps_each_prefix_once(monkeypatch):
    # criterion 5's sweep at n = 4: two memos and godown; each b_{w_I}
    # b_{s_1} ... b_{s_j} is stepped once, whichever X, memo or order asks
    n = 4
    subsets = list(proper_subsets(n))
    for I in subsets:
        kl_basis(longest_element(n, I))  # the KL memo steps too; warm it
    hecke._stepped_by_b.cache_clear()
    steps = []
    step = HeckeElement.times_b_simple

    def counted(self, k):
        steps.append(k)
        return step(self, k)

    monkeypatch.setattr(HeckeElement, "times_b_simple", counted)
    prefixes = set()
    for I in subsets:
        w = longest_element(n, I)
        comps = tau_components(n, I)
        memo, memo_last = {}, {}
        for X in subsets:
            word = anticyclic_word(n, X, min(set(range(n)) - X))
            prefixes.update((w, word[:j]) for j in range(1, len(word) + 1))
            for Y in tau_suffixes(n, I, X, comps):
                c = c_element(n, I, X, Y, _memo=memo)
                assert c == c_element(n, I, X, Y, _memo=memo_last, order="last")
                for j in sorted(X - Y):
                    if godown_applicable(n, I, X, Y, j, comps):
                        assert c == c_godown_rhs(n, I, X, Y, j, _memo=memo)
    # 14 sets I, each with 15 distinct nonempty prefixes over the 14 sets X
    assert len(steps) == len(prefixes) == 14 * 15


def test_c_element_refuses_an_unknown_order():
    # a misspelt order would compare one traversal with itself
    for order in ("Last", "reversed", None):
        with pytest.raises(ValueError, match=repr(order)):
            c_element(3, {0}, {0, 1}, {1}, order=order)
    assert c_element(3, {0}, {0, 1}, {1}, order="first") == c_element(
        3, {0}, {0, 1}, {1}, order="last")


@pytest.mark.parametrize("n", (2, 3, 4))
def test_tau_suffix_and_godown_read_indices_mod_n(n):
    # I, X, Y and j given with indices outside 0..n-1 answer as their residues
    for I in proper_subsets(n):
        for X in proper_subsets(n):
            for Y in itertools.chain.from_iterable(
                itertools.combinations(sorted(X), r) for r in range(len(X) + 1)
            ):
                raw = [I, {x - n for x in X}, [y + n for y in Y]]
                answer = is_tau_suffix(n, I, frozenset(Y))
                size = hecke._is_tau_suffix.cache_info().currsize
                assert is_tau_suffix(n, sorted(I), raw[2]) == answer
                assert is_tau_suffix(n, {i + n for i in I}, list(Y)) == answer
                assert hecke._is_tau_suffix.cache_info().currsize == size
                for j in X:
                    applicable = godown_applicable(n, I, X, frozenset(Y), j)
                    assert godown_applicable(n, *raw, j + n) == applicable
                    if applicable and answer and n == 3:
                        assert c_godown_rhs(n, *raw, j + n) == c_godown_rhs(
                            n, I, X, frozenset(Y), j)
    assert not is_tau_suffix(3, {0}, {3}) and not is_tau_suffix(3, {0}, {0})
    assert is_tau_suffix(3, {3}, {4}) and is_tau_suffix(3, {0}, {1})


def test_serialize_keeps_the_text_of_every_construction():
    n = 3
    a = H(n, 0, 1).scale(LaurentPoly.v(2)) + b_simple(n, 2)
    built = {
        "__init__": a,
        "times_b_simple": a.times_b_simple(1),
        "times_simple_inverse": a.times_simple_inverse(0),
        "+": a + H(n, 2),
        "-": a - H(n, 0, 1),
        "scale": a.scale(gauss(2)),
        "bar": a.bar(),
        "kl_basis of an omega-rotated w": kl_basis(
            ExtendedWeylElement.rotation(n, 1) * from_word(n, [0, 1, 2, 0])),
        "c_element": c_element(n, {0}, {0, 1}, {1}),
    }
    for name, element in built.items():
        assert element.coeffs, name
        text = element.serialize()
        assert text == reference_text(element), name
        assert element.serialize() is text, name


def test_godown_needs_absorbed_block():
    # the unrestricted reading fails here: letters of X separate j from w_I
    n, I, X, j = 3, frozenset({0}), frozenset({0, 1}), 0
    c = c_element(n, I, X, ())
    assert not godown_applicable(n, I, X, frozenset(), j)
    assert c != c_godown_rhs(n, I, X, frozenset(), j)


def test_center_characters():
    # k = n: the image of omega^n, central
    a = center_character(2, 2)
    assert a == HeckeElement.std(ExtendedWeylElement.rotation(2, 2))
    assert is_central(a)
    assert is_central(center_character(2, 1))
    assert not is_central(braid_hecke_image(y_braid(2, 1)))


def test_flatten_hecke():
    n = 2
    assert flatten_hecke(HeckeElement.unit(n)) == HeckeElement.unit(n)
    # flat(b_0) = b_1 at n=2
    assert flatten_hecke(b_simple(2, 0)) == b_simple(2, 1)
    for n in (2, 3):
        for i in range(1, n + 1):
            lhs = flatten_hecke(braid_hecke_image(y_braid(n, i)))
            assert lhs == braid_hecke_image(jm_braid(n, i))


def test_serialization_order():
    a = b_simple(3, 1) + H(3, 0, 1)
    lines = a.serialize().splitlines()
    lengths = []
    for line in lines:
        window = tuple(int(t) for t in line.split(")")[0].split(",")[1].split())
        lengths.append(ExtendedWeylElement(0, window).length())
    assert lengths == sorted(lengths)


def _poly_add(out, exp, c):
    out[exp] = out.get(exp, 0) + c
    if not out[exp]:
        del out[exp]


def naive_mul(a, b):
    """Reference product: every H_x H_y expanded on its own, letter by letter,
    with plain dicts, the validated group product and Coxeter lengths.

    A word for the affine part of y is found by peeling right descents, so
    neither reduced_word nor the O(1) descent steps are involved.
    """
    n = a.n
    total = {}
    for y, q in b.coeffs.items():
        affine = ExtendedWeylElement(0, y.window)
        word = []
        while affine.length():
            k = next(
                k for k in range(n)
                if (affine * ExtendedWeylElement.simple(n, k)).length() < affine.length()
            )
            word.append(k)
            affine = affine * ExtendedWeylElement.simple(n, k)
        word.reverse()
        for x, p in a.coeffs.items():
            term = {x * ExtendedWeylElement.rotation(n, y.omega): dict(p.coeffs)}
            for k in word:
                nxt = {}
                for u, c in term.items():
                    us = u * ExtendedWeylElement.simple(n, k)
                    for e, cc in c.items():
                        _poly_add(nxt.setdefault(us, {}), e, cc)
                        if us.length() < u.length():
                            # H_u H_s = H_us + (v^-1 - v) H_u
                            _poly_add(nxt.setdefault(u, {}), e - 1, cc)
                            _poly_add(nxt.setdefault(u, {}), e + 1, -cc)
                term = nxt
            for u, c in term.items():
                for e, cc in c.items():
                    for e2, c2 in q.coeffs.items():
                        _poly_add(total.setdefault(u, {}), e + e2, cc * c2)
    return {u: c for u, c in total.items() if c}


def random_element(rng, n):
    out = {}
    for _ in range(rng.randint(1, 4)):
        w = ExtendedWeylElement.rotation(n, rng.choice((-1, 0, 1)))
        for _ in range(rng.randint(0, 4)):
            w = w * ExtendedWeylElement.simple(n, rng.randrange(n))
        out[w] = LaurentPoly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 3))})
    return HeckeElement(n, out)


def test_mul_matches_naive_reference():
    rng = random.Random(2024)
    for n in (2, 3, 4):
        for _ in range(25):
            a, b = random_element(rng, n), random_element(rng, n)
            got = a * b
            assert {u: p.coeffs for u, p in got.coeffs.items()} == naive_mul(a, b)
            assert all(not p.is_zero() for p in got.coeffs.values())


def test_times_simple_inverse_undoes_times_simple():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(10):
            a = random_element(rng, n)
            for k in range(n):
                assert a.times_simple(k).times_simple_inverse(k) == a
                assert a.times_simple_inverse(k).times_simple(k) == a


def test_cancellation_stores_no_zero():
    for n in (2, 3):
        bs = b_simple(n, 1)
        assert (bs * bs - bs.scale(gauss(2))).coeffs == {}
        assert (bs - bs).coeffs == {}
        assert (bs + (-bs)).coeffs == {}
    # H_s (H_s + v - v^-1) = 1 cancels the H_s term of the quadratic relation
    hs = H(2, 1)
    prod = hs * (hs + HeckeElement.unit(2).scale(LaurentPoly({1: 1, -1: -1})))
    assert prod.coeffs == HeckeElement.unit(2).coeffs


def general_product(h, b):
    """h * b through _expand, the path __mul__ takes for every right factor
    other than a b_s."""
    return b._expand(h.times_omega, HeckeElement.times_simple, lambda p: p)


def annihilated_by_b(u, k):
    """H_x - v H_{xs} with x < xs, for x in {u, us}: (H_s + v)(H_s - v^-1) = 0
    makes its product with b_s vanish."""
    if u.has_right_descent(k):
        u = u.times_simple(k)
    return HeckeElement.std(u) - HeckeElement.std(u.times_simple(k), LaurentPoly.v(1))


def test_times_b_simple_matches_product():
    rng = random.Random(23)
    for n in (2, 3, 4):
        for _ in range(20):
            a = random_element(rng, n)
            k = rng.randrange(n)
            u = next(iter(random_element(rng, n).coeffs))
            cancel = annihilated_by_b(u, k)
            assert cancel.times_b_simple(k).coeffs == {}
            # a term of a meets the cancelling pair, so sums cancel across terms
            w = rng.choice(sorted(a.coeffs, key=str))
            mixed = a + annihilated_by_b(w, k).scale(LaurentPoly({rng.randint(-2, 2): rng.choice((-1, 2))}))
            for x in (a, mixed, cancel):
                got = x.times_b_simple(k)
                assert got == general_product(x, b_simple(n, k))
                assert all(not p.is_zero() for p in got.coeffs.values())


def term_by_term_step(h, k, descent, ascent):
    """Reference for HeckeElement._step: each term p H_w added on its own,
    p to H_{ws} and then f(p) to H_w."""
    out = {}
    for w, p in h.coeffs.items():
        hecke._add_term(out, w.times_simple(k), p)
        f = descent if w.has_right_descent(k) else ascent
        if f is not None:
            hecke._add_term(out, w, f(p))
    return HeckeElement._trusted(h.n, out)


# (descent, ascent) of H_s, H_s^-1 and b_s, as in the docstrings of hecke
STEPS = {
    "times_simple": (lambda p: p * LaurentPoly({-1: 1, 1: -1}), None),
    "times_simple_inverse": (None, lambda p: p * LaurentPoly({1: 1, -1: -1})),
    "times_b_simple": (lambda p: p * LaurentPoly.v(-1), lambda p: p * LaurentPoly.v(1)),
}


def test_pairwise_step_matches_term_by_term():
    rng = random.Random(31)
    for n in (2, 3, 4):
        for k in range(n):
            for name, (descent, ascent) in STEPS.items():
                for _ in range(6):
                    a = random_element(rng, n)
                    w = rng.choice(sorted(a.coeffs, key=str))
                    if not w.omega:
                        e = rng.choice((-2, -1, 1, 2))
                        a, w = a.times_omega(e), w * ExtendedWeylElement.rotation(n, e)
                    ws = w.times_simple(k)
                    # both w and ws in the support, with independent coefficients
                    paired = a + HeckeElement.std(ws, LaurentPoly({rng.randint(-2, 2): rng.choice((-3, 1, 2))}))
                    # p H_x - f(p) H_{xs}: the output at x is f(p) - f(p) = 0
                    x = w if (descent if w.has_right_descent(k) else ascent) else ws
                    f = descent if x.has_right_descent(k) else ascent
                    p = LaurentPoly({rng.randint(-2, 2): rng.choice((-1, 2)), 3: 1})
                    cancel = HeckeElement(n, {x: p, x.times_simple(k): -f(p)})
                    assert x.omega and w in paired.coeffs and ws in paired.coeffs
                    for h in (a, paired, cancel, paired + cancel):
                        got = getattr(h, name)(k)
                        assert got == term_by_term_step(h, k, descent, ascent)
                        assert all(q.coeffs for q in got.coeffs.values())
                    assert x not in getattr(cancel, name)(k).coeffs


def test_mul_by_b_simple_is_one_step(monkeypatch):
    steps = []
    step = HeckeElement.times_b_simple
    monkeypatch.setattr(HeckeElement, "times_b_simple", lambda h, k: steps.append(k) or step(h, k))
    rng = random.Random(47)
    one, v, v_inv = LaurentPoly.one(), LaurentPoly.v(1), LaurentPoly.v(-1)
    for n in (2, 3, 4, 5):
        e = ExtendedWeylElement.identity(n)
        om = ExtendedWeylElement.rotation(n, 1)
        for k in range(n):
            s = ExtendedWeylElement.simple(n, k)
            bs = b_simple(n, k)
            look_alikes = (
                HeckeElement(n, {s: one, e: v_inv}),
                bs.scale(LaurentPoly({0: 2})),
                HeckeElement(n, {om * s: one, e: v}),
                HeckeElement(n, {s: v, e: one}),
                bs + HeckeElement.std(s.times_simple((k + 1) % n)),
            )
            for _ in range(3):
                h = random_element(rng, n)
                steps.clear()
                assert h * bs == general_product(h, bs)
                assert steps == [k]
                for b in look_alikes:
                    steps.clear()
                    assert h * b == general_product(h, b)
                    assert steps == []
            with pytest.raises(ValueError, match="mismatched n"):
                random_element(rng, n) * b_simple(n + 1, k)
