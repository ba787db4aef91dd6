import copy
import pickle
import random
from fractions import Fraction

import pytest

from affhecke import weyl
from affhecke.suites import (
    commutation_reachable,
    descent_lemma_cases,
    proper_subsets,
    rewrite_cases,
)
from affhecke.weyl import (
    ExtendedWeylElement,
    anticyclic_word,
    correspondent_Y,
    from_word,
    h_of,
    longest_element,
    longest_word,
    preferred_word,
    residues,
    rewrite_wIhX,
    tau_components,
    window_inverse,
    window_length,
    window_tau,
)


def s(n, k):
    return ExtendedWeylElement.simple(n, k)


def test_from_word_and_omega_conjugation():
    assert from_word(3, []).is_identity()
    assert from_word(2, ["w", 1, "w-"]) == s(2, 0)
    assert from_word(3, [0, 1, 0]) == from_word(3, [1, 0, 1])


def test_length():
    assert ExtendedWeylElement.identity(4).length() == 0
    assert longest_element(3, {1, 2}).length() == 3
    # translation by the longest root at n=3 is s_0 s_2 s_1 s_2
    w = from_word(3, [0, 2, 1, 2])
    assert w.length() == 4
    # brute force: translation window matches
    assert w.window == (4, 2, 0)

    # omega power contributes zero
    om = ExtendedWeylElement.rotation(5, 2)
    u = from_word(5, [0, 3])
    assert (om * u).length() == u.length()


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_longest_word_is_reduced(n):
    for I in proper_subsets(n):
        assert len(longest_word(n, I)) == longest_element(n, I).length()


def test_descents():
    assert ExtendedWeylElement.identity(3).left_descents() == frozenset()
    w = longest_element(4, {0, 1})
    assert w.right_descents() == frozenset({0, 1})
    w = longest_element(4, {0}) * h_of(4, {1, 2})
    assert w.right_descents() == frozenset({1})


def test_h_of():
    assert h_of(9, {0, 1, 3, 4, 6, 8}, 7).is_identity() is False
    assert anticyclic_word(9, frozenset({0, 1, 3, 4, 6, 8}), 7) == (6, 4, 3, 1, 0, 8)
    assert h_of(9, {0, 1, 3, 4, 6, 8}, 7) == h_of(9, {0, 1, 3, 4, 6, 8}, 2)
    assert h_of(5, ()).is_identity()
    with pytest.raises(ValueError):
        h_of(4, {1, 2}, aleph=1)


@pytest.mark.parametrize("n", range(2, 9))
def test_h_of_independent_of_aleph(n):
    for X in proper_subsets(n):
        elements = {
            h_of(n, X, aleph) for aleph in range(n) if aleph not in X
        }
        assert len(elements) == 1


def test_tau_components():
    assert tau_components(12, {1, 2, 3, 5, 9, 10}) == [
        (0,),
        (1, 2, 3, 4),
        (5, 6),
        (7,),
        (8,),
        (9, 10, 11),
    ]
    assert tau_components(4, {}) == [(0,), (1,), (2,), (3,)]
    assert tau_components(4, {0, 1}) == [(0, 1, 2), (3,)]
    # |I| = n-1: the single component carries the special order
    assert tau_components(4, {0, 1, 2}) == [(0, 1, 2, 3)]
    assert tau_components(4, {1, 2, 3}) == [(1, 2, 3, 0)]


def test_rewrite_wIhX_example():
    factors = rewrite_wIhX(12, {1, 2, 3, 5, 9, 10}, {0, 1, 3, 4, 6, 7, 8, 10, 11}, 2)
    assert factors == [
        (1, 2, 1, 3, 2, 1, 1),
        (0,),
        (9, 10, 9, 11, 10),
        (8,),
        (7,),
        (5, 6),
        (4, 3),
    ]
    with pytest.raises(ValueError):
        rewrite_wIhX(4, {0}, {1, 2}, 2)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_rewrite_properties(n):
    for name, ok in rewrite_cases(n):
        assert ok, name


def test_commutation_reachable_needs_the_same_letters():
    # why rewrite_cases has no separate letter-multiset case
    assert commutation_reachable(5, [1, 3], [3, 1])
    assert not commutation_reachable(5, [1, 3], [1, 2])
    assert not commutation_reachable(5, [1, 3], [1, 3, 3])
    assert not commutation_reachable(5, [1, 3, 1], [3, 1])
    assert not commutation_reachable(5, [], [2])


def test_rewrite_edge_cases():
    # I empty: factors are single letters of h_X
    factors = rewrite_wIhX(5, set(), {1, 3}, 0)
    letters = [k for f in factors for k in f]
    assert sorted(letters) == [1, 3]
    # X empty: factors multiply to w_I
    factors = rewrite_wIhX(5, {1, 2}, set(), 0)
    prod = ExtendedWeylElement.identity(5)
    for f in factors:
        for k in f:
            prod = prod.times_simple(k)
    assert prod == longest_element(5, {1, 2})


def test_correspondent():
    assert correspondent_Y(4, {0}, {1, 2, 3}) == frozenset({0, 2, 3})
    # verify by group arithmetic
    lhs = longest_element(4, {0}) * h_of(4, {1, 2, 3})
    rhs = h_of(4, {0, 2, 3}) * longest_element(4, {1})
    assert lhs == rhs
    # X = tau(I) gives Y = I
    for n in (3, 4):
        for I in proper_subsets(n):
            J = frozenset((i + 1) % n for i in I)
            if len(J) < n:
                assert correspondent_Y(n, I, J) == I
    with pytest.raises(ValueError):
        correspondent_Y(3, {0}, {0, 2})


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_descent_lemma(n):
    for name, ok in descent_lemma_cases(n):
        assert ok, name


def test_descent_set_lemma_disjoint_parabolics():
    # partition the simple reflections of S_m into disjoint B and C
    rng = random.Random(7)
    for m in (3, 4, 5, 6):
        n = m + 1  # finite S_m sits inside affine indices 1..m-1? use 1..m
        letters = list(range(1, m))
        for _ in range(20):
            rng.shuffle(letters)
            cut = rng.randint(0, len(letters))
            B, C = set(letters[:cut]), set(letters[cut:])

            def rand_in(members):
                w = ExtendedWeylElement.identity(n)
                for _ in range(rng.randint(0, 6)):
                    if members:
                        w = w.times_simple(rng.choice(sorted(members)))
                return w

            f, fp = rand_in(B), rand_in(B)
            g, gp = rand_in(C), rand_in(C)
            assert (f * g).length() == f.length() + g.length()
            assert (g * f).length() == f.length() + g.length()
            commuting = [
                t for t in B if all(abs(t - c) % n not in (1, n - 1) for c in C)
            ]
            for t in B:
                # (2) t not in R(f) implies t not in R(fg)
                if not f.has_right_descent(t):
                    assert not (f * g).has_right_descent(t)
                # (3) t in R(f) iff t in R(gf)
                assert f.has_right_descent(t) == (g * f).has_right_descent(t)
                # (4)
                if not f.has_right_descent(t):
                    assert not (g * f * gp).has_right_descent(t)
                # (5)
                if (f * fp).length() == f.length() + fp.length():
                    if fp.has_right_descent(t):
                        assert (f * g * fp).has_right_descent(t)
            for t in commuting:
                assert f.has_right_descent(t) == (g * f * gp).has_right_descent(t)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_sigma_of_hX(n):
    # sigma(h_X) = h_{sigma(X)}^{-1}
    def inverse(w):
        return ExtendedWeylElement(-w.omega, window_tau(window_inverse(w.window), w.omega))

    for X in proper_subsets(n):
        sX = frozenset((-x) % n for x in X)
        h = h_of(n, X)
        word = [(-k) % n for k in h.reduced_word()]
        image = from_word(n, word)
        assert image == inverse(h_of(n, sX))


def test_serialization():
    w = ExtendedWeylElement.rotation(3, 2) * s(3, 1)
    assert str(w) == repr(w) == "w^2 | 2 1 3"


def test_element_is_the_tuple_omega_window():
    w = ExtendedWeylElement.rotation(4, -1) * s(4, 0) * s(4, 2)
    assert w == (w.omega, w.window) and tuple(w) == (-1, w.window)
    assert hash(w) == hash((w.omega, w.window))
    for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(twin) is ExtendedWeylElement
        assert twin == w and hash(twin) == hash(w) and repr(twin) == repr(w)
        assert twin.length() == w.length() == 2


def test_constructor_refuses_non_integral_entries():
    for omega, window in ((1.5, (1, 2, 3)), (0, (1.5, 2, 2.5)), (Fraction(1, 2), (1, 2, 3)),
                          ("1", (1, 2, 3)), (0, ("1", 2, 3))):
        with pytest.raises(ValueError, match="non-integral"):
            ExtendedWeylElement(omega, window)
    w = ExtendedWeylElement(2.0, (Fraction(1, 1), 2.0, 3))
    assert w == ExtendedWeylElement.rotation(3, 2)
    assert type(w.omega) is int and all(type(v) is int for v in w.window)
    assert str(ExtendedWeylElement(0, (1.0, 2.0, 3.0))) == "w^0 | 1 2 3"
    with pytest.raises(ValueError, match="not distinct"):
        ExtendedWeylElement(0, (1, 4, 1))
    with pytest.raises(ValueError, match="winding"):
        ExtendedWeylElement(0, (2, 3, 4))


def short_elements(n, max_length=4):
    """omega^e w for e in {-1, 0, 1} and every affine w of length <= max_length,
    generated with the validated product and window_length only."""
    level = {ExtendedWeylElement.identity(n)}
    found = set(level)
    for _ in range(max_length):
        level = {
            w * s(n, k)
            for w in level
            for k in range(n)
            if window_length((w * s(n, k)).window) == window_length(w.window) + 1
        }
        found |= level
    return [ExtendedWeylElement.rotation(n, e) * w for w in found for e in (-1, 0, 1)]


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_times_simple_matches_validated_product(n):
    for w in short_elements(n):
        for k in range(n):
            got = w.times_simple(k)
            assert got == w * s(n, k)
            assert got.times_simple(k + n) == w
            # the trusted result satisfies the checks of the public constructor
            assert ExtendedWeylElement(got.omega, got.window) == got


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_step_is_times_simple_and_descent(n):
    for w in short_elements(n, 6):
        for k in range(-1, n + 1):
            ws, down = w.step(k)
            assert type(ws) is ExtendedWeylElement
            assert ws == w * s(n, k) and down == w.has_right_descent(k)
            assert down == (ws.length() < w.length())


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_reduced_word_is_reduced(n):
    for w in short_elements(n):
        word = w.reduced_word()
        assert len(word) == w.length()
        assert from_word(n, word) == ExtendedWeylElement(0, w.window)


def test_residues_keeps_a_reduced_frozenset():
    S = frozenset({0, 2})
    assert residues(3, S) is S
    for given in ([0, 2], {3, 2}, (-1, 0), frozenset({5, 0})):
        assert residues(3, given) == frozenset({0, 2})


@pytest.mark.parametrize("n", (3, 4, 5))
def test_index_memos_key_on_residues(n):
    # a list, a set with an index >= n (or < 0) and the frozenset give the
    # identical memoized object, and the later forms add no memo entry
    for I in proper_subsets(n):
        w, word = longest_element(n, I), preferred_word(n, I)
        sizes = (weyl._longest_element.cache_info().currsize,
                 weyl._preferred_word.cache_info().currsize)
        for given in (sorted(I), {i + n for i in I}, {i - n for i in I}, frozenset(I)):
            assert longest_element(n, given) is w
            assert preferred_word(n, given) is word
        assert (weyl._longest_element.cache_info().currsize,
                weyl._preferred_word.cache_info().currsize) == sizes
        assert w.reduced_word() is ExtendedWeylElement(2, w.window).reduced_word()
