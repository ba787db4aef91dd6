"""The acceptance gate: one test per criterion, each printing a verdict line.

Every tolerance is exact (integer/rational identities); the stated runtime
budgets are asserted with a wall clock.
"""

import itertools
import re
import time

import pytest

from affhecke import bimod
from affhecke.braid import jm_braid, w_lambda
from affhecke.complexes import (
    build_F,
    check_d2_signs,
    crossover_sign,
    f_symbol,
    monodromy_map,
    n_symbol,
    summand_subset,
    tensorBI_object_GE,
    verify_N_equals_M,
    verify_wakimoto,
    verify_x1_commutation,
)
from affhecke.bimod import eps_sign
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
from affhecke.suites import (
    descent_lemma_cases,
    ge_property_cases,
    proper_subsets,
    rewrite_cases,
)
from affhecke.weyl import ExtendedWeylElement, h_of, longest_element, tau_components


def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def assert_exact_d2(n):
    """d^2 = mu.delta with mu the monodromy map, and d^2 = 0 mod delta."""
    f = build_F(n, "bimodule")
    # monodromy() divides every entry of d^2 by delta exactly, so d^2 = 0
    # mod delta holds once it returns
    mu = f.monodromy()
    expected = monodromy_map(n, f)
    assert set(mu.entries) == set(expected.entries)
    for key in mu.entries:
        assert (mu.entries[key] - expected.entries[key]).is_zero()


def test_criterion_01_d2_equals_mu_delta():
    start = time.monotonic()
    for n in (2, 3, 4, 5, 6, 7, 8):
        assert_exact_d2(n)
    # the forced blocks of n <= 8 fit the memo: none is evicted
    info = bimod._forced.cache_info()
    assert info.currsize < info.maxsize
    for n in (5, 6, 7, 8):
        assert check_d2_signs(n)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    report(1, "d^2 = mu.delta, exact to n=8, sign level to n=8")


@pytest.mark.slow
def test_criterion_01_exact_n9():
    assert_exact_d2(9)
    info = bimod._forced.cache_info()
    assert info.currsize < info.maxsize
    report("1+", "d^2 = mu.delta, exact at n=9")


def test_criterion_02_golden_figures():
    # n=2: the four summands and all-plus dots
    f2 = build_F(2, "bimodule")
    assert {(tuple(s.label), s.shift, s.degree) for s in f2.summands} == {
        ((), -1, -1), ((0,), 0, 0), ((1,), 0, 0), ((), 1, 1)
    }
    for (a, b), mor in f2.diff.items():
        sa, sb = f2.by_sid[a], f2.by_sid[b]
        small, big = sorted(
            (summand_subset(sa.label), summand_subset(sb.label)), key=len
        )
        assert eps_sign(2, small, big) == 1
    # n=3: the twelve summands and the displayed sign pattern
    f3 = build_F(3)
    assert len(f3.summands) == 12
    displayed = {
        (frozenset({2}), frozenset({1, 2})): -1,
        (frozenset({1}), frozenset({1, 2})): 1,
        (frozenset({1}), frozenset({0, 1})): -1,
        (frozenset({0}), frozenset({0, 1})): 1,
        (frozenset({0}), frozenset({0, 2})): -1,
        (frozenset({2}), frozenset({0, 2})): 1,
    }
    for (small, big), sign in displayed.items():
        assert eps_sign(3, small, big) == sign
    for i in range(3):
        assert eps_sign(3, frozenset(), frozenset({i})) == 1
    # n=4: 32 summands, reverse-cyclic words, crossing-sign convention
    f4 = build_F(4, "bimodule")
    assert len(f4.summands) == 32
    assert all(s.shift == s.degree for s in f4.summands)
    assert eps_sign(4, frozenset({1}), frozenset({1, 3})) == 1
    assert eps_sign(4, frozenset({3}), frozenset({1, 3})) == -1
    assert eps_sign(4, frozenset({1, 3}), frozenset({1, 2, 3})) == -1
    dot = bimod.signed_dot(4, frozenset({1, 3}), frozenset({0, 1, 3}))
    composite = (-bimod.startdot(4, (1, 3), 1, 0)).compose(
        bimod.theta(4, (3, 1), (1, 3))
    )
    assert (dot - composite).is_zero()
    report(2, "golden figures n=2,3,4 incl. crossing signs")


def test_criterion_03_wakimoto():
    start = time.monotonic()
    for n in range(2, 9):
        assert verify_wakimoto(n)
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 3 took {elapsed:.1f}s"
    report(3, "Wakimoto filtration n=2..8")


def test_criterion_04_descent_lemma():
    start = time.monotonic()
    for n in range(2, 7):
        for name, ok in descent_lemma_cases(n):
            assert ok, (n, name)
    for n in range(2, 6):
        for name, ok in rewrite_cases(n):
            assert ok, (n, name)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"criterion 4 took {elapsed:.1f}s"
    report(4, "descent lemma exhaustive n=2..6, rewriting lemma for w_I h_X n=2..5")


def _tau_suffixes(n, I, X, comps):
    per = []
    for comp in comps:
        opts = [frozenset()]
        for m in range(1, len(comp) + 1):
            tail = comp[-m:]
            if all(t in X for t in tail):
                opts.append(frozenset(tail))
        per.append(opts)
    return {frozenset().union(*c) for c in itertools.product(*per)}


def test_criterion_05_plethysm_and_smoothness():
    start = time.monotonic()
    # finite plethysm identities for N <= 6
    for N in range(2, 7):
        n, cap = N + 1, 24
        I = frozenset(range(1, N))
        wI = longest_element(n, I)

        def phi(k):
            return wI * h_of(n, frozenset(range(N - k + 1, N + 1)), 0)

        bs = {k: kl_basis(phi(k), cap) for k in range(N + 1)}
        assert bs[0] * b_simple(n, N) == bs[1]
        for k in range(1, N):
            assert bs[k] * b_simple(n, N - k) == bs[k + 1] + bs[k - 1]
        for k in range(N + 1):
            w = phi(k)
            for j in range(1, N + 1):
                if j == N - k or (k == 0 and j == N):
                    continue
                if w.has_right_descent(j):
                    assert bs[k] * b_simple(n, j) == bs[k].scale(gauss(2))
    # c_{I,X,Y}: order independence and godown, exhaustive n <= 5
    for n in (2, 3, 4, 5):
        cap = 24
        for I in proper_subsets(n):
            comps = tau_components(n, I)
            memo, memo_last = {}, {}
            for X in proper_subsets(n):
                for Y in _tau_suffixes(n, I, X, comps):
                    c = c_element(n, I, X, Y, cap, memo)
                    assert c == c_element(n, I, X, Y, cap, memo_last, order="last")
                    for j in sorted(X - Y):
                        if godown_applicable(n, I, X, Y, j, comps):
                            assert c == c_godown_rhs(n, I, X, Y, j, cap, memo)
                if n <= 4 and is_tau_suffix(n, I, X, comps):
                    cxx = c_element(n, I, X, X, cap, memo)
                    assert cxx == kl_basis(longest_element(n, I) * h_of(n, X), cap)
                    assert cxx.bar() == cxx
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 5 took {elapsed:.1f}s"
    report(5, "Hecke plethysm N<=6, byXY n<=5, smoothness n<=4")


def test_criterion_06_tensor_with_longest_element():
    start = time.monotonic()
    for n in (2, 3, 4):
        fsym = f_symbol(n)
        for I in proper_subsets(n):
            cert = tensorBI_object_GE(n, I)
            assert cert["verdict"] == "pass"
            assert kl_basis(longest_element(n, I)) * fsym == n_symbol(n, I)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"criterion 6 took {elapsed:.1f}s"
    report(6, "b_(w_I).[F] = [N_I] and the GE certificate, n=2,3,4")


def test_criterion_07_left_versus_right():
    start = time.monotonic()
    for n in (2, 3, 4, 5, 6, 7):
        for I in proper_subsets(n):
            assert verify_N_equals_M(n, I)
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 7 took {elapsed:.1f}s"
    assert crossover_sign(4, frozenset({0}), frozenset({0, 1})) == -1
    report(7, "signed crossover N_I = M_tau(I), n<=7")


def test_criterion_08_flattening():
    start = time.monotonic()
    # flat([F]) = [F_1] + [F_1^{-1}] at n=2
    flat = flatten_hecke(f_symbol(2))
    b1 = b_simple(2, 1)
    expected = b1 + b1 - HeckeElement.unit(2).scale(LaurentPoly({1: 1, -1: 1}))
    assert flat == expected
    for n in (2, 3, 4, 5):
        js = [braid_hecke_image(jm_braid(n, i)) for i in range(1, n + 1)]
        for k in range(1, n + 1):
            lhs = HeckeElement.zero(n)
            ek = HeckeElement.zero(n)
            for supp in itertools.combinations(range(n), k):
                lam = [1 if i in supp else 0 for i in range(n)]
                lhs = lhs + flatten_hecke(braid_hecke_image(w_lambda(n, lam)))
                term = HeckeElement.unit(n)
                for i in supp:
                    term = term * js[i]
                ek = ek + term
            assert lhs == ek, (n, k)
        ft = HeckeElement.unit(n)
        for i in range(n):
            ft = ft * js[i]
        assert flatten_hecke(braid_hecke_image(w_lambda(n, [1] * n))) == ft
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 8 took {elapsed:.1f}s"
    report(8, "flattening identities: [F], e_k, full twist, n<=5")


def test_criterion_09_pseudocomplex_engine():
    start = time.monotonic()
    cases = ge_property_cases(seed=0, count=200)
    # each check names its case count, "(200 cases)"; the pitfall is one case
    total = 0
    for name, ok in cases:
        assert ok, name
        counted = re.search(r"\((\d+) cases\)$", name)
        total += int(counted.group(1)) if counted else 1
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 9 took {elapsed:.1f}s"
    assert total >= 500, total
    report(9, f"pseudocomplex engine, {total} randomized cases")


def test_criterion_10_categorical_showcases():
    start = time.monotonic()
    for n in (2, 3, 4):
        assert verify_x1_commutation(n)
    from affhecke.twist import verify_phi_squares_n2

    rep = verify_phi_squares_n2()
    assert len(rep) == 4
    for value in rep.values():
        assert value["kernel_dim"] == value["boundary_dim"]
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 10 took {elapsed:.1f}s"
    report(10, "x_1 nulhomotopy n=2,3,4 and the phi_s squares at n=2")


def test_criterion_11_twisted_centrality():
    start = time.monotonic()
    for n in (2, 3, 4, 5, 6):
        fsym = f_symbol(n)
        # [F] is tau-twisted central, not central
        for s in range(n):
            assert b_simple(n, s) * fsym == fsym * b_simple(n, s + 1)
        assert not is_central(fsym)
        # absorbing omega gives the Bernstein central element sum_i [y_i]
        om = HeckeElement.std(ExtendedWeylElement.rotation(n, 1))
        z = center_character(n, 1)
        assert fsym * om == z
        assert om * fsym == z
        assert is_central(z)
        if n <= 5:
            jm_sum = HeckeElement.zero(n)
            for i in range(1, n + 1):
                jm_sum = jm_sum + braid_hecke_image(jm_braid(n, i))
            assert flatten_hecke(z) == jm_sum
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 11 took {elapsed:.1f}s"
    report(11, "b_s.[F] = [F].b_(s+1), [F].H_omega = z_1 central, [F] not central, n<=6")
