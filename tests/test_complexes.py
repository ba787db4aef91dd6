import hashlib
import json

import pytest

from affhecke import bimod, complexes, homalg, weyl
from affhecke.bimod import eps_sign
from affhecke.complexes import (
    adjacent_pairs,
    build_F,
    build_M,
    build_N,
    build_P,
    check_d2_signs,
    crossover_sign,
    f_symbol,
    m_sets,
    monodromy_map,
    n_sets,
    n_symbol,
    propagate_signs,
    summand_subset,
    tau_equivariance_signs,
    tensorBI_object_GE,
    verify_N_equals_M,
    verify_wakimoto,
    verify_x1_commutation,
    wakimoto_assignment,
)
from affhecke.hecke import HeckeElement, b_simple, kl_basis
from affhecke.rings import LaurentPoly
from affhecke.suites import proper_subsets
from affhecke.weyl import h_of, longest_element, preferred_word
from bimodule_bases import adjoint, dense, sparse


def fr(*xs):
    return frozenset(xs)


def test_build_P():
    p = build_P(2)
    assert p[0] == [fr(0), fr(1)]
    assert p[1] == [fr()] and p[-1] == [fr()]
    p3 = build_P(3)
    assert p3[0] == [fr(), fr(0, 1), fr(0, 2), fr(1, 2)]
    for n in (2, 3, 4, 5):
        pn = build_P(n)
        assert pn[n - 1] == [fr()] and pn[1 - n] == [fr()]
        assert all(k in pn for k in range(1 - n, n))
        for k in pn:
            assert pn[k] == pn[-k]
    with pytest.raises(ValueError):
        build_P(1)


@pytest.mark.parametrize("build", (build_F,))
def test_builders_take_sign_and_bimodule_only(build):
    # "hecke" was an alias of "sign"; like any other name it is now refused
    for backend in ("hecke", "matrix"):
        with pytest.raises(ValueError, match=f"unknown backend '{backend}'"):
            build(3, backend)


# sha256 of json.dumps(p.to_json(n), sort_keys=True) for N_I and M_J at
# n = 4, every I: the serialized complexes are pinned byte for byte
BUILDERS = {"N": build_N, "M": build_M}
BUILT_SHA256 = {
    ("N", 4, ()): (
        "4d5301d435b6991c343a46f679b1462a3b1538e017380554dd6e4b49cfb29172"
    ),
    ("N", 4, (0,)): (
        "2ffafa13653369b1ae8edecee269d465657653efac1077b724b2fe85be8dc092"
    ),
    ("N", 4, (1,)): (
        "734550c311274d5de5c243a821cb2c7b53b1b8eea12ee82f93c19317f8076d10"
    ),
    ("N", 4, (2,)): (
        "115440ad339a07e74c8d6aa6304fbadee9cf0c710ec7e006e20a2b55df608950"
    ),
    ("N", 4, (3,)): (
        "995b256b9a31a9cb22577600c47dcd2337262f72b910c3235c93f08568c02b78"
    ),
    ("N", 4, (0, 1)): (
        "d9a834b4684431746a6a6cbf43c8a9e86a3833b5a2f35b4c2bb6f8c0046315a5"
    ),
    ("N", 4, (0, 2)): (
        "e39a6d76726c169ad7cb50ffc4217b83e1737de22233ee121659e843def39ae2"
    ),
    ("N", 4, (0, 3)): (
        "099f811f56c4674e45e1d8122b5ccaa7dd2fd26d51d4f56fff7186f616136f40"
    ),
    ("N", 4, (1, 2)): (
        "b8581494e20587828e6227f8981d3c5db33fdcf29c9824ff177d3229ad81b05d"
    ),
    ("N", 4, (1, 3)): (
        "987d59a722570bc4302b5be2514614201dbfa7333540591765b70c4a168e0501"
    ),
    ("N", 4, (2, 3)): (
        "4fe8103ce48f99e17e38f742c2978c10364ba192e309916e1072dbd264d4d063"
    ),
    ("N", 4, (0, 1, 2)): (
        "333f386efa722b7c45417010787db6515c122fdf10ea0c03c0344c4fe7188706"
    ),
    ("N", 4, (0, 1, 3)): (
        "5e37d336db029f31e23ebce6c657bf10cbaefd60fbea5ed1557a4d74d2b1dd64"
    ),
    ("N", 4, (0, 2, 3)): (
        "83453c2a3785994c72b4716bd28c92a6eb99cf2dae0c4837cbb8b1392fd04323"
    ),
    ("N", 4, (1, 2, 3)): (
        "5aa68af63cca5710597ef5ddcd99847e7f3f235b59e56ffbdf85795d485b4d0d"
    ),
    ("M", 4, ()): (
        "4d5301d435b6991c343a46f679b1462a3b1538e017380554dd6e4b49cfb29172"
    ),
    ("M", 4, (0,)): (
        "115440ad339a07e74c8d6aa6304fbadee9cf0c710ec7e006e20a2b55df608950"
    ),
    ("M", 4, (1,)): (
        "995b256b9a31a9cb22577600c47dcd2337262f72b910c3235c93f08568c02b78"
    ),
    ("M", 4, (2,)): (
        "2ffafa13653369b1ae8edecee269d465657653efac1077b724b2fe85be8dc092"
    ),
    ("M", 4, (3,)): (
        "734550c311274d5de5c243a821cb2c7b53b1b8eea12ee82f93c19317f8076d10"
    ),
    ("M", 4, (0, 1)): (
        "4fe8103ce48f99e17e38f742c2978c10364ba192e309916e1072dbd264d4d063"
    ),
    ("M", 4, (0, 2)): (
        "e39a6d76726c169ad7cb50ffc4217b83e1737de22233ee121659e843def39ae2"
    ),
    ("M", 4, (0, 3)): (
        "b8581494e20587828e6227f8981d3c5db33fdcf29c9824ff177d3229ad81b05d"
    ),
    ("M", 4, (1, 2)): (
        "099f811f56c4674e45e1d8122b5ccaa7dd2fd26d51d4f56fff7186f616136f40"
    ),
    ("M", 4, (1, 3)): (
        "987d59a722570bc4302b5be2514614201dbfa7333540591765b70c4a168e0501"
    ),
    ("M", 4, (2, 3)): (
        "d9a834b4684431746a6a6cbf43c8a9e86a3833b5a2f35b4c2bb6f8c0046315a5"
    ),
    ("M", 4, (0, 1, 2)): (
        "83453c2a3785994c72b4716bd28c92a6eb99cf2dae0c4837cbb8b1392fd04323"
    ),
    ("M", 4, (0, 1, 3)): (
        "5aa68af63cca5710597ef5ddcd99847e7f3f235b59e56ffbdf85795d485b4d0d"
    ),
    ("M", 4, (0, 2, 3)): (
        "333f386efa722b7c45417010787db6515c122fdf10ea0c03c0344c4fe7188706"
    ),
    ("M", 4, (1, 2, 3)): (
        "5e37d336db029f31e23ebce6c657bf10cbaefd60fbea5ed1557a4d74d2b1dd64"
    ),
}


@pytest.mark.parametrize(("builder", "n", "arg"), list(BUILT_SHA256), ids=str)
def test_built_complexes_pinned(builder, n, arg):
    text = json.dumps(BUILDERS[builder](n, arg).to_json(n), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == BUILT_SHA256[(builder, n, arg)]


def test_summand_counts():
    assert len(build_F(2).summands) == 4
    assert len(build_F(3).summands) == 12
    assert len(build_F(4).summands) == 32


def test_golden_figure_n2():
    f = build_F(2, "bimodule")
    table = {(summand_subset(s.label), s.degree): s for s in f.summands}
    assert set(table) == {(fr(), -1), (fr(0), 0), (fr(1), 0), (fr(), 1)}
    for s in f.summands:
        assert s.shift == s.degree
    for (a, b), mor in f.diff.items():
        sa, sb = f.by_sid[a], f.by_sid[b]
        small, big = sorted(
            (summand_subset(sa.label), summand_subset(sb.label)), key=len
        )
        assert eps_sign(2, small, big) == 1
        (i,) = big
        if sa.degree == -1:
            assert mor == bimod.startdot(2, (), 0, i)
        else:
            assert mor == bimod.enddot(2, (i,), 0)


def test_golden_figure_n3():
    # the twelve differential signs of the displayed n=3 complex
    expected = {
        (fr(2), fr(1, 2)): -1,
        (fr(1), fr(1, 2)): 1,
        (fr(1), fr(0, 1)): -1,
        (fr(0), fr(0, 1)): 1,
        (fr(0), fr(0, 2)): -1,
        (fr(2), fr(0, 2)): 1,
    }
    for (small, big), sign in expected.items():
        assert eps_sign(3, small, big) == sign, (sorted(small), sorted(big))
    for i in range(3):
        assert eps_sign(3, fr(), fr(i)) == 1
    f = build_F(3)
    assert all(s.shift == s.degree for s in f.summands)
    degrees = sorted(s.degree for s in f.summands)
    assert degrees == [-2, -1, -1, -1, 0, 0, 0, 0, 1, 1, 1, 2]


def test_golden_figure_n4():
    # the crossing-sign conventions from the n=4 discussion
    assert eps_sign(4, fr(1), fr(1, 3)) == 1       # startdot_3 (x) id_1
    assert eps_sign(4, fr(3), fr(1, 3)) == -1      # -(id_3 (x) startdot_1)
    assert eps_sign(4, fr(1, 3), fr(1, 2, 3)) == -1
    assert eps_sign(4, fr(1, 3), fr(0, 1, 3)) == 1  # via the signed crossing
    # words: 2 before 1, 1 before 0, 0 before 3, 3 before 2 in each label
    f = build_F(4, "bimodule")
    reverse_cyclic = {(2, 1), (1, 0), (0, 3), (3, 2)}
    for s in f.summands:
        word = tuple(s.label)
        for a, b in zip(word, word[1:]):
            if (a - b) % 4 == 1:
                assert (a, b) in reverse_cyclic
    mor = f.diff[
        next(
            (a, b)
            for (a, b) in f.diff
            if summand_subset(f.by_sid[a].label) == fr(1, 3)
            and summand_subset(f.by_sid[b].label) == fr(0, 1, 3)
            and f.by_sid[b].degree == f.by_sid[a].degree + 1
        )
    ]
    direct = bimod.signed_dot(4, fr(1, 3), fr(0, 1, 3))
    assert mor == direct
    # the displayed factorization: (-1) x 0-dot after the (-1)-signed crossing
    composite = (-bimod.startdot(4, (1, 3), 1, 0)).compose(
        bimod.theta(4, (3, 1), (1, 3))
    )
    assert (mor - composite).is_zero()


@pytest.mark.parametrize("n", (2, 3, 4))
def test_d2_is_mu_delta_bimodule(n):
    f = build_F(n, "bimodule")
    mu = f.monodromy()
    expected = monodromy_map(n, f)
    assert set(mu.entries) == set(expected.entries)
    for key in mu.entries:
        assert (mu.entries[key] - expected.entries[key]).is_zero()
    for value in f.d_squared().values():
        assert bimod.subs_delta_zero(value).is_zero()


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8))
def test_d2_sign_level(n):
    assert check_d2_signs(n)


def test_d2_signs_detects_a_flipped_dot(monkeypatch):
    # the dot {0} -> {0, 1} lies on squares {0} -> {0, 1} -> {0, 1, j} whose
    # other path keeps its sign, so those off-diagonal entries stop cancelling
    flipped = (frozenset({0}), frozenset({0, 1}))

    def eps(n, X, Y):
        return -eps_sign(n, X, Y) if (X, Y) == flipped else eps_sign(n, X, Y)

    monkeypatch.setattr(complexes, "eps_sign", eps)
    assert not check_d2_signs(4)


EMPTY, ZERO, ONE = frozenset(), frozenset({0}), frozenset({1})


@pytest.mark.parametrize(
    "n, zeroed",
    (
        # {} -> {0} lies on the diagonal path {}(-1) -> {0}(0) -> {}(1),
        # whose sum drops to n - 1; at n = 2, F has no off-diagonal d^2
        # entry, so only the diagonal criterion can fail there
        (2, {(EMPTY, ZERO)}),
        (4, {(EMPTY, ZERO)}),
        # both paths from {}(-1) to {}(1) vanish, so the diagonal entry is
        # missing altogether
        (2, {(EMPTY, ZERO), (EMPTY, ONE)}),
    ),
)
def test_d2_signs_detects_a_missing_path(monkeypatch, n, zeroed):
    def eps(n, X, Y):
        return 0 if (X, Y) in zeroed else eps_sign(n, X, Y)

    monkeypatch.setattr(complexes, "eps_sign", eps)
    assert not check_d2_signs(n)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_wakimoto(n):
    assert verify_wakimoto(n)
    assign = wakimoto_assignment(n)
    sizes = {}
    for (_X, _k), i in assign.items():
        sizes[i] = sizes.get(i, 0) + 1
    assert sizes == {i: 2 ** (n - 1) for i in range(1, n + 1)}


def test_wakimoto_n2_cubes():
    assign = wakimoto_assignment(2)
    assert assign[(fr(1), 0)] == 1 and assign[(fr(), 1)] == 1
    assert assign[(fr(), -1)] == 2 and assign[(fr(0), 0)] == 2


def test_monodromy_map_of_F():
    # mu is a chain map F -> F(-2)[2], and mu^2 = 0 exactly when n = 2
    for n in (2, 3):
        f = build_F(n, "bimodule")
        mu = monodromy_map(n, f)
        assert not mu.defect()
        assert (not mu.compose(mu).entries) == (n == 2)


def test_f_symbol_n2():
    # [F] = -v^-1 + b_0 + b_1 - v
    sym = f_symbol(2)
    v = LaurentPoly.v(1)
    vi = LaurentPoly.v(-1)
    expected = (
        b_simple(2, 0)
        + b_simple(2, 1)
        - HeckeElement.unit(2).scale(v)
        - HeckeElement.unit(2).scale(vi)
    )
    assert sym == expected
    # empty complex symbol is zero; unlabeled summands are an error
    empty = homalg.Pseudocomplex(homalg.SignArithmetic(), [], {})
    from affhecke.hecke import symbol_of_complex

    assert symbol_of_complex(2, empty, lambda label: None).is_zero()
    one = homalg.one_term_complex(homalg.SignArithmetic(), frozenset())
    with pytest.raises(ValueError):
        symbol_of_complex(2, one, lambda label: None)


def test_build_N_examples():
    # n=2, I={1}: single summand b_{s_1 s_0} in degree 0
    N = build_N(2, {1})
    assert len(N.summands) == 1
    s = N.summands[0]
    assert s.degree == 0 and summand_subset(s.label) == fr(0)
    assert n_symbol(2, {1}) == kl_basis(
        longest_element(2, {1}) * h_of(2, {0})
    )
    # n=4, I={0}: the worked example (12 summands)
    N = build_N(4, {0})
    assert len(N.summands) == 12
    # n=4, I={0,1}: 4 summands
    N = build_N(4, {0, 1})
    assert len(N.summands) == 4
    assert sorted(s.degree for s in N.summands) == [-1, 0, 0, 1]
    for n in (2, 3, 4):
        for I in proper_subsets(n):
            NI = build_N(n, I)
            # perverse, multiplicity free and with a connected summand graph
            # (N_I is indecomposable; I = {} gives F)
            assert all(s.shift == s.degree for s in NI.summands)
            assert len(NI.by_label) == len(NI.summands)
            linked = {NI.summands[0].sid}
            for _ in NI.summands:
                linked |= {x for edge in NI.diff if linked & set(edge) for x in edge}
            assert len(linked) == len(NI.summands)
            J = frozenset((i + 1) % n for i in I)
            M = build_M(n, J)
            assert len(M.summands) == len(NI.summands)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_tensorBI(n):
    fsym = f_symbol(n)
    for I in proper_subsets(n):
        cert = tensorBI_object_GE(n, I)
        assert cert["verdict"] == "pass"
        lhs = kl_basis(longest_element(n, I)) * fsym
        assert lhs == n_symbol(n, I)


def test_tensorBI_examples():
    cert = tensorBI_object_GE(2, fr(1))
    assert cert["survivors"] == [([0], 0)]
    cert = tensorBI_object_GE(3, fr(0))
    assert sorted(k for _, k in cert["survivors"]) == [-1, 0, 0, 1]
    cert = tensorBI_object_GE(4, fr(0, 1))
    assert len(cert["survivors"]) == 4


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
def test_adjacent_pairs_match_pairwise_scan(n):
    gradings = [build_P(n)] + [n_sets(n, I) for I in proper_subsets(n)]
    for grading in gradings:
        expected = [
            (k, X, Y)
            for k in sorted(grading)
            if k + 1 in grading
            for X in grading[k]
            for Y in grading[k + 1]
            if len(X ^ Y) == 1
        ]
        assert list(adjacent_pairs(n, grading)) == expected


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
def test_crossover(n):
    for I in proper_subsets(n):
        assert verify_N_equals_M(n, I)


def slot_parity_reference(n, Z, x, aleph):
    """(-1)^(letters to the left of x in the anticyclic word of h_Z), read
    off the subset Z: the word lists Z in decreasing (z - aleph) % n."""
    key = (x - aleph) % n
    before = sum(1 for z in Z if (z - aleph) % n > key)
    return (-1) ** before


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8))
def test_slot_parity_on_masks_matches_the_subset_formula(n):
    for Z in proper_subsets(n):
        mask = sum(1 << z for z in Z)
        for aleph in set(range(n)) - Z:
            for x in range(n):
                assert complexes._slot_parity(n, mask, x, aleph) == (
                    slot_parity_reference(n, Z, x, aleph)
                ), (sorted(Z), x, aleph)


def failing_crossovers(n):
    """The number of I for which verify_N_equals_M(n, I) raises."""
    failed = 0
    for I in proper_subsets(n):
        try:
            verify_N_equals_M(n, I)
        except AssertionError:
            failed += 1
    return failed


@pytest.mark.parametrize("n, failing", ((3, 4), (4, 11)))
def test_crossover_detects_a_flipped_bookkeeping_sign(monkeypatch, n, failing):
    # (-1)^{a(X)} negated on the first X of each N_I breaks check (c) on
    # every edge at that X; an I whose first X has no edge still passes
    first = {
        I: next(X for layer in n_sets(n, I).values() for X in layer)
        for I in proper_subsets(n)
    }

    def flipped(n, I, X):
        sign = crossover_sign(n, I, X)
        return -sign if X == first[I] else sign

    monkeypatch.setattr(complexes, "crossover_sign", flipped)
    assert failing_crossovers(n) == failing


@pytest.mark.parametrize("n, failing", ((3, 4), (4, 11)))
def test_crossover_detects_correspondents_that_are_not_adjacent(monkeypatch, n, failing):
    # a correspondent_Y that sends every X to the empty set: an edge X -> X2
    # then maps to no edge of M_J.  verify_N_equals_M imports the function
    # when called, so the fault is planted in weyl; an I whose N_I has no
    # edge still passes
    monkeypatch.setattr(weyl, "correspondent_Y", lambda n, I, X: frozenset())
    messages = []
    for I in proper_subsets(n):
        try:
            verify_N_equals_M(n, I)
        except AssertionError as err:
            messages.append(str(err))
    assert messages == ["correspondents are not adjacent"] * failing


def test_tau_equivariance_and_crossover_detect_a_flipped_dot(monkeypatch):
    # the dot {0} -> {0, 1} of F, N_I and M_J negated: tau(F) = F and, for
    # the I whose N_I or M_J holds that dot, check (a) of N_I = M_J fail
    flipped = (fr(0), fr(0, 1))

    def eps(n, X, Y):
        return -eps_sign(n, X, Y) if (X, Y) == flipped else eps_sign(n, X, Y)

    monkeypatch.setattr(complexes, "eps_sign", eps)
    for n in (3, 4):
        with pytest.raises(AssertionError, match="tau"):
            tau_equivariance_signs(n)
    assert failing_crossovers(4) == 2


def test_crossover_sign_values():
    # all components singletons: +1
    assert crossover_sign(3, fr(), fr(0, 2)) == 1
    # n=4, I={0}, X={0,1}: the component {0,1} is inside X
    assert crossover_sign(4, fr(0), fr(0, 1)) == -1
    with pytest.raises(ValueError):
        crossover_sign(4, fr(0), fr(0, 2))


def underlying_vector_space(p):
    """Graded dimensions: count of R-labeled summands per homological degree."""
    dims = {}
    for s in p.summands:
        if not summand_subset(s.label):
            dims[s.degree] = dims.get(s.degree, 0) + 1
    return dims


def test_underlying_vector_space():
    assert underlying_vector_space(build_F(3)) == {-2: 1, 0: 1, 2: 1}
    f2 = build_F(2)
    t = homalg.tensor(f2, f2)
    dims = {}
    for s in t.summands:
        a, b = s.label
        if not a and not b:
            dims[s.degree] = dims.get(s.degree, 0) + 1
    assert dims == {-2: 1, 0: 2, 2: 1}
    empty = homalg.Pseudocomplex(homalg.SignArithmetic(), [], {})
    assert underlying_vector_space(empty) == {}


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_gamma_nilpotent(n):
    # mu acts on the underlying vector space of F as a regular nilpotent: the
    # R summands sit in degrees 1-n, 3-n, ..., n-1 and Gamma(mu) shifts each
    # one to the next by the identity
    f = build_F(n)
    mu = monodromy_map(n, f)
    assert underlying_vector_space(f) == {k: 1 for k in range(1 - n, n, 2)}
    r_sids = {s.sid for s in f.summands if not summand_subset(s.label)}
    shifts = [m for (a, b), m in mu.entries.items() if a in r_sids and b in r_sids]
    assert shifts == [1] * (n - 1)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_tau_equivariance(n):
    signs = tau_equivariance_signs(n)
    assert signs
    # the assignment is a genuine isomorphism: every edge consistent was
    # already enforced; additionally the orbit structure covers all summands
    p = build_P(n)
    assert len(signs) == sum(len(v) for v in p.values())
    # every differential of F, rotated by tau, matches up to the signs
    for k, X, Y in adjacent_pairs(n, p):
        tX = frozenset((x + 1) % n for x in X)
        tY = frozenset((y + 1) % n for y in Y)
        eps = eps_sign(n, *sorted((X, Y), key=len))
        eps_tau = eps_sign(n, *sorted((tX, tY), key=len))
        assert signs[(Y, k + 1)] * eps_tau == eps * signs[(X, k)]


def test_propagate_signs():
    edges = [("a", "b", -1), ("b", "c", 1), ("d", "e", -1)]
    # the first node of each component, in the given order, gets +1
    assert propagate_signs(["b", "e", "a", "c", "d", "f"], edges) == {
        "b": 1, "a": -1, "c": 1, "e": 1, "d": -1, "f": 1,
    }
    assert propagate_signs(["a", "d"], edges) == {
        "a": 1, "b": -1, "c": -1, "d": 1, "e": -1,
    }
    # a cycle whose ratios multiply to -1 has no solution
    assert propagate_signs(["a"], edges + [("c", "a", 1)]) is None
    assert propagate_signs(["a"], edges + [("c", "a", -1)])["c"] == -1


def test_dual_of_F_is_F():
    # the adjoint of each differential X -> Y of F is the signed dot Y -> X,
    # so the dual complex is F again, and dualizing twice gives F back
    for n in (2, 3):
        f = build_F(n, "bimodule")
        for (a, b), m in f.diff.items():
            X = summand_subset(f.by_sid[a].label)
            Y = summand_subset(f.by_sid[b].label)
            dual = adjoint(m)
            assert (dual - bimod.signed_dot(n, Y, X)).is_zero()
            assert (adjoint(dual) - m).is_zero()


def test_d21_d22_lemma_levels():
    # off-diagonal cancellation at sign level happens inside check_d2_signs;
    # here the matrix-level diagonal: d^2 entries are delta times identity
    for n in (2, 3, 4):
        f = build_F(n, "bimodule")
        from affhecke.rings import RingElement

        delta = RingElement.delta(n)
        for (a, c), entry in f.d_squared().items():
            sa, sc = f.by_sid[a], f.by_sid[c]
            assert summand_subset(sa.label) == summand_subset(sc.label)
            ident = bimod.Morphism.identity(n, tuple(sa.label)).scale(delta)
            assert (entry - ident).is_zero()


@pytest.mark.parametrize("n", (2, 3))
def test_x1_commutation(n):
    assert verify_x1_commutation(n)


def rouquier_complex(n, i, inverse=False):
    """The elementary Rouquier complex F_i (or its inverse) over bimodules.

    F_i is B_i in degree 0 mapping to R(1) by the enddot; the inverse is
    R(-1) mapping to B_i by the startdot.
    """
    i = i % n
    if inverse:
        summands = [homalg.Summand(0, (), -1, -1), homalg.Summand(1, (i,), 0, 0)]
        diff = {(0, 1): bimod.startdot(n, (), 0, i)}
    else:
        summands = [homalg.Summand(0, (i,), 0, 0), homalg.Summand(1, (), 1, 1)]
        diff = {(0, 1): bimod.enddot(n, (i,), 0)}
    return homalg.Pseudocomplex(homalg.BimoduleArithmetic(n), summands, diff)


def rouquier_tensor_dotted(n, letters):
    """The product of elementary Rouquier complexes using the dotted
    representatives, whose dot signs follow the strand-counting rule.

    After an odd number of factors the next one is tensored with
    (-1)^(i+1) instead of (-1)^i on its differential: homalg.tensor numbers
    the pair (a, b) by a * |Q| + b, so those are the entries that keep a.
    """
    out = None
    for count, tok in enumerate(letters):
        i, inverse = (tok, False) if isinstance(tok, int) else (tok[0], tok[1] < 0)
        factor = rouquier_complex(n, i, inverse)
        if out is None:
            out = factor
            continue
        out = homalg.tensor(out, factor)
        if count % 2 == 0:
            continue
        width = len(factor.summands)
        diff = {
            (a, b): -m if a // width == b // width else m
            for (a, b), m in out.diff.items()
        }
        out = homalg.Pseudocomplex(out.arithmetic, out.summands, diff)
    return out


def test_rouquier_inverse_and_wakimoto_cube():
    f = rouquier_complex(3, 1, inverse=True)
    assert [(tuple(s.label), s.shift, s.degree) for s in f.summands] == [
        ((), -1, -1), ((1,), 0, 0)
    ]
    # the y_1 cube at n=3 (without the omega) is F_2 F_1: its summands and
    # signed-dot differentials agree with the top Wakimoto cube of F
    cube = rouquier_tensor_dotted(3, [2, 1])
    assign = wakimoto_assignment(3)
    for s in cube.summands:
        X = frozenset(s.label)
        assert assign[(X, s.degree)] == 1
    for (a, b), mor in cube.diff.items():
        X = frozenset(cube.by_sid[a].label)
        Y = frozenset(cube.by_sid[b].label)
        assert (mor - bimod.signed_dot(3, X, Y)).is_zero()


@pytest.mark.parametrize("n", (2, 3, 4))
def test_wakimoto_cubes_are_rouquier_complexes(n):
    # the Rouquier complex of the y_i tail (omega stripped) is a cube whose
    # summands are the cube-i summands of F and whose differentials are the
    # signed dots, transported along the canonical signed rex moves
    assign = wakimoto_assignment(n)
    for i in range(1, n + 1):
        letters = [(k % n, -1) for k in range(i - 2, -1, -1)]
        letters += [(k, 1) for k in range(n - 1, i - 1, -1)]
        cube = rouquier_tensor_dotted(n, letters)
        members = {}
        for s in cube.summands:
            X = frozenset(s.label)
            assert assign[(X, s.degree)] == i, (i, sorted(X), s.degree)
            assert s.shift == s.degree
            members[s.sid] = tuple(s.label)
        assert len(members) == 2 ** (n - 1)
        for (a, b), mor in cube.diff.items():
            wa, wb = members[a], members[b]
            X, Y = frozenset(wa), frozenset(wb)
            transported = bimod.theta(n, preferred_word(n, Y), wb).compose(
                bimod.signed_dot(n, X, Y)
            ).compose(bimod.theta(n, wa, preferred_word(n, X)))
            assert (mor - transported).is_zero(), (wa, wb)


def test_independent_pair_zigzag_formula():
    # two independent isomorphisms with theta != 0 but tau = 0: the survivor
    # differential keeps c, subtracts both length-one zigzags and adds the
    # length-two zigzag through theta
    from affhecke.homalg import MatrixArithmetic, Pseudocomplex, Summand
    from affhecke.rings import RingElement

    ar = MatrixArithmetic(0)

    def c(x):
        return sparse(((RingElement.constant(0, x),),))

    summands = [
        Summand(0, 1, 0, 0),  # B
        Summand(1, 1, 0, 0),  # F_1
        Summand(2, 1, 0, 0),  # F_2
        Summand(3, 1, 0, 1),  # C
        Summand(4, 1, 0, 1),  # F'_1
        Summand(5, 1, 0, 1),  # F'_2
    ]
    diff = {
        (0, 3): c(7),   # c
        (0, 4): c(2),   # d_1
        (0, 5): c(3),   # d_2
        (1, 3): c(5),   # e_1
        (2, 3): c(11),  # e_2
        (1, 4): c(1),   # phi
        (2, 5): c(1),   # psi
        (2, 4): c(13),  # theta: F_2 -> F'_1
        # tau: F_1 -> F'_2 is zero
    }
    p = Pseudocomplex(ar, summands, diff)
    p.monodromy()
    q, _trace = p.simultaneous_eliminate([(1, 4), (2, 5)])
    # c - e1 phi^-1 d1 - e2 psi^-1 d2 + e1 phi^-1 theta psi^-1 d2
    expected = 7 - 5 * 2 - 11 * 3 + 5 * 13 * 3
    assert dense(q.diff[(0, 3)])[0][0] == RingElement.constant(0, expected)


def test_n_sets_match_P():
    for n in range(2, 8):
        p = build_P(n)
        for I in proper_subsets(n):
            J = frozenset((i + 1) % n for i in I)
            for sets, contained in ((n_sets(n, I), J), (m_sets(n, J), I)):
                expected = {
                    k: [X for X in layer if contained <= X]
                    for k, layer in p.items()
                }
                assert sets == {k: v for k, v in expected.items() if v}
