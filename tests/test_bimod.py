import importlib
import itertools
import pkgutil
import random
from fractions import Fraction

import pytest

import affhecke
from affhecke import bimod
from affhecke.bimod import (
    Morphism,
    basis_degree,
    crossing,
    crossing_core,
    distant,
    enddot,
    enddot_core,
    eps_sign,
    identity_word,
    is_bimodule_map,
    left_mult,
    left_mult_matrix,
    merge,
    merge_core,
    rank,
    rex_move,
    right_mult,
    signed_dot,
    split,
    split_core,
    startdot,
    startdot_core,
    tensor,
    theta,
    xi,
)
from affhecke.complexes import build_F
from affhecke.hecke import kl_basis
from affhecke.homalg import BimoduleArithmetic
from affhecke.polymat import Matrix
from affhecke.rings import RingElement, demazure, simple_root
from affhecke.suites import proper_subsets
from affhecke.weyl import longest_element, preferred_word
from bimodule_bases import adjoint, dense, gram_matrix, sparse, stores_no_zero


def rand_poly(rng, n, deg=2):
    out = RingElement.zero(n)
    for _ in range(3):
        mono = [0] * (n + 1)
        for _ in range(rng.randint(0, deg)):
            mono[rng.randrange(n + 1)] += 1
        out = out + RingElement(n, {tuple(mono): Fraction(rng.randint(-3, 3))})
    return out


def test_basis_degrees():
    from affhecke.rings import LaurentPoly, gauss

    # B_s has graded rank v + v^-1: basis degrees -1 and +1
    assert basis_degree((1,), 0) == -1
    assert basis_degree((1,), 1) == 1
    assert sorted(basis_degree((1, 2), m) for m in range(4)) == [-2, 0, 0, 2]
    assert basis_degree((), 0) == 0
    # graded-rank oracle: sum of v^deg over the basis = (v+v^-1)^length
    for word in ((), (1,), (0, 2), (2, 1, 0)):
        total = LaurentPoly.zero()
        for mask in range(rank(word)):
            total = total + LaurentPoly.v(basis_degree(word, mask))
        expected = LaurentPoly.one()
        for _ in word:
            expected = expected * gauss(2)
        assert total == expected


def test_left_action_forcing():
    # f.(-) = (-).s(f) + broken.d(f) on B_s
    from affhecke.rings import act_simple

    rng = random.Random(0)
    for n in (2, 3):
        for i in range(n):
            f = rand_poly(rng, n)
            lhs = left_mult(n, (i,), f)
            broken = startdot_core(n, i).compose(enddot_core(n, i))
            rhs = Morphism.identity(n, (i,)).scale(act_simple(i, f)) + broken.scale(
                demazure(i, f)
            )
            assert (lhs - rhs).is_zero()


def test_left_right_commute():
    rng = random.Random(1)
    for n in (2, 3):
        word = (1, 0) if n == 2 else (2, 0)
        f, g = rand_poly(rng, n), rand_poly(rng, n)
        lf = left_mult(n, word, f)
        rg = right_mult(n, word, g)
        assert (lf.compose(rg) - rg.compose(lf)).is_zero()


def test_barbell_and_broken():
    for n in (2, 3):
        for i in range(n):
            sd, ed = startdot_core(n, i), enddot_core(n, i)
            barbell = ed.compose(sd)
            assert dense(barbell.matrix)[0][0] == simple_root(n, i)
            # d^2 from R(-1) to R(1) at n=2 is delta
            if n == 2:
                total = RingElement.zero(2)
                for j in range(2):
                    barbell = enddot_core(2, j).compose(startdot_core(2, j))
                    total = total + dense(barbell.matrix)[0][0]
                assert total == RingElement.delta(2)


def test_generators_are_bimodule_maps():
    for n in (2, 3):
        for i in range(n):
            assert is_bimodule_map(startdot_core(n, i))
            assert is_bimodule_map(enddot_core(n, i))
            assert is_bimodule_map(merge_core(n, i))
            assert is_bimodule_map(split_core(n, i))
    assert is_bimodule_map(crossing_core(4, 0, 2))


def left_commutator(mor, f):
    n = mor.n
    return left_mult(n, mor.tgt, f).compose(mor) - mor.compose(left_mult(n, mor.src, f))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_invariant_commutators_vanish(n):
    # why is_bimodule_map tests x_1..x_{n-1} only: on any right-linear map,
    # bimodule map or not, delta commutes and the x_n commutator is minus
    # the sum of the others
    rng = random.Random(f"commutators/{n}")
    for _ in range(25):
        src, tgt = (
            tuple(rng.randrange(n) for _ in range(rng.randint(0, 2))) for _ in range(2)
        )
        matrix = [
            [rand_poly(rng, n, deg=1) for _ in range(2 ** len(src))]
            for _ in range(2 ** len(tgt))
        ]
        mor = Morphism(n, src, tgt, sparse(matrix), check=False)
        assert left_commutator(mor, RingElement.delta(n)).is_zero()
        total = left_commutator(mor, RingElement.x(n, n))
        for i in range(1, n):
            total = total + left_commutator(mor, RingElement.x(n, i))
        assert total.is_zero()


def test_perturbed_generator_is_not_a_bimodule_map():
    for n in (2, 3):
        for i in range(n):
            for core in (startdot_core, enddot_core, merge_core, split_core):
                mor = core(n, i)
                matrix = [list(row) for row in dense(mor.matrix)]
                r, c = next(
                    (r, c)
                    for r, row in enumerate(matrix)
                    for c, entry in enumerate(row)
                    if not entry.is_zero()
                )
                matrix[r][c] = matrix[r][c] * RingElement.x(n, 1)
                perturbed = Morphism(n, mor.src, mor.tgt, sparse(matrix), check=False)
                assert not is_bimodule_map(perturbed), (core.__name__, n, i)


def test_degrees():
    n = 3
    assert startdot_core(n, 1).degree == 1
    assert enddot_core(n, 1).degree == 1
    assert merge_core(n, 1).degree == -1
    assert split_core(n, 1).degree == -1
    assert crossing_core(n + 1, 0, 2).degree == 0
    composite = enddot_core(n, 1).compose(startdot_core(n, 1))
    assert composite.degree == 2


def test_unit_and_associativity():
    n = 2
    i = 1
    m = merge_core(n, i)
    unit = m.compose(tensor(startdot_core(n, i), Morphism.identity(n, (i,))))
    assert unit == Morphism.identity(n, (i,))
    # associativity of merges on B_i B_i B_i
    m_left = merge(n, (i, i), 0)
    first = m.compose(merge(n, (i, i, i), 0))
    second = m.compose(merge(n, (i, i, i), 1))
    assert first == second


def test_needle_and_decomposition():
    n = 2
    i = 0
    m, sp = merge_core(n, i), split_core(n, i)
    assert m.compose(sp).is_zero()
    sd, ed = startdot_core(n, i), enddot_core(n, i)
    id1 = Morphism.identity(n, (i,))
    id2 = Morphism.identity(n, (i, i))
    e_plus = sp.compose(tensor(id1, ed))
    assert e_plus.compose(e_plus) == e_plus
    iota_minus = (id2 - e_plus).compose(tensor(id1, sd))
    assert m.compose(iota_minus) == id1
    assert tensor(id1, ed).compose(sp) == id1
    assert (e_plus + iota_minus.compose(m)) == id2
    assert tensor(id1, ed).compose(iota_minus).is_zero()


def test_crossing_naturality():
    n = 4
    c = crossing_core(n, 0, 2)
    assert crossing_core(n, 2, 0).compose(c) == Morphism.identity(n, (0, 2))
    # dots slide through the crossing
    lhs = c.compose(startdot(n, (2,), 0, 0))
    rhs = startdot(n, (2,), 1, 0)
    assert lhs == rhs
    # polynomials slide (naturality of left action)
    rng = random.Random(2)
    f = rand_poly(rng, n)
    assert (left_mult(n, (2, 0), f).compose(c) - c.compose(left_mult(n, (0, 2), f))).is_zero()


def test_rex_moves():
    n = 5
    sign, mor = rex_move(n, (3, 1), (1, 3))
    assert sign == -1
    assert mor == crossing_core(n, 3, 1)
    # two rex moves with equal endpoints are equal (crossing-only): compose
    # a route through a third word with the direct route
    sign2, mor2 = rex_move(6, (0, 2, 4), (4, 2, 0))
    signa, mora = rex_move(6, (0, 2, 4), (2, 4, 0))
    signb, morb = rex_move(6, (2, 4, 0), (4, 2, 0))
    assert sign2 == signa * signb and mor2 == morb.compose(mora)
    assert theta(n, (3, 1), (3, 1)) == Morphism.identity(n, (3, 1))
    with pytest.raises(ValueError):
        rex_move(4, (0, 1), (1, 0))


def test_preferred_words():
    assert preferred_word(4, {1, 3}) == (3, 1)
    assert preferred_word(4, {0, 2}) == (0, 2)
    assert preferred_word(4, {1, 2, 3}) == (3, 2, 1)
    assert preferred_word(4, {0, 1, 2}) == (2, 1, 0)
    assert preferred_word(4, {0, 1, 3}) == (1, 0, 3)
    assert preferred_word(4, {0, 2, 3}) == (0, 3, 2)
    assert preferred_word(3, ()) == ()


def test_signed_dot_examples():
    # X = empty: plus startdot, any color
    for n in (2, 3):
        for i in range(n):
            assert signed_dot(n, frozenset(), frozenset({i})) == startdot(n, (), 0, i)
    # the distant pair: words 02 vs 20 induce the same map (0, 2 distant
    # needs n >= 4)
    n = 4
    dot = signed_dot(n, frozenset({0}), frozenset({0, 2}))
    via_02 = -tensor(Morphism.identity(n, (0,)), startdot_core(n, 2))
    assert dot == via_02
    # through the other word: +(startdot_2 (x) id_0) conjugated by theta
    plus = tensor(startdot_core(n, 2), Morphism.identity(n, (0,)))
    conj = theta(n, (2, 0), preferred_word(n, {0, 2})).compose(plus)
    assert dot == conj


def test_signed_dot_degree_and_duality():
    n = 3
    for X in proper_subsets(n):
        for i in range(n):
            if i in X or len(X) + 1 >= n:
                continue
            Y = X | {i}
            up = signed_dot(n, X, Y)
            down = signed_dot(n, Y, X)
            assert up.degree == 1 and down.degree == 1
            assert adjoint(up) == down
            assert adjoint(down) == up


def test_not_same_sign_identities_matrix():
    # composite signed dots through the two intermediates are negatives
    for n in (2, 3, 4):
        for X in proper_subsets(n):
            outside = [i for i in range(n) if i not in X]
            for i, j in itertools.combinations(outside, 2):
                if len(X) + 2 >= n:
                    continue
                Y = X | {i, j}
                upup_i = signed_dot(n, X | {i}, Y).compose(signed_dot(n, X, X | {i}))
                upup_j = signed_dot(n, X | {j}, Y).compose(signed_dot(n, X, X | {j}))
                assert (upup_i + upup_j).is_zero()
                dndn_i = signed_dot(n, X | {i}, X).compose(signed_dot(n, Y, X | {i}))
                dndn_j = signed_dot(n, X | {j}, X).compose(signed_dot(n, Y, X | {j}))
                assert (dndn_i + dndn_j).is_zero()
                updn = signed_dot(n, Y, X | {j}).compose(signed_dot(n, X | {i}, Y))
                dnup = signed_dot(n, X, X | {j}).compose(signed_dot(n, X | {i}, X))
                assert (updn + dnup).is_zero()


@pytest.mark.parametrize("n", range(2, 9))
def test_not_same_sign_identities_eps_only(n):
    for X in proper_subsets(n):
        outside = [i for i in range(n) if i not in X]
        for i, j in itertools.combinations(outside, 2):
            if len(X) + 2 >= n:
                continue
            Y = X | {i, j}
            lhs = eps_sign(n, X | {i}, Y) * eps_sign(n, X, X | {i})
            rhs = eps_sign(n, X | {j}, Y) * eps_sign(n, X, X | {j})
            assert lhs == -rhs


@pytest.mark.parametrize("n", (3, 4, 5))
def test_eps_sign_reduces_indices_mod_n(n):
    for X in proper_subsets(n):
        for i in range(n):
            if i in X or len(X) + 1 >= n:
                continue
            Y = X | {i}
            shifted = eps_sign(
                n, frozenset(x + n for x in X), frozenset(y + n for y in Y)
            )
            assert shifted == eps_sign(n, X, Y)


def test_eps_sign_rejects_non_adjacent_pairs():
    bad = [
        (frozenset({0}), frozenset({0, 1, 2})),  # two indices added
        (frozenset({0}), frozenset({1})),        # not a subset
        (frozenset({0, 1}), frozenset({0})),     # removed, not added
        (frozenset({1}), frozenset({5})),        # {5} is {1} mod 4
    ]
    for X, Y in bad:
        # exceptions are not cached, so a repeated call raises again
        for _ in range(2):
            with pytest.raises(ValueError):
                eps_sign(4, X, Y)


def test_same_lemma():
    # sum of double dots = delta . id on B_X for |X| <= n-2
    for n in (2, 3, 4):
        delta_id = RingElement.delta(n)
        for X in proper_subsets(n):
            if len(X) > n - 2:
                continue
            word = preferred_word(n, X)
            total = Morphism.zero(n, word, word)
            for i in range(n):
                if i not in X:
                    term = signed_dot(n, X | {i}, X).compose(signed_dot(n, X, X | {i}))
                else:
                    term = signed_dot(n, X - {i}, X).compose(signed_dot(n, X, X - {i}))
                total = total + term
            expected = Morphism.identity(n, word).scale(delta_id)
            assert (total - expected).is_zero(), sorted(X)


def test_tensor_degree_additivity():
    n = 3
    a = startdot_core(n, 1)
    b = enddot_core(n, 2)
    t = tensor(a, b)
    assert t.degree == 2
    assert is_bimodule_map(t)


def test_composition_endpoint_mismatch():
    n = 2
    with pytest.raises(ValueError):
        startdot_core(n, 1).compose(startdot_core(n, 0))
    with pytest.raises(ValueError):
        startdot_core(n, 1) + enddot_core(n, 1)


def test_compose_is_the_one_pair_compose_sum():
    # the one-pair path builds no list or set, and keeps the rule and the
    # refusal of the many-pair path
    n = 3
    for f, g in ((merge_core(n, 2), split_core(n, 2)), (enddot_core(n, 1), startdot_core(n, 1)),
                 (merge(n, (1, 1, 2), 0), tensor(startdot_core(n, 1), identity_word(n, (1, 2))))):
        one = f.compose(g)
        two = bimod.compose_sum(((f, g), (f, g)))
        assert bimod.compose_sum(((f, g),)) == one
        assert (one.src, one.tgt, one.degree) == (two.src, two.tgt, two.degree) == (
            g.src, f.tgt, f.degree + g.degree)
        assert one + one == two
    f, g, h = merge_core(n, 2), split_core(n, 2), startdot_core(n, 1)
    message = r"^composition mismatch: \(1,\) then \(2, 2\)$"
    for call in (lambda: f.compose(h), lambda: bimod.compose_sum(((f, h),)),
                 lambda: bimod.compose_sum(((f, g), (f, h)))):
        with pytest.raises(ValueError, match=message):
            call()


def test_gram_and_adjoint_involution():
    n = 3
    g = dense(gram_matrix(n, (1, 2)))
    assert g[0][3] == RingElement.one(n) or g[3][0] == RingElement.one(n)
    for mor in (startdot_core(n, 0), merge_core(n, 2), split_core(n, 1)):
        assert adjoint(adjoint(mor)) == mor


def test_xi_demazure_normalization():
    for n in (2, 3, 4):
        for i in range(n):
            assert demazure(i, xi(n, i)) == RingElement.one(n)


def _left_mult_reference(n, word, f):
    """The recursive forcing without a memo: the oracle for left_mult_matrix."""
    if not word:
        return ((f,),)
    i = word[0] % n
    rest = word[1:]
    x = xi(n, i)
    blocks = {}
    for eps, g in ((0, f), (1, f * x)):
        q = demazure(i, g)
        p = g - x * q
        blocks[(0, eps)] = _left_mult_reference(n, rest, p)
        blocks[(1, eps)] = _left_mult_reference(n, rest, q)
    half = 1 << len(rest)
    out = [[None] * (2 * half) for _ in range(2 * half)]
    for (row_bit, col_bit), block in blocks.items():
        for r in range(half):
            for c in range(half):
                out[row_bit * half + r][col_bit * half + c] = block[r][c]
    return tuple(tuple(row) for row in out)


def _forcing_inputs(rng, n):
    """0, a constant, each x_i, delta and two mixed-degree sums."""
    fs = [RingElement.zero(n), RingElement.constant(n, Fraction(rng.randint(1, 5), 3))]
    fs += [RingElement.x(n, i) for i in range(1, n + 1)]
    fs.append(RingElement.delta(n))
    fs += [rand_poly(rng, n) + RingElement.one(n) for _ in range(2)]
    return fs


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_left_mult_matrix_matches_uncached_forcing(n):
    rng = random.Random(100 + n)
    fs = _forcing_inputs(rng, n)
    words = [w for k in range(5) for w in itertools.product(range(n), repeat=k)]
    for idx, word in enumerate(words):
        f = fs[idx % len(fs)]
        assert dense(left_mult_matrix(n, word, f)) == _left_mult_reference(n, word, f), (word, f)
    for word in ((), (0,), tuple(range(n))[:4]):
        for f in fs:
            assert dense(left_mult_matrix(n, word, f)) == _left_mult_reference(n, word, f)


def test_left_mult_matrix_repeat_and_list_word():
    n = 4
    f = rand_poly(random.Random(7), n) + RingElement.x(n, 2)
    first = left_mult_matrix(n, (1, 0, 3), f)
    assert isinstance(first, Matrix) and all(isinstance(row, dict) for row in first.rows)
    assert left_mult_matrix(n, (1, 0, 3), f) == first
    assert left_mult_matrix(n, [1, 0, 3], f) == first
    # letters are read mod n
    assert left_mult_matrix(n, [5, 4, -1], f) == first


def _tensor_reference(a, b):
    """a (x) b cell by cell, independently of whiskering: each entry f of a
    is forced across b.tgt by left multiplication, and the product with b is
    accumulated per target cell."""
    n = a.n
    rb_s, rb_t = bimod.rank(b.src), bimod.rank(b.tgt)
    b_rows = [[(cb, y) for cb, y in enumerate(row) if y.terms] for row in dense(b.matrix)]
    zero = RingElement.zero(n)
    cells = {}
    for ra, rowa in enumerate(dense(a.matrix)):
        for ca, f in enumerate(rowa):
            if f.is_zero():
                continue
            for rb, lf_row in enumerate(dense(left_mult_matrix(n, b.tgt, f))):
                for mid, coeff in enumerate(lf_row):
                    if not coeff.terms:
                        continue
                    for cb, entry in b_rows[mid]:
                        key = (ra * rb_t + rb, ca * rb_s + cb)
                        cells[key] = cells.get(key, zero) + coeff * entry
    out = [[zero] * (bimod.rank(a.src) * rb_s) for _ in range(bimod.rank(a.tgt) * rb_t)]
    for (r, c), value in cells.items():
        out[r][c] = value
    deg = None
    if a.degree is not None and b.degree is not None:
        deg = a.degree + b.degree
    return Morphism(n, a.src + b.src, a.tgt + b.tgt, sparse(out), deg, check=False)


def _random_morphism(rng, n):
    """A morphism between random words of length 0..3 with random entries:
    rarely a bimodule map or homogeneous, sometimes zero, and of any stated
    degree or none."""
    src, tgt = (tuple(rng.randrange(n) for _ in range(rng.randint(0, 3))) for _ in "st")
    density = rng.choice((0, 0.5, 1))
    matrix = [
        [
            rand_poly(rng, n) if rng.random() < density else RingElement.zero(n)
            for _ in range(bimod.rank(src))
        ]
        for _ in range(bimod.rank(tgt))
    ]
    degree = rng.choice((None, -2, 0, 1, 3))
    return Morphism(n, src, tgt, sparse(matrix), degree, check=False)


def _whisker_reference(n, word, p, core, width):
    """id_{word[:p]} (x) core (x) id_{word[p + width:]} by two cell-by-cell
    tensor products."""
    left = identity_word(n, word[:p])
    right = identity_word(n, word[p + width:])
    return _tensor_reference(_tensor_reference(left, core), right)


def _assert_same_morphism(got, expected):
    assert got == expected
    assert got.degree == expected.degree


@pytest.mark.parametrize("n", (2, 3, 4))
def test_tensor_matches_cellwise_reference(n):
    rng = random.Random(100 + n)
    for _ in range(30):
        a, b = _random_morphism(rng, n), _random_morphism(rng, n)
        _assert_same_morphism(tensor(a, b), _tensor_reference(a, b))
    # generators, which are bimodule maps, in both orders
    for i in range(n):
        for core in (startdot_core(n, i), enddot_core(n, i), merge_core(n, i), split_core(n, i)):
            other = startdot_core(n, (i + 1) % n)
            for a, b in ((core, other), (other, core)):
                _assert_same_morphism(tensor(a, b), _tensor_reference(a, b))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_whiskered_generators_match_tensor_products(n):
    words = {s.label for s in build_F(n, "bimodule").summands}
    for word in sorted(words):
        for p in range(len(word) + 1):
            for i in range(n):
                _assert_same_morphism(
                    startdot(n, word, p, i),
                    _whisker_reference(n, word, p, startdot_core(n, i), 0),
                )
        for p in range(len(word)):
            _assert_same_morphism(
                enddot(n, word, p), _whisker_reference(n, word, p, enddot_core(n, word[p]), 1)
            )
            sp = split(n, word, p)
            _assert_same_morphism(sp, _whisker_reference(n, word, p, split_core(n, word[p]), 1))
            _assert_same_morphism(
                merge(n, sp.tgt, p),
                _whisker_reference(n, sp.tgt, p, merge_core(n, word[p]), 2),
            )
        for p in range(len(word) - 1):
            if distant(n, word[p], word[p + 1]):
                _assert_same_morphism(
                    crossing(n, word, p),
                    _whisker_reference(
                        n, word, p, crossing_core(n, word[p], word[p + 1]), 2
                    ),
                )


def test_signed_dot_is_forced_once_per_pair():
    # F_5 asks for 320 signed dots between 150 distinct (X, Y) pairs
    signed_dot.cache_clear()
    build_F(5, "bimodule")
    info = signed_dot.cache_info()
    assert (info.misses, info.hits) == (150, 170)


def test_every_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(affhecke.__path__):
        module = importlib.import_module(f"affhecke.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                caches[f"{info.name}.{name}"] = value
    assert {"bimod._forced", "bimod.eps_sign", "bimod.signed_dot", "hecke._is_tau_suffix",
            "hecke._kl_basis", "hecke._stepped_by_b", "rings._laurent_text",
            "weyl._longest_element", "weyl._preferred_word", "weyl._reduced_word",
            "weyl._tau_components"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name
    build_F(6, "bimodule")
    kl_basis(longest_element(5, {0, 1, 2, 3}))
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, name

def test_cancelling_morphism_operations_store_no_zero_cell():
    # every operation that can cancel drops the cell instead of storing 0
    n = 3
    ar = BimoduleArithmetic(n)
    delta = RingElement.delta(n)
    rng = random.Random(37)
    for i in range(n):
        dot = startdot_core(n, i)
        mor = _random_morphism(rng, n)
        cancelled = [mor + (-mor), mor - mor, mor.scale(0), mor.scale(RingElement.zero(n))]
        # [1, -(alpha_i - xi_i)] after the startdot: the two paths cancel
        alpha = dense(dot.matrix)[0][0]
        undo = Morphism(n, (i,), (), sparse(((RingElement.one(n), -alpha),)), check=False)
        cancelled.append(undo.compose(dot))
        # identity times delta vanishes at delta = 0
        word = tuple(rng.randrange(n) for _ in range(2))
        cancelled.append(bimod.subs_delta_zero(Morphism.identity(n, word).scale(delta)))
        for m in cancelled:
            assert stores_no_zero(m.matrix) and m.is_zero()
        divided = ar.divide_delta(mor.scale(delta))
        for m in (mor + mor, mor.scale(delta), bimod.subs_delta_zero(mor), divided):
            assert stores_no_zero(m.matrix)
        assert ar.divide_delta(mor.scale(delta)) == mor
    for mu in build_F(3, "bimodule").monodromy().entries.values():
        assert stores_no_zero(mu.matrix) and not mu.is_zero()


def test_decoded_cells_that_parse_to_zero_are_not_stored():
    # "x1 - x1" and "0*x1" parse to 0, like the literal "0"
    n = 3
    ar = BimoduleArithmetic(n)
    mor = startdot(n, (1,), 0, 2)
    data = ar.encode(mor)
    assert ar.decode(data) == mor
    zeros = 0
    for row in data["matrix"]:
        for c, text in enumerate(row):
            if text == "0":
                row[c] = ("x1 - x1", "0*x1")[zeros % 2]
                zeros += 1
    assert zeros >= 2
    decoded = ar.decode(data)
    assert stores_no_zero(decoded.matrix)
    assert decoded == mor and decoded.degree == mor.degree
    # encode writes the dense text back: "0" for every absent cell
    assert ar.encode(decoded) == ar.encode(mor)
    assert sum(text == "0" for row in ar.encode(decoded)["matrix"] for text in row) == zeros
