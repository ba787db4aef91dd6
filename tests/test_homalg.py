import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from affhecke import homalg, polymat
from affhecke.bimod import (
    Morphism,
    crossing_core,
    enddot_core,
    merge_core,
    split_core,
    startdot_core,
    tensor as btensor,
)
from affhecke.complexes import build_F
from affhecke.homalg import (
    BimoduleArithmetic,
    MatrixArithmetic,
    Pseudocomplex,
    SignArithmetic,
    Summand,
    add_entries,
    compose_entries,
    one_term_complex,
)
from affhecke.polymat import mat_scale
from affhecke.rings import RingElement
from affhecke.suites import (
    ge_property_cases,
    ge_round_trip_case,
    monodromy_naturality_case,
    pitfall_case,
    random_pseudocomplex,
    simultaneous_vs_iterated_case,
    tensor_monodromy_case,
)
from bimodule_bases import dense, gram_matrix, sparse, stores_no_zero


def _kronecker_reference(f, g):
    """The Kronecker product f (x) g entry by entry."""
    out = []
    for rf in range(len(f)):
        for rg in range(len(g)):
            out.append(
                tuple(
                    f[rf][cf] * g[rg][cg]
                    for cf in range(len(f[0]))
                    for cg in range(len(g[0]))
                )
            )
    return tuple(out)


def test_matrix_tensor_is_the_kronecker_product():
    rng = random.Random(9)

    def entry(n):
        if rng.random() < 0.4:
            return RingElement.zero(n)
        return RingElement(n, {tuple(rng.randint(0, 1) for _ in range(n + 1)): rng.randint(-2, 2)})

    for _ in range(40):
        n = rng.randint(0, 2)
        ar = MatrixArithmetic(n)
        f, g = (
            tuple(tuple(entry(n) for _ in range(cols)) for _ in range(rows))
            for rows, cols in [(rng.randint(1, 3), rng.randint(1, 3)) for _ in "fg"]
        )
        product = ar.tensor(sparse(f), sparse(g))
        assert dense(product) == _kronecker_reference(f, g)
        assert stores_no_zero(product)
    # only the stored cells of f place a block: an f of no rows, which once
    # raised IndexError, has a product of no rows and f.width * g.width columns
    empty = MatrixArithmetic(0).tensor(polymat.mat_zero(0, 0, 2), polymat.mat_identity(0, 3))
    assert (len(empty.rows), empty.width) == (0, 6)


def test_two_term_identity_eliminates_to_zero():
    ar = MatrixArithmetic(0)
    one = RingElement.one(0)
    p = Pseudocomplex(
        ar,
        [Summand(0, 1, 0, 0), Summand(1, 1, 0, 1)],
        {(0, 1): sparse(((one,),))},
    )
    q, alpha, beta, h = p.gaussian_eliminate((0, 1))
    assert not q.summands
    assert alpha.is_pseudo_chain_map()


def test_ge_on_a_complex_with_survivors():
    # Q[d] pseudocomplex A, B -> C, D -> E with invertible entries A->C and
    # B->D; every entry into E is a multiple of d, so d^2 = mu.delta with
    # mu nonzero.  Eliminating either pair leaves three summands, and alpha,
    # beta and their composites have several entries.
    ar = MatrixArithmetic(0)

    def q(*coeffs):
        return sparse(((RingElement(0, {(e,): c for e, c in enumerate(coeffs)}),),))

    A, B, C, D, E = range(5)
    summands = [Summand(A, 1, 0, 0), Summand(B, 1, 0, 0), Summand(C, 1, 0, 1),
                Summand(D, 1, 0, 1), Summand(E, 1, 0, 2)]
    diff = {(A, C): q(1), (A, D): q(0, 1), (B, C): q(0, 1), (B, D): q(2),
            (C, E): q(0, 1), (D, E): q(0, 1)}
    p = Pseudocomplex(ar, summands, diff)
    assert not p.monodromy().is_zero()
    isos = [key for key, mor in sorted(p.diff.items())
            if ar.is_isomorphism(mor, p.by_sid[key[0]].label, p.by_sid[key[1]].label)]
    assert isos == [(A, C), (B, D)]
    for iso in isos:
        # the identities of suites.ge_round_trip_case
        reduced, alpha, beta, homotopy = p.gaussian_eliminate(iso)
        assert len(reduced.summands) == 3
        assert len(alpha.entries) >= 4 and len(beta.entries) >= 4
        assert alpha.compose(beta).is_identity()
        combined = dict(homalg.identity_chain_map(p).entries)
        for key, m in homotopy.nulhomotopic_map().entries.items():
            m = mat_scale(m, Fraction(-1))
            combined[key] = combined[key] + m if key in combined else m
        assert not add_entries(ar, beta.compose(alpha).entries, combined, sign=-1)
        assert alpha.is_pseudo_chain_map() and beta.is_pseudo_chain_map()
        reduced.monodromy()


def test_elimination_of_a_non_graded_invertible_entry():
    # [[1 + d^2, d], [d, 1]] has determinant 1, and its part of positive
    # degree is not nilpotent: is_isomorphism and invert must agree on it
    ar = MatrixArithmetic(0)
    one, d = RingElement.one(0), RingElement.delta(0)
    phi = sparse(((one + d * d, d), (d, one)))
    p = Pseudocomplex(ar, [Summand(0, 2, 0, 0), Summand(1, 2, 0, 1)], {(0, 1): phi})
    reduced, alpha, beta, homotopy = p.gaussian_eliminate((0, 1))
    assert not reduced.summands
    assert alpha.compose(beta).is_identity()
    # beta alpha - id = dq + qd
    expected = homalg.identity_chain_map(p).add(homotopy.nulhomotopic_map().negate())
    assert not add_entries(ar, beta.compose(alpha).entries, expected.entries, sign=-1)
    assert not p.simultaneous_eliminate([(0, 1)])[0].summands
    assert not p.minimal_complex().summands


def check_pivot_decision(ar, f, src, tgt):
    """invert(f) fails exactly when is_isomorphism(f) is False, and
    otherwise f f^-1 and f^-1 f are the identities.  Returns whether f
    inverts."""
    iso = ar.is_isomorphism(f, src, tgt)
    try:
        inverse = ar.invert(f)
    except ArithmeticError:
        assert not iso
        return False
    assert iso
    assert ar.compose(f, inverse) == ar.identity(tgt)
    assert ar.compose(inverse, f) == ar.identity(src)
    return True


def test_invert_fails_exactly_when_is_isomorphism_is_false():
    signs = SignArithmetic()
    assert [f for f in range(-2, 3) if check_pivot_decision(signs, f, None, None)] == [-1, 1]

    ar, rng = MatrixArithmetic(0), random.Random(35)
    one, d = RingElement.one(0), RingElement.delta(0)
    matrices = [sparse(m) for m in (((one + d * d, d), (d, one)), ((one, d),), ((d,), (one,)))]
    for _ in range(300):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 0.5:
            cols = rows
        matrices.append(sparse(tuple(
            tuple(RingElement(0, {(0,): rng.randint(-2, 2), (1,): rng.choice((0, 0, 1, -1))})
                  for _ in range(cols))
            for _ in range(rows)
        )))
    outcomes = {}
    for m in matrices:
        rows, cols = polymat.mat_shape(m)
        inverts = check_pivot_decision(ar, m, cols, rows)
        outcomes[rows == cols, inverts] = outcomes.get((rows == cols, inverts), 0) + 1
    assert (False, True) not in outcomes
    assert min(outcomes.values()) >= 20, outcomes

    ar = BimoduleArithmetic(4)
    dot = startdot_core(4, 1)
    bimodule = [
        Morphism.identity(4, (0, 2, 1)),
        crossing_core(4, 0, 2),
        dot, enddot_core(4, 1), dot.compose(enddot_core(4, 1)),
        merge_core(4, 3), split_core(4, 3),
    ] + [Morphism(4, w, w, gram_matrix(4, w), check=False) for w in ((1,), (1, 1), (0, 1, 3))]
    got = [check_pivot_decision(ar, f, f.src, f.tgt) for f in bimodule]
    assert got == [True, True, False, False, False, False, False, True, True, True]


def test_each_pivot_is_decided_by_one_gauss_jordan_pass(monkeypatch):
    # two pairs F_j -> F'_j with the pivot [[1 + d^2, d], [d, 1]] and the
    # non-invertible theta = d I: F_1 -> F'_2; every elimination method
    # decides and inverts each pivot with one pass of the kernel over [phi | I]
    ar = MatrixArithmetic(0)
    one, d, zero = RingElement.one(0), RingElement.delta(0), RingElement.zero(0)
    phi = sparse(((one + d * d, d), (d, one)))
    F1, F2, Fp1, Fp2 = range(4)
    summands = [Summand(F1, 2, 0, 0), Summand(F2, 2, 0, 0),
                Summand(Fp1, 2, 0, 1), Summand(Fp2, 2, 0, 1)]
    diff = {(F1, Fp1): phi, (F2, Fp2): phi, (F1, Fp2): sparse(((d, zero), (zero, d)))}
    p = Pseudocomplex(ar, summands, diff)
    passes = []
    kernel = polymat._gauss_jordan

    def counted(a, inverse):
        passes.append(inverse)
        return kernel(a, inverse)

    monkeypatch.setattr(polymat, "_gauss_jordan", counted)
    for eliminate, pivots in (
        (lambda: p.gaussian_eliminate((F1, Fp1))[0], 1),
        (lambda: p.simultaneous_eliminate([(F1, Fp1), (F2, Fp2)])[0], 2),
        (p.minimal_complex, 2),
    ):
        passes.clear()
        assert len(eliminate().summands) == 4 - 2 * pivots
        assert passes == [True] * pivots


def test_pitfall():
    assert pitfall_case()


def test_randomized_ge_batteries():
    rng = random.Random(42)
    for _ in range(60):
        assert ge_round_trip_case(rng)
    for _ in range(30):
        assert monodromy_naturality_case(rng)
    for _ in range(40):
        assert simultaneous_vs_iterated_case(rng)
    for _ in range(20):
        assert tensor_monodromy_case(rng)


def test_ge_round_trip_fails_without_the_homotopy(monkeypatch):
    # with dh + hd zeroed, beta alpha = id must fail on every case that
    # eliminates something; most seeded cases are vacuous, so draw many
    def zero(self):
        return homalg.ChainMap(self.src, self.tgt, {}, 0)

    monkeypatch.setattr(homalg.Homotopy, "nulhomotopic_map", zero)
    rng = random.Random(0)
    assert not all(ge_round_trip_case(rng) for _ in range(200))


def test_monodromy_naturality_fails_without_nu(monkeypatch):
    def zero(self):
        return homalg.ChainMap(self.src, self.tgt, {}, self.degree_shift + 1)

    monkeypatch.setattr(homalg.ChainMap, "nu", zero)
    rng = random.Random(0)
    assert not all(monodromy_naturality_case(rng) for _ in range(200))


def test_self_loop_is_refused():
    # why split_summand needs no self-loop guard of its own
    summands = [Summand(0, frozenset(), 0, 0)]
    with pytest.raises(ValueError, match="^differential entry 0->0 does not raise degree by 1$"):
        Pseudocomplex(SignArithmetic(), summands, {(0, 0): 1})


@pytest.mark.parametrize("mor", (0, 1))
def test_dangling_summand_id_is_named(mor):
    # a zero entry is checked too, before it is dropped
    summands = [Summand(0, frozenset(), 0, 0), Summand(1, frozenset({0}), 0, 1)]
    with pytest.raises(ValueError, match="^differential entry 0->99 names no summand$"):
        Pseudocomplex(SignArithmetic(), summands, {(0, 1): 1, (0, 99): mor})


def test_monodromy_error_names_entry():
    ar = MatrixArithmetic(0)
    one = RingElement.one(0)
    p = Pseudocomplex(
        ar,
        [Summand(0, 1, 0, 0), Summand(1, 1, 0, 1), Summand(2, 1, 0, 2)],
        {(0, 1): sparse(((one,),)), (1, 2): sparse(((one,),))},
    )
    # the engine's prefix names the entry, polymat's reason the cell
    with pytest.raises(
        ValueError, match=r"^d\^2 entry 0->2 is not divisible by delta: cell \(0, 0\) has a term without d$"
    ):
        p.monodromy()


def test_sign_monodromy_error_names_entry():
    summands = [Summand(0, "A", 0, 0), Summand(1, "B", 0, 1), Summand(2, "C", 0, 2)]
    p = Pseudocomplex(SignArithmetic(), summands, {(0, 1): 1, (1, 2): -1})
    with pytest.raises(ValueError, match="^d\\^2 entry 0->2 is not divisible by delta: "):
        p.monodromy()


def test_monodromy_lets_a_fault_in_divide_delta_through(monkeypatch):
    # only ArithmeticError means "not divisible"; any other error is a fault
    def broken(self, f):
        raise AttributeError("fault")

    monkeypatch.setattr(SignArithmetic, "divide_delta", broken)
    summands = [Summand(0, "A", 0, 0), Summand(1, "B", 0, 1), Summand(2, "C", 0, 2)]
    p = Pseudocomplex(SignArithmetic(), summands, {(0, 1): 1, (1, 2): 1})
    with pytest.raises(AttributeError, match="^fault$"):
        p.monodromy()


def test_zero_complex_monodromy():
    ar = MatrixArithmetic(0)
    p = Pseudocomplex(ar, [Summand(0, 2, 0, 0)], {})
    assert p.monodromy().is_zero()


def test_tensor_with_the_one_term_unit_changes_nothing():
    rng = random.Random(5)
    p = random_pseudocomplex(rng, max_rank=2, degrees=(0, 1))
    t = homalg.tensor(one_term_complex(p.arithmetic, 1), p)
    t.monodromy()
    assert len(t.summands) == len(p.summands)
    assert len(t.diff) == len(p.diff)


def summand_graph_components(p):
    """Connected components of the summand graph (edges at nonzero d)."""
    parent = {s.sid: s.sid for s in p.summands}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in p.diff:
        parent[find(a)] = find(b)
    groups = {}
    for s in p.summands:
        groups.setdefault(find(s.sid), []).append(s.sid)
    return sorted(sorted(g) for g in groups.values())


def test_perversity_and_graph():
    # F is perverse, multiplicity free, and its summand graph is connected
    f = build_F(3)
    assert all(s.shift == s.degree for s in f.summands)
    assert len({(repr(s.label), s.degree) for s in f.summands}) == len(f.summands)
    assert len(summand_graph_components(f)) == 1
    # direct sum of two shifted identities has a disconnected graph
    ar = SignArithmetic()
    p = Pseudocomplex(
        ar,
        [Summand(0, frozenset(), 0, 0), Summand(1, frozenset(), 2, 2)],
        {},
    )
    assert summand_graph_components(p) == [[0], [1]]


def test_perverse_complexes_admit_no_homotopies():
    # all candidate homotopy slots between perverse complexes have negative
    # degree, hence the search space is empty
    f = build_F(3, "bimodule")
    for a in f.summands:
        for b in f.summands:
            if b.degree != a.degree - 1:
                continue
            # a degree-0 map would need morphism degree shift(b) - shift(a) = -1
            assert b.shift - a.shift == -1 < 0


def split_pieces(n, s):
    """The splitting B_s B_s = B_s(-1) + B_s(+1) as (label, shift offset,
    iota, pi) pieces for Pseudocomplex.split_summand."""
    sd, ed = startdot_core(n, s), enddot_core(n, s)
    m, sp = merge_core(n, s), split_core(n, s)
    ids = Morphism.identity(n, (s,))
    e_plus_p = btensor(ids, ed)
    iota_minus = (Morphism.identity(n, (s, s)) - sp.compose(e_plus_p)).compose(
        btensor(ids, sd)
    )
    return [((s,), -1, iota_minus, m), ((s,), +1, sp, e_plus_p)]


def bs_tensor_f(n, s, side):
    """F B_s (side "right") or B_s F (side "left") and the id of its B_s B_s
    summand."""
    f = build_F(n, "bimodule")
    bs = one_term_complex(BimoduleArithmetic(n), (s,))
    p = homalg.tensor(f, bs) if side == "right" else homalg.tensor(bs, f)
    p.monodromy()
    return p, next(x.sid for x in p.summands if tuple(x.label) == (s, s))


def test_split_summand_bimodule():
    fb1, sid = bs_tensor_f(2, 1, "right")
    minimal = fb1.split_summand(sid, split_pieces(2, 1)).minimal_complex()
    assert [(tuple(s.label), s.shift, s.degree) for s in minimal.summands] == [
        ((0, 1), 0, 0)
    ]
    # bad splitting data is rejected
    with pytest.raises(ValueError):
        fb1.split_summand(sid, split_pieces(2, 1)[:1])


def test_split_summand_refuses_a_phantom_piece():
    # B_0 B_0 in B_0 F at n = 2 as itself plus a zero piece: sum iota pi is
    # the identity, but pi iota of the zero piece is not
    p, sid = bs_tensor_f(2, 0, "left")
    word = p.by_sid[sid].label
    ident, zero = Morphism.identity(2, word), Morphism.zero(2, word, word)
    with pytest.raises(ValueError, match=r"pieces 1, 1"):
        p.split_summand(sid, [(word, 0, ident, ident), (word, 0, zero, zero)])
    with pytest.raises(ValueError, match="sum to the identity"):
        p.split_summand(sid, [])


def test_compose_entries_refuses_mismatched_bimodule_paths():
    n = 3
    ar = BimoduleArithmetic(n)
    up, down = startdot_core(n, 1), enddot_core(n, 1)
    empty = Morphism.identity(n, ())
    # () -> (1,) -> () has degree 2 and () -> () -> () degree 0
    with pytest.raises(ValueError, match="different degrees"):
        compose_entries(ar, {(1, 3): down, (2, 3): empty}, {(0, 1): up, (0, 2): empty})
    # both paths end at summand 3, once as () and once as (1,)
    with pytest.raises(ValueError, match="mismatched endpoints"):
        compose_entries(ar, {(1, 3): down, (2, 3): up}, {(0, 1): up, (0, 2): empty})
    # the entries do not compose: (2,) is not (1,), refused as by compose
    with pytest.raises(ValueError, match=r"^composition mismatch: \(1,\) then \(2,\)$"):
        compose_entries(ar, {(1, 2): enddot_core(n, 2)}, {(0, 1): up})


def test_compose_entries_sums_repeated_paths_with_multiplicity():
    # a -> b1 -> c and a -> b2 -> c made of the same two objects are two
    # paths: the memo keys on the pairs in order, not on the set of them
    n = 3
    ar = BimoduleArithmetic(n)
    up, down = startdot_core(n, 1), enddot_core(n, 1)
    once = down.compose(up)
    earlier = {(0, 1): up, (0, 2): up, (4, 1): up, (5, 2): up}
    got = compose_entries(ar, {(1, 3): down, (2, 3): down}, earlier)
    assert got[(0, 3)] == once + once and got[(4, 3)] == once
    # rows 4 and 5 sum the same product through different b: one morphism
    assert got[(5, 3)] is got[(4, 3)]
    # the memo lives for one call only
    assert compose_entries(ar, {(1, 3): down}, {(4, 1): up})[(4, 3)] is not got[(4, 3)]


def test_d_squared_sums_each_distinct_product_once(monkeypatch):
    # a signed dot sits in several degrees of F_5, so its 529 sums of d^2
    # are only 306 distinct sequences of (second, first) morphisms
    f = build_F(5, "bimodule")
    by_src = {}
    for a, b in f.diff:
        by_src.setdefault(a, []).append(b)
    sums = {(a, c) for a, b in f.diff for c in by_src.get(b, ())}
    assert len(sums) == 529
    calls = []
    mul_sum = polymat.mat_mul_sum

    def counted(pairs):
        calls.append(len(pairs))
        return mul_sum(pairs)

    monkeypatch.setattr(polymat, "mat_mul_sum", counted)
    d2 = f.d_squared()
    assert len(calls) == 306
    monkeypatch.setattr(polymat, "mat_mul_sum", mul_sum)
    oracle, _ = pairwise_compose(f.arithmetic, f.diff, f.diff)
    assert d2.keys() == oracle.keys() and all(d2[k] == oracle[k] for k in d2)


def contents(p):
    """The summands and differential entries of a complex, for comparing
    complexes over the matrix arithmetic, which are not serialized."""
    return p.summands, p.diff


def rescan_minimal_complex(p):
    """Iterated gaussian_eliminate in the order of minimal_complex, found by
    rescanning every entry after each step: the invertible entry with the
    least (degree, source, target) goes first."""
    current = p
    while True:
        ar = current.arithmetic
        keys = [
            (current.by_sid[a].degree, a, b)
            for (a, b), mor in current.diff.items()
            if ar.is_isomorphism(
                mor, current.by_sid[a].label, current.by_sid[b].label
            )
        ]
        if not keys:
            return current
        _, a, b = min(keys)
        current = current.gaussian_eliminate((a, b))[0]


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_minimal_complex_matches_rescan_sign(n):
    p = build_F(n)
    assert p.minimal_complex().to_json(n) == rescan_minimal_complex(p).to_json(n)


def test_minimal_complex_eliminates_written_isomorphisms():
    # eliminating F -> F' writes the new invertible entry B -> C = -1, which
    # has to be eliminated in turn
    F, B, Fp, C = range(4)
    summands = [Summand(F, "F", 0, 0), Summand(B, "B", 0, 0),
                Summand(Fp, "F'", 0, 1), Summand(C, "C", 0, 1)]
    p = Pseudocomplex(SignArithmetic(), summands,
                      {(F, Fp): 1, (B, Fp): 1, (F, C): 1})
    assert p.gaussian_eliminate((F, Fp))[0].diff == {(B, C): -1}
    assert not p.minimal_complex().summands
    assert not rescan_minimal_complex(p).summands


def test_minimal_complex_eliminates_lowest_degree_first():
    # F -> F' -> G with both entries invertible and ids against degree
    # order: F -> F' goes first and leaves G, not F
    G, Fp, F = range(3)
    summands = [Summand(G, "G", 0, 2), Summand(Fp, "F'", 0, 1),
                Summand(F, "F", 0, 0)]
    p = Pseudocomplex(SignArithmetic(), summands, {(F, Fp): 1, (Fp, G): 1})
    for minimal in (p.minimal_complex(), rescan_minimal_complex(p)):
        assert [s.sid for s in minimal.summands] == [G]


@pytest.mark.parametrize("s, side", ((1, "right"), (0, "left")))
def test_minimal_complex_matches_rescan_bimodule(s, side):
    # the split complexes of test_split_summand_bimodule and
    # test_complexes.test_BsF_minimal_complex_n2
    p, sid = bs_tensor_f(2, s, side)
    p = p.split_summand(sid, split_pieces(2, s))
    assert p.minimal_complex().to_json(2) == rescan_minimal_complex(p).to_json(2)


def test_minimal_complex_matches_rescan_random():
    checked = 0
    for seed in range(1000):
        p = random_pseudocomplex(random.Random(f"minimal/{seed}"))
        ar = p.arithmetic
        if not any(ar.is_isomorphism(m, None, None) for m in p.diff.values()):
            continue
        minimal = p.minimal_complex()
        assert len(minimal.summands) < len(p.summands)
        assert contents(minimal) == contents(rescan_minimal_complex(p))
        checked += 1
        if checked == 40:
            break
    assert checked == 40


class UnitDegreeSigns(SignArithmetic):
    """Sign bookkeeping where only the markers +-1 have degree 0."""

    def degree_of(self, f):
        return 0 if f in (1, -1) else 1


def test_elimination_checks_degrees_of_written_entries():
    # eliminating F -> F' writes B -> C = 1 - (-1) = 2, of degree 1 against
    # shifts 0; minimal_complex then eliminates C -> D, which removes B -> C,
    # so only the check inside the update can see it
    F, B, Fp, C, D = range(5)
    summands = [Summand(F, "F", 0, 0), Summand(B, "B", 0, 0),
                Summand(Fp, "F'", 0, 1), Summand(C, "C", 0, 1),
                Summand(D, "D", 0, 2)]
    diff = {(F, Fp): 1, (B, Fp): 1, (F, C): -1, (B, C): 1, (C, D): 1}
    p = Pseudocomplex(UnitDegreeSigns(), summands, diff)
    for eliminate in (lambda: p.gaussian_eliminate((F, Fp)), p.minimal_complex):
        with pytest.raises(ValueError, match="entry 1->3 has degree 1"):
            eliminate()


def test_json_round_trip_sign():
    f = build_F(3)
    data = json.loads(json.dumps(f.to_json(3)))
    g = Pseudocomplex.from_json(data)
    assert {(s.sid, s.label, s.shift, s.degree) for s in g.summands} == {
        (s.sid, s.label, s.shift, s.degree) for s in f.summands
    }
    assert g.diff == f.diff


def test_json_round_trip_bimodule():
    f = build_F(2, "bimodule")
    data = json.loads(json.dumps(f.to_json(2)))
    g = Pseudocomplex.from_json(data)
    assert set(g.diff) == set(f.diff)
    for key in f.diff:
        assert (g.diff[key] - f.diff[key]).is_zero()
    # d^2 check passes on the reloaded complex without rebuilding
    g.monodromy()


def test_from_json_shares_each_distinct_morphism():
    # F_5's 320 entries are 150 distinct signed dots, in the built complex
    # and in the loaded one
    f = build_F(5, "bimodule")
    g = Pseudocomplex.from_json(json.loads(json.dumps(f.to_json(5))))
    assert len({id(m) for m in f.diff.values()}) == 150
    assert len({id(m) for m in g.diff.values()}) == 150
    assert g.diff == f.diff
    assert g.d_squared() == f.d_squared()


def shared_entries(data):
    """Indices of two entries of a serialized complex with equal morphisms."""
    seen = {}
    for i, e in enumerate(data["diff"]):
        key = json.dumps(e["morphism"])
        if key in seen:
            return seen[key], i
        seen[key] = i
    raise AssertionError("no shared morphism")


def test_from_json_decodes_entries_differing_in_one_cell_apart():
    f = build_F(3, "bimodule")
    data = json.loads(json.dumps(f.to_json(3)))
    first, second = shared_entries(data)
    cells = data["diff"][second]["morphism"]["matrix"]
    r, c = next(
        (r, c) for r, row in enumerate(cells) for c, text in enumerate(row) if text != "0"
    )
    cells[r][c] = "0"
    g = Pseudocomplex.from_json(data)
    keys = [(e["from"], e["to"]) for e in (data["diff"][first], data["diff"][second])]
    one, other = (g.diff[k] for k in keys)
    assert one == f.diff[keys[0]] and other != one
    assert c not in other.matrix.cells()[r] and c in one.matrix.cells()[r]


@pytest.mark.parametrize("fault, error", (
    ("variable", ValueError), ("shape", ValueError), ("list cell", TypeError), ("no tgt", KeyError),
))
def test_from_json_refuses_a_malformed_copy_of_a_shared_entry(fault, error):
    # the copy's content differs from the decoded one, so it is decoded
    # with every check, never served from the first
    data = json.loads(json.dumps(build_F(3, "bimodule").to_json(3)))
    _, second = shared_entries(data)
    morphism = data["diff"][second]["morphism"]
    if fault == "variable":
        morphism["matrix"][0][0] = "x9"
    elif fault == "shape":
        morphism["matrix"][0].append("0")
    elif fault == "list cell":
        morphism["matrix"][0][0] = [morphism["matrix"][0][0]]
    else:
        del morphism["tgt"]
    with pytest.raises(error):
        Pseudocomplex.from_json(data)


def test_from_json_refuses_unknown_backend():
    # the matrix backend is not serialized either
    for backend in ("foo", "matrix"):
        data = {"n": 2, "backend": backend, "summands": [], "diff": []}
        with pytest.raises(ValueError, match=f"^unknown backend '{backend}'$"):
            Pseudocomplex.from_json(data)


def test_degree_validation():
    ar = BimoduleArithmetic(2)
    sd = startdot_core(2, 1)
    with pytest.raises(ValueError):
        Pseudocomplex(
            ar,
            [Summand(0, (), 0, 0), Summand(1, (1,), 5, 1)],
            {(0, 1): sd},
        )
    with pytest.raises(ValueError):
        Pseudocomplex(
            ar,
            [Summand(0, (), 0, 0), Summand(1, (1,), 1, 2)],
            {(0, 1): sd},
        )


def test_ge_suite_wrapper():
    for name, ok in ge_property_cases(seed=1, count=20):
        assert ok, name


def pairwise_compose(ar, later, earlier):
    """later o earlier by scanning every pair of entries; also returns the
    number of (a, c) whose products cancel to zero."""
    out = {}
    for (a, b), first in earlier.items():
        for (b2, c), second in later.items():
            if b2 == b:
                term = ar.compose(second, first)
                out[(a, c)] = term if (a, c) not in out else out[(a, c)] + term
    kept = {k: v for k, v in out.items() if not ar.is_zero(v)}
    return kept, len(out) - len(kept)


def random_entries(rng, ranks, sources, targets, make):
    return {
        (a, b): make(ranks[b], ranks[a])
        for a in sources
        for b in targets
        if rng.random() < 0.6
    }


def random_engine_entries(rng, backend):
    """(arithmetic, later, earlier): seeded entry dicts over the sign or the
    matrix arithmetic, with entries of `later` that `earlier` never
    reaches."""
    ranks = [rng.randint(1, 2) for _ in range(12)]
    if backend == "sign":
        ar = SignArithmetic()

        def make(rows, cols):
            return rng.choice((1, -1, 1, -1, 2))
    else:
        ar = MatrixArithmetic(0)

        def make(rows, cols):
            def entry():
                return RingElement(0, {(rng.randint(0, 1),): rng.randint(-1, 1)})

            return sparse(tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))
    a_ids, b_ids, c_ids = range(0, 4), range(4, 8), range(8, 12)
    earlier = random_entries(rng, ranks, a_ids, b_ids, make)
    later = random_entries(rng, ranks, b_ids, c_ids, make)
    later.update(random_entries(rng, ranks, c_ids, a_ids, make))
    return ar, later, earlier


def random_bimodule_entries(rng, n):
    """(arithmetic, later, earlier): two seeded draws from the differential
    of the bimodule F_n, each entry kept, negated or doubled.  An (a, c)
    two degrees up has two paths, which cancel where both keep their
    relative sign, as in d^2."""
    f = build_F(n, "bimodule")

    def draw():
        return {
            key: rng.choice((mor, mor, -mor, mor + mor))
            for key, mor in f.diff.items()
            if rng.random() < 0.8
        }

    return f.arithmetic, draw(), draw()


@pytest.mark.parametrize("backend", ("sign", "matrix", "bimodule"))
def test_compose_entries_matches_pairwise_scan(backend):
    rng = random.Random(f"compose-entries/{backend}")
    cancelled = multi_path = 0
    for trial in range(8 if backend == "bimodule" else 60):
        if backend == "bimodule":
            ar, later, earlier = random_bimodule_entries(rng, 3 + trial % 2)
        else:
            ar, later, earlier = random_engine_entries(rng, backend)
        paths = Counter(
            (a, c) for a, b in earlier for b2, c in later if b2 == b
        )
        multi_path += sum(1 for count in paths.values() if count > 1)
        expected, zeros = pairwise_compose(ar, later, earlier)
        cancelled += zeros
        got = compose_entries(ar, later, earlier)
        assert got.keys() == expected.keys()
        assert all(got[k] == expected[k] for k in got)
        assert not any(ar.is_zero(v) for v in got.values())
    assert cancelled >= 5
    assert multi_path >= 20


def reference_simultaneous_eliminate(p, pairs):
    """Simultaneous elimination by the zigzag formula, an independent oracle.

    Per degree group, every nonrepeating zigzag src -> F'_{s_0} -> F_{s_0}
    -> ... -> F_{s_last} -> tgt is enumerated over itertools.permutations,
    for every source and target of the group's degrees.  A nonzero closed
    one F_j -> F'_j refuses the family; otherwise the survivor differential
    picks up the sum over r of (-1)^r (zigzags of length r).
    """
    ar = p.arithmetic
    if not pairs:
        return p, []
    by_deg = {}
    for pair in pairs:
        by_deg.setdefault(p.by_sid[pair[0]].degree, []).append(pair)
    current, trace = p, []
    for deg in sorted(by_deg):
        group = by_deg[deg]
        m = len(group)
        f_ids = [f for f, _ in group]
        fp_ids = [fp for _, fp in group]
        phis = []
        for f_id, fp_id in group:
            phi = current.diff.get((f_id, fp_id))
            if phi is None or not ar.is_isomorphism(
                phi, current.by_sid[f_id].label, current.by_sid[fp_id].label
            ):
                raise ValueError(f"entry {f_id}->{fp_id} is not an isomorphism")
            phis.append(ar.invert(phi))
        sources = [s.sid for s in current.summands
                   if s.degree == deg and s.sid not in f_ids]
        targets = [s.sid for s in current.summands
                   if s.degree == deg + 1 and s.sid not in fp_ids]
        zz = {}
        for r in range(1, m + 1):
            for seq in itertools.permutations(range(m), r):
                core = phis[seq[0]]
                for t in range(1, r):
                    theta = current.diff.get((f_ids[seq[t - 1]], fp_ids[seq[t]]))
                    if theta is None:
                        break
                    core = ar.compose(phis[seq[t]], ar.compose(theta, core))
                else:
                    rest = [j for j in range(m) if j not in seq]
                    for src in sources + [f_ids[j] for j in rest]:
                        start = current.diff.get((src, fp_ids[seq[0]]))
                        if start is None:
                            continue
                        half = ar.compose(core, start)
                        for tgt in targets + [fp_ids[j] for j in rest]:
                            end = current.diff.get((f_ids[seq[-1]], tgt))
                            if end is not None:
                                z = ar.compose(end, half)
                                if not ar.is_zero(z):
                                    zz[(src, tgt, seq)] = z
        for (src, tgt, seq) in zz:
            if (src, tgt) in group:
                raise ValueError(
                    f"family is not independent: nonzero zigzag "
                    f"{src}->{tgt} through {seq}"
                )
        removed = set(f_ids) | set(fp_ids)
        survivors = [s for s in current.summands if s.sid not in removed]
        new_diff = {
            (a, b): mor
            for (a, b), mor in current.diff.items()
            if a not in removed and b not in removed
        }
        for (src, tgt, seq), z in zz.items():
            if src in removed or tgt in removed:
                continue
            term = z if len(seq) % 2 == 0 else -z
            cur = new_diff.get((src, tgt))
            new_diff[(src, tgt)] = term if cur is None else cur + term
        new_diff = {k: v for k, v in new_diff.items() if not ar.is_zero(v)}
        current = Pseudocomplex(ar, survivors, new_diff)
        trace.append((deg, list(group)))
    return current, trace


def random_family(rng):
    """A Q[d] pseudocomplex with a family of m = 2..4 rank-one pairs
    F_j -> F'_j in degrees 0 -> 1, theta entries F_j -> F'_k between them,
    and sometimes a second pair G -> G' in degrees 1 -> 2.

    The theta entries mostly follow a random order of the pairs, so that no
    closed zigzag can form; a back edge, added to about half the families,
    may close one.  About one pivot in 40 is the non-unit d.  Entries
    leaving degree 1 (but G -> G') and entering G or leaving degree -1 are
    multiples of d, so d^2 is divisible by d.
    """
    ar = MatrixArithmetic(0)

    def q(a, b=0):
        """a + b d"""
        return RingElement(0, {(0,): a, (1,): b})

    def mat(rows, cols, scale_d=False):
        def entry():
            a, b = rng.choices(range(-2, 3), k=2)
            return q(0, b) if scale_d else q(a, b)

        return sparse(tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))

    summands, ranks = [], {}

    def add(degree, rank=1):
        sid = len(summands)
        summands.append(Summand(sid, rank, 0, degree))
        ranks[sid] = rank
        return sid

    m = rng.randint(2, 4)
    f_ids = [add(0) for _ in range(m)]
    fp_ids = [add(1) for _ in range(m)]
    sources = [add(0, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    targets = [add(1, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    diff = {}
    for j in range(m):
        pivot = rng.choice((1, -1, 2, -3)) if rng.random() > 0.025 else 0
        diff[(f_ids[j], fp_ids[j])] = sparse(((q(pivot, 0 if pivot else 1),),))
    order = list(range(m))
    rng.shuffle(order)
    for a, j in enumerate(order):
        for k in order[a + 1:]:
            if rng.random() < 0.5:
                diff[(f_ids[j], fp_ids[k])] = mat(1, 1)
    if rng.random() < 0.5:
        a, b = sorted(rng.sample(range(m), 2))
        diff[(f_ids[order[b]], fp_ids[order[a]])] = mat(1, 1)
    for a in sources + f_ids:
        for b in targets + fp_ids:
            if (a, b) not in diff and (a in sources or b in targets) and rng.random() < 0.7:
                diff[(a, b)] = mat(ranks[b], ranks[a])
    pairs = list(zip(f_ids, fp_ids))
    if rng.random() < 0.5:
        g, gp = add(1), add(2)
        diff[(g, gp)] = sparse(((q(rng.choice((1, -1, 2))),),))
        for a in sources + f_ids:
            if rng.random() < 0.5:
                diff[(a, g)] = mat(1, ranks[a], scale_d=True)
        for a in targets + fp_ids:
            if rng.random() < 0.5:
                diff[(a, gp)] = mat(1, ranks[a], scale_d=True)
        pairs.append((g, gp))
    if rng.random() < 0.5:
        e = add(-1)
        for b in sources + f_ids:
            if rng.random() < 0.5:
                diff[(e, b)] = mat(ranks[b], 1, scale_d=True)
    rng.shuffle(pairs)
    diff = {k: v for k, v in diff.items() if not ar.is_zero(v)}
    p = Pseudocomplex(ar, summands, diff)
    p.monodromy()
    return p, pairs


def eliminate_or_refuse(eliminate, p, pairs):
    try:
        q, trace = eliminate(p, pairs)
    except ValueError as exc:
        return str(exc)
    return contents(q), trace


def test_simultaneous_eliminate_matches_zigzag_formula():
    # same survivor complexes, traces and refusal messages as the zigzag
    # formula on seeded families, many of them refused
    refused = eliminated = 0
    for seed in range(1000):
        p, pairs = random_family(random.Random(f"family/{seed}"))
        got = eliminate_or_refuse(Pseudocomplex.simultaneous_eliminate, p, pairs)
        assert got == eliminate_or_refuse(reference_simultaneous_eliminate, p, pairs)
        if isinstance(got, str):
            refused += got.startswith("family is not independent")
        else:
            eliminated += 1
    assert refused >= 100 and eliminated >= 500


def test_simultaneous_eliminate_refuses_invertible_dependent_family():
    # phi_1 = phi_2 = 1 with theta(F_1 -> F'_2) = 1 and theta(F_2 -> F'_1)
    # = 2: the block [[1, 2], [1, 1]] has determinant -1, yet the closed
    # zigzag F_1 -> F'_2 -> F_2 -> F'_1 is 2, so the family is refused
    ar = MatrixArithmetic(0)

    def c(x):
        return sparse(((RingElement.constant(0, x),),))

    F1, F2, Fp1, Fp2 = range(4)
    summands = [Summand(F1, 1, 0, 0), Summand(F2, 1, 0, 0),
                Summand(Fp1, 1, 0, 1), Summand(Fp2, 1, 0, 1)]
    diff = {(F1, Fp1): c(1), (F2, Fp2): c(1), (F1, Fp2): c(1), (F2, Fp1): c(2)}
    p = Pseudocomplex(ar, summands, diff)
    block = sparse(((RingElement.one(0), RingElement.constant(0, 2)),
                    (RingElement.one(0), RingElement.one(0))))
    assert ar.is_isomorphism(block, None, None)
    message = "family is not independent: nonzero zigzag 1->3 through (0,)"
    for eliminate in (Pseudocomplex.simultaneous_eliminate,
                      reference_simultaneous_eliminate):
        with pytest.raises(ValueError) as exc:
            eliminate(p, [(F1, Fp1), (F2, Fp2)])
        assert str(exc.value) == message
