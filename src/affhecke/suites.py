"""Exhaustive and randomized verification suites shared by CLI and tests."""

from __future__ import annotations

import itertools
import random

from . import RefusedInput, homalg
from .bimod import distant
from .homalg import MatrixArithmetic, Pseudocomplex, Summand, add_entries
from .polymat import mat_invert, mat_mul
from .rings import RingElement
from .weyl import (
    ExtendedWeylElement,
    anticyclic_word,
    correspondent_Y,
    h_of,
    longest_element,
    longest_word,
    rewrite_wIhX,
)


def proper_subsets(n):
    if n < 2:
        raise RefusedInput("n must be at least 2")
    return (
        frozenset(members)
        for size in range(n)
        for members in itertools.combinations(range(n), size)
    )


def descent_lemma_cases(n):
    """Exhaustive descent-set lemma over all proper I, X at this n.

    Checks the equivalence tau(I) <= X iff tau(I) <= right descents of
    w_I h_X; and, when it holds, length additivity, the right and left
    descent formulas, the correspondent equation w_I h_X = h_Y w_J, and (for
    n <= 5) injectivity of (I, X) -> w_I h_X on such pairs.
    """
    equivalence = True
    additivity = True
    right_formula = True
    left_formula = True
    correspondence = True
    seen = {}
    no_overlap = True
    for I in proper_subsets(n):
        J = frozenset((i + 1) % n for i in I)
        wI = longest_element(n, I)
        for X in proper_subsets(n):
            hX = h_of(n, X)
            w = wI * hX
            rd = w.right_descents()
            if (J <= X) != (J <= rd):
                equivalence = False
            if not J <= X:
                continue
            if w.length() != wI.length() + hX.length():
                additivity = False
            if rd != J | {x for x in X if (x - 1) % n not in X}:
                right_formula = False
            Y = correspondent_Y(n, I, X)
            wJ = longest_element(n, J)
            hY = h_of(n, Y)
            other = hY * wJ
            if w != other:
                correspondence = False
            if other.left_descents() != I | {
                y for y in Y if (y + 1) % n not in Y
            }:
                left_formula = False
            if n <= 5:
                if w in seen and seen[w] != (I, X):
                    no_overlap = False
                seen[w] = (I, X)
    cases = [
        ("equivalence J<=X iff J<=R(w_I h_X)", equivalence),
        ("length additivity", additivity),
        ("right descent formula", right_formula),
        ("left descent formula", left_formula),
        ("correspondent w_I h_X = h_Y w_J", correspondence),
    ]
    if n <= 5:
        cases.append(("(I,X) -> w_I h_X injective", no_overlap))
    return cases


def commutation_reachable(n, word_from, word_to):
    """Whether two words are related by distant-swap moves only.

    Greedy leftmost matching: correct for trace monoids, since equal letters
    never commute past each other.
    """
    if sorted(word_from) != sorted(word_to):
        return False
    remaining = list(word_from)
    for t in word_to:
        i = remaining.index(t)
        if any(not distant(n, remaining[j], t) for j in range(i)):
            return False
        remaining.pop(i)
    return not remaining


def rewrite_cases(n):
    """The rewriting factorization multiplies back and is reachable from the
    compatible concatenation w_I . h_X using only commutation (distant-swap)
    moves, so it keeps the letters of the concatenation."""
    ok_product = True
    ok_commutation = True
    for I in proper_subsets(n):
        base_wI = longest_word(n, I)
        for X in proper_subsets(n):
            for aleph in range(n):
                if aleph in X:
                    continue
                factors = rewrite_wIhX(n, I, X, aleph)
                letters = [k for f in factors for k in f]
                prod = ExtendedWeylElement.identity(n)
                for k in letters:
                    prod = prod.times_simple(k)
                expected = longest_element(n, I) * h_of(n, X, aleph)
                if prod != expected:
                    ok_product = False
                base = base_wI + anticyclic_word(n, X, aleph)
                # commutation_reachable compares the letter multisets first
                if not commutation_reachable(n, base, letters):
                    ok_commutation = False
    return [
        ("rewrite factors multiply to w_I h_X", ok_product),
        ("rewrite reachable by commutation moves only", ok_commutation),
    ]


# ---------------------------------------------------------------------------
# randomized pseudocomplex properties over Q[d]


def _random_matrix(rng, rows, cols, scale):
    """A rows x cols matrix over Q of integers drawn from [-scale, scale]."""
    return tuple(
        tuple(RingElement(0, {(0,): rng.randint(-scale, scale)}) for _ in range(cols))
        for _ in range(rows)
    )


def random_pseudocomplex(rng, max_rank=3, degrees=(0, 1, 2)):
    """A random pseudocomplex over Q[d].

    Built as a sum of contractible two-term pieces conjugated by random
    invertible changes of basis (an honest complex), then deformed by
    d -> d + delta . e for a random degree-one map e; d^2 stays a multiple
    of delta, which monodromy() checks.
    """
    ar = MatrixArithmetic(0)
    const = RingElement.constant
    # direct sum of elementary pieces: either a lone summand in one degree
    # or a contractible pair connected by a scalar isomorphism, so that the
    # undeformed differential squares to zero on the nose
    slots = {k: 0 for k in degrees}
    pieces = []
    for _ in range(rng.randint(2, 2 * max_rank)):
        k = rng.choice(degrees)
        if k + 1 in slots and rng.random() < 0.6:
            pieces.append((k, slots[k], slots[k + 1], const(0, rng.choice([1, -1, 2]))))
            slots[k] += 1
            slots[k + 1] += 1
        else:
            slots[k] += 1
    ranks = {k: max(1, r) for k, r in slots.items()}
    base = {}
    for k in degrees:
        if k + 1 not in ranks:
            continue
        rows, cols = ranks[k + 1], ranks[k]
        mat = [[const(0, 0)] * cols for _ in range(rows)]
        for (deg, col, row, scalar) in pieces:
            if deg == k:
                mat[row][col] = scalar
        base[k] = mat
    # random invertible change of basis per degree (unitriangular times perm)
    changes = {}
    for k, r in ranks.items():
        mat = [[const(0, int(i == j)) for j in range(r)] for i in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                mat[i][j] = const(0, rng.randint(-2, 2))
        perm = list(range(r))
        rng.shuffle(perm)
        changes[k] = [[mat[i][perm[j]] for j in range(r)] for i in range(r)]
    summands = [Summand(k, ranks[k], 0, k) for k in degrees]
    diff = {
        (k, k + 1): mat_mul(mat_mul(changes[k + 1], mat), mat_invert(changes[k]))
        for k, mat in base.items()
    }
    for k in degrees:
        if k + 1 not in ranks or rng.random() < 0.4:
            continue
        e = _random_matrix(rng, ranks[k + 1], ranks[k], 2)
        diff[(k, k + 1)] = ar.add(diff[(k, k + 1)], ar.scale_delta(e))
    diff = {k: v for k, v in diff.items() if not ar.is_zero(v)}
    p = Pseudocomplex(ar, summands, diff)
    p.monodromy()
    return p


def _first_isomorphism(p):
    """The least differential entry (a, b) that is invertible, or None."""
    for a, b in sorted(p.diff):
        mor = p.diff[(a, b)]
        if p.arithmetic.is_isomorphism(mor, p.by_sid[a].label, p.by_sid[b].label):
            return a, b
    return None


def ge_round_trip_case(rng):
    """One random GE: alpha beta = id and beta alpha - id = dq + qd exactly."""
    p = random_pseudocomplex(rng)
    iso = _first_isomorphism(p)
    if iso is None:
        return True  # nothing to eliminate; vacuous case
    q, alpha, beta, homotopy = p.gaussian_eliminate(iso)
    if not alpha.compose(beta).is_identity():
        return False
    # beta alpha + (dq + qd) = id, exactly, pseudocomplex or not
    expected = homalg.identity_chain_map(p).add(homotopy.nulhomotopic_map().negate())
    left = beta.compose(alpha).entries
    if add_entries(p.arithmetic, left, expected.entries, sign=-1):
        return False
    return alpha.is_pseudo_chain_map() and beta.is_pseudo_chain_map()


def monodromy_naturality_case(rng):
    """mu_Q f - f mu_P = d nu_f + nu_f d, exactly, for the GE witness f."""
    p = random_pseudocomplex(rng)
    iso = _first_isomorphism(p)
    if iso is None:
        return True
    q, alpha, beta, _h = p.gaussian_eliminate(iso)
    lhs = q.monodromy().compose(alpha).add(alpha.compose(p.monodromy()).negate())
    # nu_f has odd degree shift, so its defect is d nu_f + nu_f d
    return not add_entries(p.arithmetic, lhs.entries, alpha.nu().defect(), sign=-1)


def simultaneous_vs_iterated_case(rng):
    """Block-diagonal independent family: simultaneous equals iterated."""
    ar = MatrixArithmetic(0)
    m = rng.randint(2, 3)
    summands = [Summand(0, 2, 0, 0)]
    sid = 1
    f_ids, fp_ids = [], []
    for _ in range(m):
        summands.append(Summand(sid, 1, 0, 0))
        f_ids.append(sid)
        sid += 1
    summands.append(Summand(sid, 2, 0, 1))
    c_id = sid
    sid += 1
    for _ in range(m):
        summands.append(Summand(sid, 1, 0, 1))
        fp_ids.append(sid)
        sid += 1
    one = RingElement.one(0)
    diff = {(0, c_id): _random_matrix(rng, 2, 2, 2)}
    for j in range(m):
        diff[(f_ids[j], fp_ids[j])] = ((one,),)
        diff[(0, fp_ids[j])] = _random_matrix(rng, 1, 2, 2)
        diff[(f_ids[j], c_id)] = _random_matrix(rng, 2, 1, 2)
    diff = {k: v for k, v in diff.items() if not ar.is_zero(v)}
    p = Pseudocomplex(ar, summands, diff)
    p.monodromy()
    pairs = list(zip(f_ids, fp_ids))
    simul, _trace = p.simultaneous_eliminate(pairs)
    iterated = p
    for pair in pairs:
        iterated = iterated.gaussian_eliminate(pair)[0]
    if {s.sid for s in simul.summands} != {s.sid for s in iterated.summands}:
        return False
    return not add_entries(ar, simul.diff, iterated.diff, sign=-1)


def pitfall_case():
    """The classic invalid iterated elimination must be refused."""
    ar = MatrixArithmetic(0)
    one = RingElement.one(0)
    summands = [
        Summand(0, 1, 0, 0),
        Summand(1, 1, 0, 0),
        Summand(2, 1, 0, 1),
        Summand(3, 1, 0, 1),
    ]
    diff = {
        (0, 2): ((one,),),
        (0, 3): ((one,),),
        (1, 2): ((one,),),
        (1, 3): ((one,),),
    }
    p = Pseudocomplex(ar, summands, diff)
    p.monodromy()
    try:
        p.simultaneous_eliminate([(0, 2), (1, 3)])
    except ValueError:
        pass
    else:
        return False
    q = p.gaussian_eliminate((0, 2))[0]
    return ar.is_zero(q.entry(1, 3)) and len(q.summands) == 2


def tensor_monodromy_case(rng):
    """mu_{P (x) Q} = mu_P (x) 1 + 1 (x) mu_Q, exactly."""
    p = random_pseudocomplex(rng, max_rank=2, degrees=(0, 1))
    q = random_pseudocomplex(rng, max_rank=2, degrees=(0, 1))
    ar = p.arithmetic
    t = homalg.tensor(p, q)
    mu_t = t.monodromy().entries
    mu_p = p.monodromy().entries
    mu_q = q.monodromy().entries
    pairs = [(a, b) for a in p.summands for b in q.summands]
    index = {(a.sid, b.sid): i for i, (a, b) in enumerate(pairs)}
    expected = {}
    for (a1, a2), m in mu_p.items():
        for b in q.summands:
            key = (index[(a1, b.sid)], index[(a2, b.sid)])
            term = ar.tensor(m, ar.identity(b.label))
            expected[key] = ar.add(expected[key], term) if key in expected else term
    for (b1, b2), m in mu_q.items():
        for a in p.summands:
            key = (index[(a.sid, b1)], index[(a.sid, b2)])
            term = ar.tensor(ar.identity(a.label), m)
            expected[key] = ar.add(expected[key], term) if key in expected else term
    return not add_entries(ar, mu_t, expected, sign=-1)


def ge_property_cases(seed=0, count=100):
    """The randomized pseudocomplex-engine battery; count >= 2 leaves no
    check with zero cases."""
    if count < 2:
        raise RefusedInput(f"count must be at least 2, got {count}")
    rng = random.Random(seed)
    results = []
    ok = all(ge_round_trip_case(rng) for _ in range(count))
    results.append((f"GE witnesses ({count} cases)", ok))
    ok = all(monodromy_naturality_case(rng) for _ in range(count // 2))
    results.append((f"monodromy naturality ({count // 2} cases)", ok))
    ok = all(simultaneous_vs_iterated_case(rng) for _ in range(count))
    results.append((f"simultaneous = iterated ({count} cases)", ok))
    results.append(("iterated-elimination pitfall refused", pitfall_case()))
    ok = all(tensor_monodromy_case(rng) for _ in range(count // 2))
    results.append((f"tensor monodromy ({count // 2} cases)", ok))
    return results
