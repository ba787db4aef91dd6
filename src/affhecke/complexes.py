"""The twisted standard complex and the theorem verifications built on it.

Constructions: the degree sets P_k, the twisted standard complex F (sign or
bimodule backend) with the monodromy map mu, the Wakimoto filtration, the
complexes N_I and M_J, crossover signs, the object-level Gaussian-elimination
certificate for tensoring with a longest element, and the nulhomotopy H for
left multiplication by x_1.

Sign-level checks run at any small n; exact bimodule d^2 runs to n = 8 in
criterion 1 (n = 9 under `slow`), the CLI to cli.BIMODULE_EXACT_MAX (8), and
the x_1 homotopy to n = 4.  The sign-level walks over subsets of
Z/n (adjacent layers, the signed crossover N_I = M_tau(I), tau-equivariance)
run on int bitmasks, each subset converted once per call; what they take and
return stays frozensets: gradings, the pairs of adjacent_pairs, summand
labels, the keys of tau_equivariance_signs and the arguments of eps_sign.
"""

from __future__ import annotations

import itertools

from . import RefusedInput, bimod, homalg
from .bimod import eps_sign, signed_dot
from .hecke import (
    HeckeElement,
    braid_hecke_image,
    c_element,
    kl_basis,
    symbol_of_complex,
)
from .homalg import ChainMap, Pseudocomplex, Summand, arithmetic_for
from .rings import LaurentPoly, RingElement
from .weyl import (
    ExtendedWeylElement,
    h_of,
    longest_element,
    preferred_word,
    tau_components,
)


def _graded_supersets(n, J):
    """k -> the X in P_k containing J, in the order of build_P; layers
    without such an X are left out."""
    if n < 2:
        raise RefusedInput("n must be at least 2")
    rest = [x for x in range(n) if x not in J]
    out = {}
    for k in range(-(n - 1), n):
        sets = []
        for m in range(len(J), n - abs(k)):
            if (n - 1 - k - m) % 2:
                continue
            sets.extend(
                J.union(c) for c in itertools.combinations(rest, m - len(J))
            )
        if sets:
            out[k] = sorted(sets, key=sorted)
    return out


def build_P(n):
    """P_k: proper subsets X with |X| <= n-1-|k| and n-1-k-|X| even."""
    return _graded_supersets(n, frozenset())


def summand_subset(label):
    """The index subset of a summand label (word tuple or frozenset)."""
    if isinstance(label, frozenset):
        return label
    return frozenset(label)


def _subset_mask(X):
    """The int with bit x set for each index x of the subset X of Z/n."""
    return sum(1 << x for x in X)


def adjacent_pairs(n, grading):
    """The (k, X, Y) with X in grading[k], Y in grading[k + 1] and X, Y
    differing by one index, in order of k, then X, then Y as listed.

    grading maps k -> list of subsets of Z/n.  Each subset is read once as
    its bitmask; the neighbours of X are its mask with one of the n bits
    flipped, looked up by position in the next layer, and the Y yielded
    are the subset objects of that layer.
    """
    bits = [1 << x for x in range(n)]
    masks = {k: [_subset_mask(X) for X in layer] for k, layer in grading.items()}
    for k in sorted(grading):
        if k + 1 not in grading:
            continue
        layer = grading[k + 1]
        position = {m: p for p, m in enumerate(masks[k + 1])}
        for X, m in zip(grading[k], masks[k]):
            hits = (position.get(m ^ b) for b in bits)
            for p in sorted(p for p in hits if p is not None):
                yield k, X, layer[p]


def _dot_sign(n, X, Y):
    """The sign of the dot between subsets X, Y that differ by one index."""
    return eps_sign(n, X, Y) if len(X) < len(Y) else eps_sign(n, Y, X)


def summand_label(n, X, backend):
    """The label of the summand B_X: X itself at the sign level, the
    preferred word of X over bimodules."""
    return X if backend == "sign" else preferred_word(n, X)


def dot_complex(n, grading, backend="sign"):
    """The complex with a summand B_X(k) for each X in grading[k] and the
    signed dot between each pair of adjacent_pairs.

    grading maps k -> list of subsets of Z/n; summand ids follow the order
    of k, then of each layer.  F, N_I and M_J are all built this way.
    """
    ar = arithmetic_for(backend, n)
    dot = _dot_sign if backend == "sign" else signed_dot
    sids = {}
    summands = []
    for k in sorted(grading):
        for X in grading[k]:
            sids[(X, k)] = len(summands)
            summands.append(Summand(len(summands), summand_label(n, X, backend), k, k))
    diff = {}
    for k, X, Y in adjacent_pairs(n, grading):
        diff[(sids[(X, k)], sids[(Y, k + 1)])] = dot(n, X, Y)
    return Pseudocomplex(ar, summands, diff)


def build_F(n, backend="sign"):
    """The twisted standard complex: summands B_X(k) for X in P_k, signed dots."""
    return dot_complex(n, build_P(n), backend)


def monodromy_map(n, F=None):
    """mu: F -> F(-2)[2], the identity on each summand of P_k cap P_{k+2}."""
    F = F if F is not None else build_F(n)
    ar = F.arithmetic
    entries = {}
    for s in F.summands:
        tgt = F.by_label.get((s.label, s.degree + 2))
        if tgt is not None:
            entries[(s.sid, tgt.sid)] = ar.identity(s.label)
    return ChainMap(F, F, entries, degree_shift=2)


def check_d2_signs(n, F=None):
    """Sign-level d^2 check on F (built when not given).

    d^2 must be n times monodromy_map: off-diagonal entries must cancel, so
    none may be left, and each diagonal entry B_X(k) -> B_X(k+2), for X in
    P_k and P_{k+2}, must equal n (the barbell sum equal to delta times the
    identity): at most n paths join X to itself, one per toggled index, so a
    sum of n holds exactly when all n paths exist and each is +1.
    """
    F = F if F is not None else build_F(n)
    return F.d_squared() == {key: n for key in monodromy_map(n, F).entries}


def check_d2_exact(n, F=None):
    """Exact d^2 check on the bimodule F (built when not given): the
    monodromy mu, every d^2 entry divided by delta, must equal
    monodromy_map, so d^2 = mu.delta and d^2 = 0 at delta = 0.  Returns
    (verdict, number of mu entries)."""
    F = F if F is not None else build_F(n, "bimodule")
    mu = F.monodromy()
    return mu == monodromy_map(n, F), len(mu.entries)


def wakimoto_assignment(n):
    """(X, k) -> cube index i in 1..n, per the filtration theorem.

    X sits in U_m with m = (n-1-|X|-k)/2 and belongs to cube i when
    i-1 is not in X and |X cap {0..i-2}| = i-1-m.
    """
    out = {}
    p = build_P(n)
    for k, sets in p.items():
        for X in sets:
            m = (n - 1 - len(X) - k) // 2
            matches = [
                i
                for i in range(1, n + 1)
                if (i - 1) % n not in X
                and len(X & set(range(i - 1))) == i - 1 - m
            ]
            if len(matches) != 1:
                raise AssertionError(
                    f"cube assignment not unique for X={sorted(X)}, k={k}: {matches}"
                )
            out[(X, k)] = matches[0]
    return out


def verify_wakimoto(n):
    """Partition, cube sizes, filtration closure and cube Hecke symbols.

    Each cube must have 2^{n-1} members, differentials must never increase
    the cube index, and omega times the cube symbol must equal the Hecke
    image of the translation braid word y_i.  Failures raise AssertionError
    (they would falsify the theorem).
    """
    from .braid import y_braid

    assign = wakimoto_assignment(n)
    sizes = {}
    for (X, k), i in assign.items():
        sizes[i] = sizes.get(i, 0) + 1
    if sizes != {i: 2 ** (n - 1) for i in range(1, n + 1)}:
        raise AssertionError(f"cube sizes {sizes} are not all 2^(n-1)")
    F = build_F(n)
    for (a, b) in F.diff:
        sa, sb = F.by_sid[a], F.by_sid[b]
        ca = assign[(summand_subset(sa.label), sa.degree)]
        cb = assign[(summand_subset(sb.label), sb.degree)]
        if cb > ca:
            raise AssertionError(
                f"differential increases cube index: {ca} -> {cb}"
            )
    om = HeckeElement.std(ExtendedWeylElement.rotation(n, 1))
    for i in range(1, n + 1):
        total = HeckeElement.zero(n)
        for (X, k), cube in assign.items():
            if cube != i:
                continue
            term = kl_basis(h_of(n, X)).scale(LaurentPoly.v(k))
            total = total + (term if k % 2 == 0 else -term)
        expected = braid_hecke_image(y_braid(n, i))
        if om * total != expected:
            raise AssertionError(f"cube {i} symbol does not match y_{i}")
    return True


def f_symbol(n):
    return symbol_of_complex(
        n, build_F(n), lambda label: h_of(n, summand_subset(label))
    )


def n_sets(n, I):
    """N^I_k: the X in P_k containing tau(I)."""
    return _graded_supersets(n, frozenset((i + 1) % n for i in I))


def m_sets(n, J):
    """M^J_k: the Y in P_k containing I = tau^{-1}(J)."""
    return _graded_supersets(n, frozenset((j - 1) % n for j in J))


def build_N(n, I):
    """The complex with summands B_{w_I h_X}(k), X in N^I_k, signed dots."""
    return dot_complex(n, n_sets(n, I))


def build_M(n, J):
    """The complex with summands B_{h_Y w_J}(k), Y in M^J_k, signed dots."""
    return dot_complex(n, m_sets(n, J))


def n_symbol(n, I):
    wI = longest_element(n, I)
    return symbol_of_complex(
        n, build_N(n, I), lambda label: wI * h_of(n, summand_subset(label))
    )


def crossover_sign(n, I, X):
    """(-1)^{a(X)} with a(X) = sum of |A|-1 over tau-components inside X."""
    I = frozenset(i % n for i in I)
    X = frozenset(x % n for x in X)
    J = frozenset((i + 1) % n for i in I)
    if not J <= X:
        raise ValueError("tau(I) must be contained in X")
    a = sum(len(c) - 1 for c in tau_components(n, I) if set(c) <= X)
    return (-1) ** a


def _slot_parity(n, Z, x, aleph):
    """(-1)^(letters to the left of x in the anticyclic word of h_Z), for
    the bitmask Z of a subset of Z/n without aleph.

    The word lists Z in decreasing order of (z - aleph) % n, so rotating Z
    right by aleph puts z at that bit, and the letters left of x are the
    bits above x's.
    """
    rotated = (Z >> aleph | Z << (n - aleph)) & ((1 << n) - 1)
    return -1 if (rotated >> ((x - aleph) % n + 1)).bit_count() & 1 else 1


def propagate_signs(nodes, edges):
    """The +-1 on every node with sign(b) = ratio * sign(a) on each edge.

    edges yields (a, b, ratio) with ratio +-1; the first node of each
    connected component in the order of `nodes` gets +1, and the rest follow
    by propagation.  Returns None when some cycle has ratio product -1.
    """
    adjacency = {}
    for a, b, ratio in edges:
        adjacency.setdefault(a, []).append((b, ratio))
        adjacency.setdefault(b, []).append((a, ratio))
    signs = {}
    for start in nodes:
        if start in signs:
            continue
        signs[start] = 1
        stack = [start]
        while stack:
            node = stack.pop()
            for nb, ratio in adjacency.get(node, ()):
                want = ratio * signs[node]
                if nb not in signs:
                    signs[nb] = want
                    stack.append(nb)
                elif signs[nb] != want:
                    return None
    return signs


def verify_N_equals_M(n, I):
    """The signed crossover makes N_I and M_{tau(I)} isomorphic.

    Three layers, per the left-versus-right proposition:
    (a) a diagonal +-1 assignment intertwining the differentials of N_I and
        M_J exists (solved by propagation over the summand graph);
    (b) on every edge admitting a common anticyclic base point outside both
        X and Y, the slot-count discrepancy between the x-dot and the y-dot
        is (-1)^{|A_i|-1} when x = min(A_i) is removed from a full component
        and +1 otherwise (the dot-crossover discrepancy);
    (c) the bookkeeping sign (-1)^{a(X)}, a(X) = sum of |A|-1 over full
        components inside X, solves exactly that discrepancy pattern.
    """
    from .weyl import correspondent_Y

    I = frozenset(i % n for i in I)
    sets = n_sets(n, I)
    # the predicted discrepancy of an edge toggling x: (-1)^{|A|-1} for
    # x = min(A) of a tau-component A, +1 otherwise.  Every X contains
    # tau(I), so A - {min(A)} lies in both ends and A in the larger one:
    # each such move removes x from a full component.
    predicted_at = [1] * n
    for comp in tau_components(n, I):
        predicted_at[comp[0]] = (-1) ** (len(comp) - 1)
    # the mask, Y, the mask of Y and (-1)^{a(X)} of each X, shared by every
    # edge at X
    per_X = {}
    for members in sets.values():
        for X in members:
            if X not in per_X:
                Y = correspondent_Y(n, I, X)
                a = crossover_sign(n, I, X)
                per_X[X] = (_subset_mask(X), Y, _subset_mask(Y), a)
    all_indices = (1 << n) - 1
    ratios = []
    for k, X, X2 in adjacent_pairs(n, sets):
        mask, Y, y_mask, a = per_X[X]
        mask2, Y2, y_mask2, a2 = per_X[X2]
        y_bit = y_mask ^ y_mask2
        if not y_bit or y_bit & (y_bit - 1):
            raise AssertionError("correspondents are not adjacent")
        ratios.append(((X, k), (X2, k + 1), _dot_sign(n, X, X2) * _dot_sign(n, Y, Y2)))
        # (b) + (c) on this edge; X | X2 and Y | Y2 are the larger sets
        x = (mask ^ mask2).bit_length() - 1
        big_x = mask | mask2
        predicted = predicted_at[x]
        if a * a2 != predicted:
            raise AssertionError(
                f"(-1)^a(X) does not solve the discrepancy at x={x}"
            )
        common = all_indices & ~(big_x | y_mask | y_mask2)
        if not common:
            continue
        aleph = (common & -common).bit_length() - 1
        y = y_bit.bit_length() - 1
        slot_ratio = _slot_parity(n, big_x, x, aleph) * _slot_parity(
            n, y_mask | y_mask2, y, aleph
        )
        if slot_ratio != predicted:
            raise AssertionError(
                f"adapted dot discrepancy is not (-1)^(|A|-1) at x={x}"
            )
    # (a) solve the diagonal sign by propagation (the graph is connected
    # for every I since N_I is indecomposable)
    nodes = [(X, k) for k in sorted(sets) for X in sets[k]]
    if propagate_signs(nodes, ratios) is None:
        raise AssertionError(
            f"no diagonal sign isomorphism N_I = M_J for I={sorted(I)}"
        )
    return True


def tensorBI_object_GE(n, I):
    """Object-level Gaussian elimination certificate for B_I (x) F.

    Simulates the block-by-block elimination on summand symbols: at the
    stage for an index j of tau(I) (processed from the top of each
    tau-component downward), summands lacking j split by the plethysm rules
    (godown for j-1 present, grow for both) and the split pieces cancel in
    adjacent homological degrees.  Survivors must be exactly the summands of
    N_I with symbols c_{I,X,X} = b_{w_I h_X}, and the running Hecke symbol
    sum must stay equal to b_{w_I} [F] = [N_I] throughout.

    Returns a certificate dict with the per-stage trace.
    """
    I = frozenset(i % n for i in I)
    J = frozenset((i + 1) % n for i in I)
    memo = {}
    comps = tau_components(n, I)

    def csym(Z, Y):
        return c_element(n, I, Z, Y, _memo=memo)

    def total_symbol(items):
        total = HeckeElement.zero(n)
        for (Z, Y, s, k) in items:
            term = csym(Z, Y).scale(LaurentPoly.v(s))
            total = total + (term if k % 2 == 0 else -term)
        return total

    items = []
    for k, sets in build_P(n).items():
        for X in sets:
            items.append((X, frozenset(), k, k))
    target = kl_basis(longest_element(n, I)) * f_symbol(n)
    if total_symbol(items) != target:
        raise AssertionError("initial symbol does not match b_{w_I} [F]")
    steps = []
    for comp in comps:
        if len(comp) < 2:
            continue
        for idx in range(len(comp) - 1, 0, -1):
            j, prev = comp[idx], comp[idx - 1]
            new_items, pool = [], []
            for (Z, Y, s, k) in items:
                if j in Z and prev in Z:
                    Y2 = Y | {j}
                    new_items.append((Z, Y2 | {prev}, s, k))
                    pool.append((Z - {prev, j}, Y2 - {j}, s, k))
                elif j in Z:
                    new_items.append((Z, Y | {j}, s, k))
                elif prev in Z:
                    pool.append((Z - {prev}, Y, s - 1, k))
                    pool.append((Z - {prev}, Y, s + 1, k))
                else:
                    pool.append((Z, Y, s, k))
            groups = {}
            for (Z, Y, s, k) in pool:
                groups.setdefault((Z, Y, s), []).append(k)
            cancelled = []
            for (Z, Y, s), degrees in sorted(
                groups.items(), key=lambda kv: (sorted(kv[0][0]), kv[0][2])
            ):
                counts = {}
                for k in degrees:
                    counts[k] = counts.get(k, 0) + 1
                carry, prev_deg = 0, None
                for k in sorted(counts):
                    if carry and k != prev_deg + 1:
                        raise AssertionError(
                            f"stage {j}: gap while pairing block {sorted(Z)}"
                        )
                    carry = counts[k] - carry
                    prev_deg = k
                    if carry < 0:
                        raise AssertionError(
                            f"stage {j}: cannot pair pieces for {sorted(Z)}"
                        )
                if carry:
                    raise AssertionError(
                        f"stage {j}: unmatched pieces for block {sorted(Z)}"
                    )
                cancelled.append(
                    {"block": sorted(Z), "shift": s, "degrees": sorted(degrees)}
                )
            items = new_items
            steps.append({"index": j, "cancelled": cancelled})
            if total_symbol(items) != target:
                raise AssertionError(f"symbol changed at stage {j}")
    expected = {}
    for k, sets in n_sets(n, I).items():
        for X in sets:
            expected[(X, k)] = expected.get((X, k), 0) + 1
    got = {}
    for (Z, Y, s, k) in items:
        if not J <= Z:
            raise AssertionError("survivor does not contain tau(I)")
        if s != k:
            raise AssertionError("survivor has mismatched shift")
        got[(Z, k)] = got.get((Z, k), 0) + 1
        if csym(Z, Y) != kl_basis(longest_element(n, I) * h_of(n, Z)):
            raise AssertionError(
                f"survivor symbol for X={sorted(Z)} is not b_(w_I h_X)"
            )
    # the survivor, shift and symbol checks make the final symbol [N_I]
    if got != expected:
        raise AssertionError("survivors do not match the summands of N_I")
    return {
        "theorem": "tensor-with-longest-element",
        "n": n,
        "parameters": {"I": sorted(I)},
        "steps": steps,
        "survivors": sorted(
            (sorted(Z), k) for (Z, Y, s, k) in items
        ),
        "verdict": "pass",
    }


def tau_equivariance_signs(n):
    """Solve for the diagonal +-1 making tau(F) isomorphic to F.

    Summand X at degree k maps to tau(X) at degree k; returns the sign
    assignment (propagated over the summand graph) or raises when no
    consistent assignment exists.
    """
    p = build_P(n)
    tau = {X: frozenset((x + 1) % n for x in X) for sets in p.values() for X in sets}
    # the ratio s_Y / s_X forced by matching tau-rotated differentials
    edges = (
        ((X, k), (Y, k + 1), _dot_sign(n, X, Y) * _dot_sign(n, tau[X], tau[Y]))
        for k, X, Y in adjacent_pairs(n, p)
    )
    signs = propagate_signs([(X, k) for k in sorted(p) for X in p[k]], edges)
    if signs is None:
        raise AssertionError("no diagonal sign isomorphism tau(F) = F")
    return signs


def build_H_homotopy(n, F=None):
    """The homotopy H: F -> F(2)[-1] for left multiplication by x_1.

    H is the downward dot removing the index 1 on summands containing it,
    and minus the sum of upward dots avoiding 1 on the ultimate cube (each
    subset of S \\ {1} in its maximal homological degree).
    """
    F = F if F is not None else build_F(n, "bimodule")

    def sid(X, degree):
        return F.by_label[(summand_label(n, X, F.arithmetic.name), degree)].sid

    entries = {}
    for s in F.summands:
        X = summand_subset(s.label)
        if 1 in X:
            entries[(s.sid, sid(X - {1}, s.degree - 1))] = signed_dot(n, X, X - {1})
        elif s.degree == n - 1 - len(X):
            for i in range(n):
                if i == 1 or i in X:
                    continue
                Y = X | {i}
                if len(Y) >= n:
                    continue
                entries[(s.sid, sid(Y, s.degree - 1))] = -signed_dot(n, X, Y)
    return homalg.Homotopy(F, F, entries)


def verify_x1_commutation(n):
    """dH + Hd = x_1 . (left) - x_2 . (right) on every summand, mod delta."""
    F = build_F(n, "bimodule")
    H = build_H_homotopy(n, F)
    null = H.nulhomotopic_map()
    x1 = RingElement.x(n, 1)
    x2 = RingElement.x(n, 2)
    for s in F.summands:
        word = s.label
        expected = bimod.left_mult(n, word, x1) - bimod.right_mult(n, word, x2)
        got = null.entries.get((s.sid, s.sid), bimod.Morphism.zero(n, word, word))
        if not bimod.subs_delta_zero(got - expected).is_zero():
            raise AssertionError(f"diagonal fails on {word}")
    for (a, b), m in null.entries.items():
        if a != b and not bimod.subs_delta_zero(m).is_zero():
            raise AssertionError(
                f"off-diagonal residue {F.by_sid[a].label} -> {F.by_sid[b].label}"
            )
    return True
