"""The seeded case lists of the three benchmark workloads.

A workload is a list of cases ``(case_id, run)``.  ``run()`` calls into
affhecke and returns ``(verdict, output)``: the verdict is the exact
identity the case checks, and the output is the serialized text that
``reference.json`` holds a digest of (``None`` when a case has nothing to
serialize, as for the randomized pseudocomplex cases).

Every call into affhecke goes through a module attribute
(``hecke.kl_basis``, not a name bound by ``from ... import``), so that the
traced run sees it.  The seed only picks representatives inside fixed
strata: every seed gives the same number of cases per n, per |I| class and
per stratum, and so nearly the same work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from functools import partial

from affhecke import bimod, braid, cli, complexes, hecke, homalg, suites, twist, weyl
from affhecke.rings import gauss

LENGTH_CAP = 24
# (n, Coxeter length) strata of the bar-invariance draw, and draws per stratum
BAR_STRATA = ((3, 6), (3, 7), (4, 5), (4, 6))
BAR_DRAWS = 4
BAR_OMEGAS = (-1, 0, 1)
# the battery sizes of acceptance criterion 9 (ge_property_cases(count=200))
GE_COUNTS = (("ge-round-trip", 200), ("naturality", 100), ("simultaneous", 200), ("tensor-mu", 100))


def fmt_set(members):
    return "{" + ",".join(str(m) for m in sorted(members)) + "}"


def proper_subsets(n):
    return [frozenset(c) for size in range(n) for c in itertools.combinations(range(n), size)]


def rotation_orbits(n):
    """Proper subsets of Z/n grouped into orbits of the rotation i -> i+1."""
    orbits = {}
    for members in proper_subsets(n):
        canon = min(tuple(sorted((i + r) % n for i in members)) for r in range(n))
        orbits.setdefault(canon, []).append(members)
    return [sorted(orbits[c], key=sorted) for c in sorted(orbits, key=lambda c: (len(c), c))]


def length_levels(n, max_length):
    """Elements of the affine Weyl group (omega power 0) by Coxeter length."""
    levels = [[weyl.ExtendedWeylElement.identity(n)]]
    for _ in range(max_length):
        nxt = {
            w.times_simple(k)
            for w in levels[-1]
            for k in range(n)
            if not w.has_right_descent(k)
        }
        levels.append(sorted(nxt, key=lambda w: w.window))
    return levels


def bar_pool(n, length):
    """Every omega^e w with w of the given length, e in BAR_OMEGAS."""
    return [
        weyl.ExtendedWeylElement.rotation(n, e) * w
        for w in length_levels(n, length)[length]
        for e in BAR_OMEGAS
    ]


# ---------------------------------------------------------------------------
# hecke-kl


def tau_suffixes(n, I, X, comps):
    """Every tau-suffix Y contained in X, in a fixed order."""
    per = []
    for comp in comps:
        opts = [frozenset()]
        for m in range(1, len(comp) + 1):
            tail = comp[-m:]
            if all(t in X for t in tail):
                opts.append(frozenset(tail))
        per.append(opts)
    found = {frozenset().union(*c) for c in itertools.product(*per)}
    return sorted(found, key=lambda y: (len(y), sorted(y)))


def plethysm_case(N):
    """The finite plethysm identities for w_I h_X with I = {1..N-1}."""
    n = N + 1
    w_i = weyl.longest_element(n, frozenset(range(1, N)))

    def phi(k):
        return w_i * weyl.h_of(n, frozenset(range(N - k + 1, N + 1)), 0)

    bs = {k: hecke.kl_basis(phi(k), LENGTH_CAP) for k in range(N + 1)}
    ok = bs[0] * hecke.b_simple(n, N) == bs[1]
    for k in range(1, N):
        ok = ok and bs[k] * hecke.b_simple(n, N - k) == bs[k + 1] + bs[k - 1]
    for k in range(N + 1):
        for j in range(1, N + 1):
            if j == N - k or (k == 0 and j == N) or not phi(k).has_right_descent(j):
                continue
            ok = ok and bs[k] * hecke.b_simple(n, j) == bs[k].scale(gauss(2))
    return ok, "\n\n".join(bs[k].serialize() for k in range(N + 1))


def cxy_case(n, I, X, memos, with_cxx):
    """Order independence and godown of c_{I,X,Y} for every tau-suffix Y <= X,
    and c_{I,X,X} = b_{w_I h_X} when X itself is a tau-suffix."""
    memo, memo_last = memos
    comps = weyl.tau_components(n, I)
    ok = True
    parts = []
    for Y in tau_suffixes(n, I, X, comps):
        c = hecke.c_element(n, I, X, Y, LENGTH_CAP, memo)
        ok = ok and c == hecke.c_element(n, I, X, Y, LENGTH_CAP, memo_last, order="last")
        for j in sorted(X - Y):
            if hecke.godown_applicable(n, I, X, Y, j, comps):
                ok = ok and c == hecke.c_godown_rhs(n, I, X, Y, j, LENGTH_CAP, memo)
        parts.append(f"Y={fmt_set(Y)}\n{c.serialize()}")
    if with_cxx and hecke.is_tau_suffix(n, I, X, comps):
        cxx = hecke.c_element(n, I, X, X, LENGTH_CAP, memo)
        w = weyl.longest_element(n, I) * weyl.h_of(n, X)
        ok = ok and cxx == hecke.kl_basis(w, LENGTH_CAP)
    return ok, "\n".join(parts)


def bar_case(w):
    b = hecke.kl_basis(w, LENGTH_CAP)
    return b.bar() == b, b.serialize()


def wakimoto_case():
    return complexes.verify_wakimoto(6), None


def jm_case(n, state):
    js = [hecke.braid_hecke_image(braid.jm_braid(n, i)) for i in range(1, n + 1)]
    state[n] = js
    return True, "\n\n".join(j.serialize() for j in js)


def elementary_case(n, k, state):
    """Flattening sends the sum of w_lambda over the weights of Lambda^k to
    the elementary symmetric polynomial e_k in the Jucys-Murphy elements."""
    js = state[n]
    lhs = hecke.HeckeElement.zero(n)
    ek = hecke.HeckeElement.zero(n)
    for supp in itertools.combinations(range(n), k):
        lam = [1 if i in supp else 0 for i in range(n)]
        lhs = lhs + hecke.flatten_hecke(hecke.braid_hecke_image(braid.w_lambda(n, lam)))
        term = hecke.HeckeElement.unit(n)
        for i in supp:
            term = term * js[i]
        ek = ek + term
    return lhs == ek, lhs.serialize()


def full_twist_case(n, state):
    ft = hecke.HeckeElement.unit(n)
    for j in state[n]:
        ft = ft * j
    flat = hecke.flatten_hecke(hecke.braid_hecke_image(braid.w_lambda(n, [1] * n)))
    return flat == ft, flat.serialize()


def flat_f_case():
    """flat([F]) = [F_1] + [F_1^-1] at n = 2."""
    flat = hecke.flatten_hecke(complexes.f_symbol(2))
    b1 = hecke.b_simple(2, 1)
    expected = b1 + b1 - hecke.HeckeElement.unit(2).scale(gauss(2))
    return flat == expected, flat.serialize()


def hecke_kl(seed, exhaustive=False):
    """The Hecke/KL cases; ``exhaustive`` takes every representative a seed
    could draw (used to build the reference digests)."""
    rng = random.Random(f"hecke-kl/{seed}")

    def draw(pool, count):
        return list(pool) if exhaustive else rng.sample(pool, count)

    cases = [(f"plethysm N={N}", partial(plethysm_case, N)) for N in range(2, 6)]
    groups = [(n, I) for n in (2, 3, 4) for I in proper_subsets(n)]
    # n = 5: one I per rotation orbit, so every |I| class keeps its count
    groups += [(5, I) for orbit in rotation_orbits(5) for I in draw(orbit, 1)]
    for n, I in groups:
        memos = ({}, {})
        for X in proper_subsets(n):
            case_id = f"cxy n={n} I={fmt_set(I)} X={fmt_set(X)}"
            cases.append((case_id, partial(cxy_case, n, I, X, memos, n <= 4)))
    for n, length in BAR_STRATA:
        for w in draw(bar_pool(n, length), BAR_DRAWS):
            cases.append((f"bar n={n} w={w}", partial(bar_case, w)))
    cases.append(("wakimoto n=6", wakimoto_case))
    state = {}
    for n in (2, 3, 4):
        cases.append((f"jm n={n}", partial(jm_case, n, state)))
        for k in range(1, n + 1):
            cases.append((f"flatten e_{k} n={n}", partial(elementary_case, n, k, state)))
        cases.append((f"full twist n={n}", partial(full_twist_case, n, state)))
    cases.append(("flatten [F] n=2", flat_f_case))
    return cases


# ---------------------------------------------------------------------------
# bimodule-d2


def build_case(n, store, expected_summands):
    f = complexes.build_F(n, "bimodule")
    store[n] = f
    payload = f.to_json(n)
    return len(f.summands) == expected_summands, json.dumps(payload, sort_keys=True)


def mu_case(n, store):
    """mu from d^2 equals monodromy_map, entry by entry."""
    f = store[n]
    mu = f.monodromy()
    expected = complexes.monodromy_map(n, f)
    ok = set(mu.entries) == set(expected.entries) and all(
        (mu.entries[k] - expected.entries[k]).is_zero() for k in mu.entries
    )
    return ok, None


def d2_mod_delta_case(n, store):
    f = store[n]
    return all(bimod.subs_delta_zero(v).is_zero() for v in f.d_squared().values()), None


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def build_f_cli_case(path):
    argv = ["build-f", "--n", "5", "--backend", "bimodule", "--bimodule-cap", "5", "--out", path]
    code, text = run_cli(argv)
    return code == 0 and text.startswith(f"wrote {path} (80 summands)"), None


def check_file_cli_case(path):
    code, text = run_cli(["check-file", path])
    return code == 0 and text.startswith("d^2 divisible by delta: PASS"), None


def reload_case(path, store):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    loaded = homalg.Pseudocomplex.from_json(data)
    store["loaded"] = loaded
    store["file"] = {(e["from"], e["to"]): e["morphism"] for e in data["diff"]}
    return loaded.summands == store[5].summands and loaded.diff.keys() == store[5].diff.keys(), None


def entries_case(keys, store):
    """The reloaded differential entries out of one summand equal the
    in-memory ones and serialize back to the text of the file."""
    mine, theirs, text = store[5].diff, store["loaded"].diff, store["file"]
    encode = store["loaded"].arithmetic.encode
    return all(mine[k] == theirs[k] and encode(theirs[k]) == text[k] for k in keys), None


def bimodule_map_case(key, store):
    return bimod.is_bimodule_map(store["loaded"].diff[key]), None


def x1_case(n):
    return complexes.verify_x1_commutation(n), None


def phi_squares_case():
    report = twist.verify_phi_squares_n2()
    text = json.dumps(sorted((list(k), v) for k, v in report.items()), sort_keys=True)
    return len(report) == 4, text


def bimodule_d2(out_dir):
    """The exact bimodule cases.  They are fixed by n alone, so this workload
    does the same work for every seed.

    There are 115 of them: the few heavy cases sit around p90, and with a
    count of 5 mod 10 the ranks 0.5 N and 0.9 N fall in the middle of one
    case's repeats over the passes of a run, not on the edge between two
    cases of different cost.
    """
    store = {}
    path = os.path.join(out_dir, "F_5_bimodule.json")
    cases = []
    for n, count in ((3, 12), (4, 32), (5, 80)):
        cases.append((f"build F n={n}", partial(build_case, n, store, count)))
        cases.append((f"mu = monodromy_map n={n}", partial(mu_case, n, store)))
        cases.append((f"d^2 = 0 mod delta n={n}", partial(d2_mod_delta_case, n, store)))
    cases.append(("cli build-f n=5", partial(build_f_cli_case, path)))
    cases.append(("cli check-file n=5", partial(check_file_cli_case, path)))
    cases.append(("reload n=5", partial(reload_case, path, store)))
    # the summand ids and entries of F_5 are those of the sign-level F_5
    shape = complexes.build_F(5, "sign")
    by_source = {}
    strata = {}
    for a, b in sorted(shape.diff):
        by_source.setdefault(a, []).append((a, b))
        sa, sb = shape.by_sid[a], shape.by_sid[b]
        strata.setdefault((len(sa.label), len(sb.label), sa.degree), []).append((a, b))
    for sid, keys in sorted(by_source.items()):
        cases.append((f"entries n=5 from={sid}", partial(entries_case, keys, store)))
    # one entry per (source |X|, target |X|, degree) class: entries of one
    # class differ in cost, so a seeded pick would make the work seed-dependent
    for stratum in sorted(strata):
        a, b = strata[stratum][0]
        cases.append((f"bimodule map n=5 {a}->{b}", partial(bimodule_map_case, (a, b), store)))
    for n in (2, 3, 4):
        cases.append((f"x1 nulhomotopy n={n}", partial(x1_case, n)))
    cases.append(("phi_s squares n=2", phi_squares_case))
    return cases


# ---------------------------------------------------------------------------
# engine-ge


def random_case(kind, rng):
    fn = {
        "ge-round-trip": suites.ge_round_trip_case,
        "naturality": suites.monodromy_naturality_case,
        "simultaneous": suites.simultaneous_vs_iterated_case,
        "tensor-mu": suites.tensor_monodromy_case,
    }[kind]
    return fn(rng), None


def pitfall_case():
    return suites.pitfall_case(), None


def sign_build_case(n, store):
    f = complexes.build_F(n)
    store[n] = f
    return True, json.dumps(f.to_json(n), sort_keys=True)


def d2_signs_case(n):
    return complexes.check_d2_signs(n), None


def mu_defect_case(n, store):
    """mu is a chain map at the sign level: its defect vanishes."""
    f = store[n]
    return not complexes.monodromy_map(n, f).defect(), None


def tau_signs_case(n):
    signs = complexes.tau_equivariance_signs(n)
    text = "\n".join(
        f"{k} {fmt_set(X)} {s}" for (X, k), s in sorted(signs.items(), key=lambda kv: (kv[0][1], sorted(kv[0][0])))
    )
    return len(signs) == len(complexes.build_F(n).summands), text


def n_equals_m_case(n, I):
    return complexes.verify_N_equals_M(n, I), None


def euler_characteristic(p):
    return sum(-1 if s.degree % 2 else 1 for s in p.summands)


def minimal_case(n, store):
    """Sign-level elimination to a minimal complex keeps the Euler
    characteristic and leaves no invertible entry."""
    f = store[n]
    m = f.minimal_complex()
    ar = m.arithmetic
    ok = euler_characteristic(m) == euler_characteristic(f) and not any(
        ar.is_isomorphism(mor, m.by_sid[a].label, m.by_sid[b].label)
        for (a, b), mor in m.diff.items()
    )
    return ok, json.dumps(m.to_json(n), sort_keys=True)


def engine_ge(seed):
    cases = []
    for kind, count in GE_COUNTS:
        for i in range(count):
            rng = random.Random(f"engine-ge/{seed}/{kind}/{i}")
            cases.append((f"{kind} #{i}", partial(random_case, kind, rng)))
    cases.append(("pitfall", pitfall_case))
    store = {}
    for n in (7, 8):
        cases.append((f"build F sign n={n}", partial(sign_build_case, n, store)))
        cases.append((f"d^2 signs n={n}", partial(d2_signs_case, n)))
        cases.append((f"mu defect n={n}", partial(mu_defect_case, n, store)))
        cases.append((f"tau signs n={n}", partial(tau_signs_case, n)))
    for I in proper_subsets(7):
        cases.append((f"N_I = M_tau(I) n=7 I={fmt_set(I)}", partial(n_equals_m_case, 7, I)))
    cases.append(("minimal complex n=7", partial(minimal_case, 7, store)))
    return cases


def build(workload, seed, out_dir, exhaustive=False):
    if workload == "hecke-kl":
        return hecke_kl(seed, exhaustive)
    if workload == "bimodule-d2":
        return bimodule_d2(out_dir)
    if workload == "engine-ge":
        return engine_ge(seed)
    raise ValueError(f"unknown workload {workload!r}")
