"""The n=2 twisting isomorphism phi_s and its commutation squares.

phi_s: B_s F -> F B_t (t = tau(s)) is the block-diagonal chain map built
from a merge-plus-dot, a signed identity, a cap-cup pair and a dot-plus-
split.  The startdot and enddot squares commute up to explicit homotopies;
both the existence and the uniqueness modulo double homotopies are verified
by exact linear algebra over the delta = 0 quotient.
"""

from __future__ import annotations

from fractions import Fraction

from . import bimod, homalg, polymat
from .bimod import Morphism, basis_degree, rank
from .complexes import build_F
from .homalg import BimoduleArithmetic, add_entries, compose_entries, one_term_complex
from .rings import RingElement


def _delta_zero_complex(p):
    diff = {k: bimod.subs_delta_zero(m) for k, m in p.diff.items()}
    return homalg.Pseudocomplex(p.arithmetic, p.summands, diff, validate=False)


def side_complexes(s):
    """(F, B_s F, F B_t) for n = 2, bimodule backend."""
    n = 2
    t = (s + 1) % n
    ar = BimoduleArithmetic(n)
    F = build_F(n, "bimodule")
    Bs = one_term_complex(ar, (s,))
    Bt = one_term_complex(ar, (t,))
    return F, homalg.tensor(Bs, F, validate=False), homalg.tensor(F, Bt, validate=False)


def phi_s(s):
    """The chain map phi_s: B_s F -> F B_t for n = 2.

    Zero on B_s B_X-type summands; on B_s B_s it is the merge followed by a
    t-dot and minus the cap-cup through R; on B_s B_t it is minus the
    identity and the s-enddot followed by a t-split.
    """
    n = 2
    t = (s + 1) % n
    F, BsF, FBt = side_complexes(s)

    def sid(p, label):
        return p.by_label[(label, 0)].sid

    mor22 = bimod.startdot(n, (s,), 1, t).compose(bimod.merge(n, (s, s), 0))
    cap = bimod.enddot(n, (s,), 0).compose(bimod.merge(n, (s, s), 0))
    cup = bimod.split(n, (t,), 0).compose(bimod.startdot(n, (), 0, t))
    mor32 = -cup.compose(cap)
    mor23 = -Morphism.identity(n, (s, t))
    mor33 = bimod.split(n, (t,), 0).compose(bimod.enddot(n, (s, t), 0))
    entries = {
        (sid(BsF, (s, s)), sid(FBt, (s, t))): mor22,
        (sid(BsF, (s, s)), sid(FBt, (t, t))): mor32,
        (sid(BsF, (s, t)), sid(FBt, (s, t))): mor23,
        (sid(BsF, (s, t)), sid(FBt, (t, t))): mor33,
    }
    return homalg.ChainMap(BsF, FBt, entries)


def startdot_square_defect(s):
    """g = (F (x) startdot_t) - phi_s o (startdot_s (x) F): F -> F B_t (1)."""
    n = 2
    t = (s + 1) % n
    F, BsF, FBt = side_complexes(s)
    phi = phi_s(s)
    top = {}
    bottom_first = {}
    for summand in F.summands:
        word, k = tuple(summand.label), summand.degree
        tgt = FBt.by_label[(word + (t,), k)].sid
        top[(summand.sid, tgt)] = bimod.startdot(n, word, len(word), t)
        src_pair = BsF.by_label[((s,) + word, k)].sid
        bottom_first[(summand.sid, src_pair)] = bimod.startdot(n, word, 0, s)
    ar = F.arithmetic
    bottom = compose_entries(ar, phi.entries, bottom_first)
    out = add_entries(ar, top, bottom, sign=-1)
    return homalg.ChainMap(F, FBt, out, grading_shift=1), F, FBt


def enddot_square_defect(s):
    """g' = (F (x) enddot_t) o phi_s - (enddot_s (x) F): B_s F -> F (1)."""
    n = 2
    F, BsF, FBt = side_complexes(s)
    phi = phi_s(s)
    after = {}
    for summand in FBt.summands:
        word = tuple(summand.label)
        tgt = F.by_label[(word[:-1], summand.degree)].sid
        after[(summand.sid, tgt)] = bimod.enddot(n, word, len(word) - 1)
    second = {}
    for summand in BsF.summands:
        word = tuple(summand.label)
        tgt = F.by_label[(word[1:], summand.degree)].sid
        second[(summand.sid, tgt)] = bimod.enddot(n, word, 0)
    ar = F.arithmetic
    out = add_entries(ar, compose_entries(ar, after, phi.entries), second, sign=-1)
    return homalg.ChainMap(BsF, F, out, grading_shift=1), BsF, F


def _monomials(n, half_degree):
    if half_degree < 0:
        return []
    out = []

    def rec(prefix, remaining, slot):
        if slot == n - 1:
            out.append(tuple(prefix) + (remaining, 0))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slot + 1)

    rec([], half_degree, 0)
    return out


class _LinearSystem:
    def __init__(self):
        self.rows = []
        self.rhs = []
        self.nvars = 0

    def new_vars(self, count):
        start = self.nvars
        self.nvars += count
        return range(start, start + count)

    def add_equation(self, expr, rhs):
        if expr or rhs:
            self.rows.append(dict(expr))
            self.rhs.append(Fraction(rhs))

    def solve(self):
        """Returns (particular solution list or None, nullity)."""
        rhs = self.nvars  # the right-hand side, as a last column set to -1
        pivots = polymat.echelon(
            {**row, rhs: b} for row, b in zip(self.rows, self.rhs)
        )
        if rhs in pivots:
            return None, None
        x = polymat.back_substitute(pivots, {rhs: -1})
        solution = [x.get(c, Fraction(0)) for c in range(self.nvars)]
        return solution, self.nvars - len(pivots)

    def nullspace(self):
        """A basis of the homogeneous solutions: one vector per non-pivot
        column, which is set to 1 while the other non-pivot columns are 0."""
        pivots = polymat.echelon(self.rows)
        basis = []
        for free in range(self.nvars):
            if free not in pivots:
                x = polymat.back_substitute(pivots, {free: 1})
                basis.append([x.get(c, Fraction(0)) for c in range(self.nvars)])
        return basis


class HomotopyProblem:
    """Linear model of Hom-space candidates between two delta = 0 complexes.

    Candidates drop homological degree by `drop` and carry grading twist
    `twist`: the entry from a summand of P in degree d to a summand of Q in
    degree d - drop is a bimodule map of degree (q.shift + twist - p.shift).
    """

    def __init__(self, p, q, drop, twist):
        self.p = _delta_zero_complex(p)
        self.q = _delta_zero_complex(q)
        self.n = p.arithmetic.n
        self.drop = drop
        self.twist = twist
        self.system = _LinearSystem()
        self.cells = []  # (a, b, row, col, monomials, var_ids)
        self._build_unknowns()
        self._bimodule_constraints()

    def _build_unknowns(self):
        n = self.n
        for a in self.p.summands:
            for b in self.q.summands:
                if b.degree != a.degree - self.drop:
                    continue
                mdeg = b.shift + self.twist - a.shift
                src, tgt = tuple(a.label), tuple(b.label)
                for row in range(rank(tgt)):
                    for col in range(rank(src)):
                        edeg = (
                            mdeg
                            - basis_degree(tgt, row)
                            + basis_degree(src, col)
                        )
                        if edeg < 0 or edeg % 2:
                            continue
                        monos = _monomials(n, edeg // 2)
                        ids = list(self.system.new_vars(len(monos)))
                        self.cells.append((a.sid, b.sid, row, col, monos, ids))

    def _entry_exprs(self, a_sid, b_sid, tgt_rank, src_rank):
        """Matrix of linear expressions {monomial: {var: coeff}}."""
        out = [[{} for _ in range(src_rank)] for _ in range(tgt_rank)]
        for (a, b, row, col, monos, ids) in self.cells:
            if (a, b) != (a_sid, b_sid):
                continue
            for mono, var in zip(monos, ids):
                out[row][col].setdefault(mono, {})[var] = Fraction(1)
        return out

    @staticmethod
    def _mul_known_left(poly, expr):
        """known RingElement times {mono: linexpr}, delta set to zero."""
        out = {}
        for m1, c1 in poly.subs_delta_zero().terms.items():
            for m2, lin in expr.items():
                mono = tuple(x + y for x, y in zip(m1, m2))
                slot = out.setdefault(mono, {})
                for var, coeff in lin.items():
                    slot[var] = slot.get(var, Fraction(0)) + c1 * coeff
        return out

    def _pairs(self):
        return sorted({(a, b) for (a, b, *_rest) in self.cells})

    def _bimodule_constraints(self):
        n = self.n
        gens = [RingElement.x(n, i) for i in range(1, n + 1)]
        for (a_sid, b_sid) in self._pairs():
            src = tuple(self.p.by_sid[a_sid].label)
            tgt = tuple(self.q.by_sid[b_sid].label)
            exprs = self._entry_exprs(a_sid, b_sid, rank(tgt), rank(src))
            for f in gens:
                lf_t = [
                    [x.subs_delta_zero() for x in row]
                    for row in bimod.left_mult_matrix(n, tgt, f)
                ]
                lf_s = [
                    [x.subs_delta_zero() for x in row]
                    for row in bimod.left_mult_matrix(n, src, f)
                ]
                for row in range(rank(tgt)):
                    for col in range(rank(src)):
                        acc = {}

                        def bump(expr, sign=1):
                            for mono, lin in expr.items():
                                slot = acc.setdefault(mono, {})
                                for var, coeff in lin.items():
                                    slot[var] = (
                                        slot.get(var, Fraction(0)) + sign * coeff
                                    )

                        for k in range(rank(tgt)):
                            if not lf_t[row][k].is_zero():
                                bump(self._mul_known_left(lf_t[row][k], exprs[k][col]))
                        for k in range(rank(src)):
                            if not lf_s[k][col].is_zero():
                                bump(
                                    self._mul_known_left(lf_s[k][col], exprs[row][k]),
                                    sign=-1,
                                )
                        for mono, lin in acc.items():
                            lin = {v: c for v, c in lin.items() if c}
                            if lin:
                                self.system.add_equation(lin, 0)

    def add_dh_hd_equations(self, rhs_entries):
        """Impose dh + hd = rhs (all mod delta)."""
        n = self.n
        acc = {}

        def bump_expr(key, row, col, expr, sign=1):
            slot = acc.setdefault(key, {}).setdefault((row, col), {})
            for mono, lin in expr.items():
                inner = slot.setdefault(mono, {})
                for var, coeff in lin.items():
                    inner[var] = inner.get(var, Fraction(0)) + sign * coeff

        for (a_sid, b_sid) in self._pairs():
            src = tuple(self.p.by_sid[a_sid].label)
            mid = tuple(self.q.by_sid[b_sid].label)
            exprs = self._entry_exprs(a_sid, b_sid, rank(mid), rank(src))
            # d_Q o h
            for (b2, c_sid), d in self.q.diff.items():
                if b2 != b_sid:
                    continue
                for row in range(rank(tuple(self.q.by_sid[c_sid].label))):
                    for col in range(rank(src)):
                        for k in range(rank(mid)):
                            entry = d.matrix[row][k]
                            if entry.is_zero():
                                continue
                            bump_expr(
                                (a_sid, c_sid), row, col,
                                self._mul_known_left(entry, exprs[k][col]),
                            )
        for (a_sid, mid_sid), d in self.p.diff.items():
            src = tuple(self.p.by_sid[a_sid].label)
            mid = tuple(self.p.by_sid[mid_sid].label)
            for (m2, b_sid) in self._pairs():
                if m2 != mid_sid:
                    continue
                tgt = tuple(self.q.by_sid[b_sid].label)
                exprs = self._entry_exprs(mid_sid, b_sid, rank(tgt), rank(mid))
                for row in range(rank(tgt)):
                    for col in range(rank(src)):
                        for k in range(rank(mid)):
                            entry = d.matrix[k][col]
                            if entry.is_zero():
                                continue
                            # h entry times known polynomial on the right
                            lin = exprs[row][k]
                            shifted = {}
                            for mono, inner in lin.items():
                                for m1, c1 in entry.subs_delta_zero().terms.items():
                                    mono2 = tuple(
                                        x + y for x, y in zip(mono, m1)
                                    )
                                    slot = shifted.setdefault(mono2, {})
                                    for var, coeff in inner.items():
                                        slot[var] = (
                                            slot.get(var, Fraction(0)) + c1 * coeff
                                        )
                            bump_expr((a_sid, b_sid), row, col, shifted)
        keys = set(acc) | set(rhs_entries)
        for key in keys:
            a_sid, b_sid = key
            tgt = tuple(self.q.by_sid[b_sid].label)
            src = tuple(self.p.by_sid[a_sid].label)
            rhs = rhs_entries.get(key)
            cells = acc.get(key, {})
            for row in range(rank(tgt)):
                for col in range(rank(src)):
                    lin_by_mono = cells.get((row, col), {})
                    rhs_poly = (
                        rhs.matrix[row][col].subs_delta_zero()
                        if rhs is not None
                        else RingElement.zero(self.n)
                    )
                    monos = set(lin_by_mono) | set(rhs_poly.terms)
                    for mono in monos:
                        lin = {
                            v: c
                            for v, c in lin_by_mono.get(mono, {}).items()
                            if c
                        }
                        self.system.add_equation(
                            lin, rhs_poly.terms.get(mono, Fraction(0))
                        )

    def solve(self):
        return self.system.solve()

    def solution_to_entries(self, solution):
        out = {}
        for (a, b, row, col, monos, ids) in self.cells:
            src = tuple(self.p.by_sid[a].label)
            tgt = tuple(self.q.by_sid[b].label)
            key = (a, b)
            if key not in out:
                out[key] = [
                    [RingElement.zero(self.n) for _ in range(rank(src))]
                    for _ in range(rank(tgt))
                ]
            for mono, var in zip(monos, ids):
                if solution[var]:
                    out[key][row][col] = out[key][row][col] + RingElement(
                        self.n, {mono: solution[var]}
                    )
        return {
            key: Morphism(self.n, tuple(self.p.by_sid[key[0]].label),
                          tuple(self.q.by_sid[key[1]].label), m, check=False)
            for key, m in out.items()
            if any(not x.is_zero() for rowm in m for x in rowm)
        }


def _boundary_dimension(p, q, drop, twist):
    """Dimension of {dK - Kd} over the double-homotopy candidates K.

    The candidates solve homogeneous equations only, so the K-space is a
    nullspace; its rank under K -> dK - Kd is taken mod delta.
    """
    problem = HomotopyProblem(p, q, drop + 1, twist)
    kp, kq = problem.p, problem.q
    ar = kp.arithmetic
    images = []
    for vec in problem.system.nullspace():
        entries = problem.solution_to_entries(vec)
        images.append(add_entries(
            ar, compose_entries(ar, kq.diff, entries),
            compose_entries(ar, entries, kp.diff), sign=-1,
        ))
    return _rank_of_entry_maps(images)


def _rank_of_entry_maps(maps):
    """Rank over Q of a family of entry-dicts of morphisms."""
    coords = []
    for entry in maps:
        vec = {}
        for (a, b), mor in entry.items():
            for r, row in enumerate(mor.matrix):
                for c, x in enumerate(row):
                    for mono, coeff in x.terms.items():
                        vec[(a, b, r, c, mono)] = coeff
        coords.append(vec)
    return len(polymat.echelon(coords))


def verify_phi_squares_n2():
    """Full verification of the n=2 commutation squares, for both colors.

    Checks that phi_s is a pseudochain map, is zero on the B_s B_X block
    column and nonzero on B_s B_{sX}, that it is not nulhomotopic, and that
    the start- and enddot squares commute up to a homotopy which is unique
    modulo the double-homotopy family.  Returns a report dict.
    """
    report = {}
    for s in (0, 1):
        F, BsF, FBt = side_complexes(s)
        phi = phi_s(s)
        if not phi.is_pseudo_chain_map():
            raise AssertionError(f"phi_{s} is not a pseudochain map")
        for summand in BsF.summands:
            word = tuple(summand.label)
            col_entries = [m for (a, b), m in phi.entries.items() if a == summand.sid]
            if frozenset(word[1:]) in (frozenset(), frozenset({s, (s + 1) % 2})):
                if col_entries:
                    raise AssertionError("phi must vanish on B_s B_X summands")
            if word == (s, s) and not col_entries:
                raise AssertionError("phi must be nonzero on B_s B_sX")
        # phi itself must not be nulhomotopic
        problem = HomotopyProblem(BsF, FBt, 1, 0)
        problem.add_dh_hd_equations({k: m for k, m in phi.entries.items()})
        sol, _ = problem.solve()
        if sol is not None:
            raise AssertionError("phi is nulhomotopic, it should not be")
        for name, (defect, src, tgt) in (
            ("startdot", startdot_square_defect(s)),
            ("enddot", enddot_square_defect(s)),
        ):
            problem = HomotopyProblem(src, tgt, 1, 1)
            problem.add_dh_hd_equations(dict(defect.entries))
            sol, nullity = problem.solve()
            if sol is None:
                raise AssertionError(f"{name} square defect is not nulhomotopic")
            boundary_dim = _boundary_dimension(src, tgt, 1, 1)
            if nullity != boundary_dim:
                raise AssertionError(
                    f"{name} homotopy not unique mod double homotopies: "
                    f"kernel {nullity} vs boundaries {boundary_dim}"
                )
            report[(s, name)] = {
                "homotopy_entries": len(problem.solution_to_entries(sol)),
                "kernel_dim": nullity,
                "boundary_dim": boundary_dim,
            }
    return report
