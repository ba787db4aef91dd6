"""The twisting isomorphism phi_s and its commutation squares.

phi_s: B_s F -> F B_t (t = tau(s) = s + 1 mod n) is the block-diagonal chain
map built from a merge-plus-dot, a signed identity, a cap-cup pair and a
dot-plus-split; its entries are written by hand for n = 2.  The side
complexes, the square defects and the homotopy problems take n from their
inputs.  The startdot and enddot squares commute up to explicit homotopies;
both the existence and the uniqueness modulo double homotopies are verified
by exact linear algebra over the delta = 0 quotient.  In that linear algebra
the unknowns are elementary morphisms and the equations are the rational
coordinates of their images under a linear map.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import bimod, homalg, polymat
from .bimod import Morphism, basis_degree, rank
from .complexes import build_F
from .homalg import BimoduleArithmetic, add_entries, compose_entries, one_term_complex
from .polymat import Matrix
from .rings import RingElement


def _delta_zero_complex(p):
    diff = {k: bimod.subs_delta_zero(m) for k, m in p.diff.items()}
    return homalg.Pseudocomplex(p.arithmetic, p.summands, diff)


def side_complexes(n, s):
    """(F, B_s F, F B_t) with t = s + 1 mod n, bimodule backend."""
    ar = BimoduleArithmetic(n)
    F = build_F(n, "bimodule")
    Bs = one_term_complex(ar, (s,))
    Bt = one_term_complex(ar, ((s + 1) % n,))
    return F, homalg.tensor(Bs, F), homalg.tensor(F, Bt)


def phi_s(s, BsF, FBt):
    """The chain map phi_s: B_s F -> F B_t between the n = 2 side complexes.

    Zero on B_s B_X-type summands; on B_s B_s it is the merge followed by a
    t-dot and minus the cap-cup through R; on B_s B_t it is minus the
    identity and the s-enddot followed by a t-split.  These entries are
    written by hand for n = 2 only.
    """
    n = BsF.arithmetic.n
    if n != 2:
        raise ValueError(f"phi_s is written by hand for n = 2, got n = {n}")
    t = (s + 1) % n

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


def startdot_square_defect(s, F, phi):
    """g = (F (x) startdot_t) - phi o (startdot_s (x) F): F -> F B_t (1).

    phi is a chain map B_s F -> F B_t between the side complexes of F.
    """
    n = F.arithmetic.n
    t = (s + 1) % n
    BsF, FBt = phi.src, phi.tgt
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
    return homalg.ChainMap(F, FBt, out), F, FBt


def enddot_square_defect(F, phi):
    """g' = (F (x) enddot_t) o phi - (enddot_s (x) F): B_s F -> F (1).

    phi is a chain map B_s F -> F B_t between the side complexes of F.
    """
    n = F.arithmetic.n
    BsF, FBt = phi.src, phi.tgt
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
    return homalg.ChainMap(BsF, F, out), BsF, F


def _monomials(n, half_degree):
    """Exponent vectors of the monomials of degree half_degree in x_1..x_n."""
    return [
        head + (half_degree - sum(head), 0)
        for head in itertools.product(range(half_degree + 1), repeat=n - 1)
        if sum(head) <= half_degree
    ]


def _coordinates(entries, tag):
    """Rational coordinates mod delta of entries (a, b) -> morphism, keyed
    (tag, a, b, row, packed key): the key holds the column and monomial."""
    return {
        (tag, a, b, r, key): coeff
        for (a, b), mor in entries.items()
        for r, row in enumerate(polymat.mat_delta_zero(mor.matrix).rows)
        for key, coeff in row.items()
    }


class HomotopyProblem:
    """Linear model of Hom-space candidates between two delta = 0 complexes.

    Candidates drop homological degree by `drop` and carry grading twist
    `twist`: the entry from a summand of P in degree d to a summand of Q in
    degree d - drop is a bimodule map of degree (q.shift + twist - p.shift).

    The unknowns are elementary morphisms: one per entry (a, b), matrix cell
    and monomial, with that monomial in that cell and 0 elsewhere.  The
    column of an unknown holds the rational coordinates, mod delta, of its
    images: under the commutator with left multiplication by each x_i,
    i < n (tag i), which vanishes on bimodule maps, and, when a right-hand
    side is given, under h -> dh + hd (tag 0).
    """

    def __init__(self, p, q, drop, twist):
        self.p = _delta_zero_complex(p)
        self.q = _delta_zero_complex(q)
        self.n = p.arithmetic.n
        self.unknowns = []  # (a, b, row, col, monomial), in column order
        for a in self.p.summands:
            for b in self.q.summands:
                if b.degree != a.degree - drop:
                    continue
                mdeg = b.shift + twist - a.shift
                src, tgt = tuple(a.label), tuple(b.label)
                for row in range(rank(tgt)):
                    for col in range(rank(src)):
                        edeg = mdeg - basis_degree(tgt, row) + basis_degree(src, col)
                        if edeg >= 0 and edeg % 2 == 0:
                            self.unknowns.extend(
                                (a.sid, b.sid, row, col, mono)
                                for mono in _monomials(self.n, edeg // 2)
                            )
        self._left = {}  # word -> left multiplications by x_1..x_{n-1}, mod delta
        self._bimodule_rows = list(self._rows(self._commutators).values())

    def _words(self, a, b):
        return tuple(self.p.by_sid[a].label), tuple(self.q.by_sid[b].label)

    def _rows(self, images):
        """{coordinate: {unknown: coefficient}} of the images of the unknowns;
        images(key, mor) gives the coordinates of one elementary morphism."""
        rows = {}
        for v, (a, b, row, col, mono) in enumerate(self.unknowns):
            src, tgt = self._words(a, b)
            cells = [{}] * rank(tgt)
            cells[row] = {col: RingElement(self.n, {mono: 1})}
            mor = Morphism(self.n, src, tgt, Matrix(self.n, rank(src), cells), check=False)
            for coord, coeff in images((a, b), mor).items():
                rows.setdefault(coord, {})[v] = coeff
        return rows

    def _left_mults(self, word):
        if word not in self._left:
            n = self.n
            # x_1 + ... + x_n is invariant under every s_i (s_0 included), so
            # left and right multiplication by it agree on every Bott-Samelson
            # bimodule: its commutator vanishes and the x_n rows follow from
            # the others
            self._left[word] = [
                bimod.subs_delta_zero(bimod.left_mult(n, word, RingElement.x(n, i)))
                for i in range(1, n)
            ]
        return self._left[word]

    def _commutators(self, key, mor):
        out = {}
        pairs = zip(self._left_mults(mor.tgt), self._left_mults(mor.src))
        for i, (lt, ls) in enumerate(pairs, 1):
            out.update(_coordinates({key: lt.compose(mor) - mor.compose(ls)}, i))
        return out

    def _nulhomotopic(self, key, mor):
        h = homalg.Homotopy(self.p, self.q, {key: mor})
        return _coordinates(h.nulhomotopic_map().entries, 0)

    def solve(self, rhs_entries=None):
        """(particular solution, nullity) of the bimodule-map candidates h,
        subject to dh + hd = rhs_entries mod delta when that is given;
        (None, None) when there is no solution."""
        rows = list(self._bimodule_rows)
        rhs = len(self.unknowns)  # the right-hand side, as a last column set to -1
        if rhs_entries is not None:
            dh_hd = self._rows(self._nulhomotopic)
            for coord, coeff in _coordinates(rhs_entries, 0).items():
                dh_hd.setdefault(coord, {})[rhs] = coeff
            rows.extend(dh_hd.values())
        pivots = polymat.echelon(rows)
        if rhs in pivots:
            return None, None
        x = polymat.back_substitute(pivots, {rhs: -1})
        return [x.get(c, Fraction(0)) for c in range(rhs)], rhs - len(pivots)

    def nullspace(self):
        """A basis of the bimodule-map candidates: one vector per non-pivot
        column, which is set to 1 while the other non-pivot columns are 0."""
        pivots = polymat.echelon(self._bimodule_rows)
        size = len(self.unknowns)
        basis = []
        for free in range(size):
            if free not in pivots:
                x = polymat.back_substitute(pivots, {free: 1})
                basis.append([x.get(c, Fraction(0)) for c in range(size)])
        return basis

    def solution_to_entries(self, solution):
        """The candidate with these coordinates, as its nonzero entries."""
        terms = {}
        for (a, b, row, col, mono), value in zip(self.unknowns, solution):
            if value:
                terms.setdefault((a, b), {}).setdefault((row, col), {})[mono] = value
        out = {}
        for (a, b), cells in terms.items():
            src, tgt = self._words(a, b)
            rows = [{} for _ in range(rank(tgt))]
            for (row, col), cell in cells.items():
                rows[row][col] = RingElement(self.n, cell)
            matrix = Matrix(self.n, rank(src), rows)
            out[(a, b)] = Morphism(self.n, src, tgt, matrix, check=False)
        return out


def _boundary_dimension(p, q, drop, twist):
    """Dimension of {dK - Kd} over the double-homotopy candidates K.

    The candidates solve homogeneous equations only, so the K-space is a
    nullspace; its rank under K -> dK - Kd is taken mod delta.  The degree
    shift -2 of the chain map K fixes the sign of that difference.
    """
    problem = HomotopyProblem(p, q, drop + 1, twist)
    images = (
        _coordinates(homalg.ChainMap(
            problem.p, problem.q, problem.solution_to_entries(vec), degree_shift=-2,
        ).defect(), 0)
        for vec in problem.nullspace()
    )
    return len(polymat.echelon(images))


def verify_phi_squares_n2():
    """Full verification of the n=2 commutation squares, for both colors.

    Checks that phi_s is a pseudochain map, is zero on the B_s B_X block
    column and nonzero on B_s B_{sX}, that it is not nulhomotopic, and that
    the start- and enddot squares commute up to a homotopy which is unique
    modulo the double-homotopy family.  Returns a report dict.
    """
    report = {}
    for s in (0, 1):
        F, BsF, FBt = side_complexes(2, s)
        t = (s + 1) % F.arithmetic.n
        phi = phi_s(s, BsF, FBt)
        if not phi.is_pseudo_chain_map():
            raise AssertionError(f"phi_{s} is not a pseudochain map")
        for summand in BsF.summands:
            word = tuple(summand.label)
            col_entries = [m for (a, b), m in phi.entries.items() if a == summand.sid]
            if frozenset(word[1:]) in (frozenset(), frozenset({s, t})):
                if col_entries:
                    raise AssertionError("phi must vanish on B_s B_X summands")
            if word == (s, s) and not col_entries:
                raise AssertionError("phi must be nonzero on B_s B_sX")
        # phi itself must not be nulhomotopic
        sol, _ = HomotopyProblem(BsF, FBt, 1, 0).solve(phi.entries)
        if sol is not None:
            raise AssertionError("phi is nulhomotopic, it should not be")
        for name, (defect, src, tgt) in (
            ("startdot", startdot_square_defect(s, F, phi)),
            ("enddot", enddot_square_defect(F, phi)),
        ):
            problem = HomotopyProblem(src, tgt, 1, 1)
            sol, nullity = problem.solve(defect.entries)
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
