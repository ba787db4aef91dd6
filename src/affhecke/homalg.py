"""Generic pseudocomplexes over a pluggable morphism arithmetic.

A pseudocomplex is a graded collection of labeled summands with a
differential satisfying d^2 = mu . delta for the designated central
parameter delta (a nonzero divisor).  The engine provides d^2 and monodromy
extraction, chain maps with their nu-defect, single and simultaneous
Gaussian elimination with explicit homotopy-equivalence witnesses, tensor
products under the standard and the strand-counting sign conventions,
minimal complexes, perversity certificates, and duality.

Three arithmetics ship: matrices over Q[d] (property tests), sign
bookkeeping (object-level checks, morphisms are integers +-1 composed
multiplicatively), and exact Bott-Samelson bimodule morphisms.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import bimod, polymat
from .rings import RingElement, divide_by_delta, parse_ring_element


@dataclass(frozen=True)
class Summand:
    sid: int
    label: object
    shift: int
    degree: int


class MatrixArithmetic:
    """Morphisms are matrices over Q[x_1..x_n, d]; default n = 0 gives Q[d].

    Summand labels are ranks (free modules), ungraded: degree checks are
    skipped.
    """

    name = "matrix"

    def __init__(self, n=0):
        self.n = n

    def rank(self, label):
        return int(label)

    def zero(self, src_label, tgt_label):
        return polymat.mat_zero(self.n, self.rank(tgt_label), self.rank(src_label))

    def identity(self, label):
        return polymat.mat_identity(self.n, self.rank(label))

    def compose(self, f, g):
        return polymat.mat_mul(f, g)

    def add(self, f, g):
        return polymat.mat_add(f, g)

    def negate(self, f):
        return polymat.mat_neg(f)

    def is_zero(self, f):
        return polymat.mat_is_zero(f)

    def equal(self, f, g):
        return polymat.mat_eq(f, g)

    def scale_delta(self, f):
        d = RingElement.delta(self.n)
        return polymat.mat_scale(f, d)

    def divide_delta(self, f):
        return tuple(tuple(divide_by_delta(x) for x in row) for row in f)

    def is_isomorphism(self, f, src, tgt):
        rows, cols = polymat.mat_shape(f)
        if rows != cols:
            return False
        det = polymat.det_bareiss(f)
        return det.is_unit()

    def invert(self, f):
        return polymat.mat_invert(f)

    def dual(self, f):
        return polymat.mat_transpose(f)

    def degree_of(self, f, src, tgt):
        return None

    def tensor(self, f, g):
        """The Kronecker product: block (r, c) is g scaled by f[r][c]."""
        return polymat.mat_blocks([[polymat.mat_scale(g, x) for x in row] for row in f])

    def tensor_label(self, a, b):
        return self.rank(a) * self.rank(b)

    def encode(self, f):
        return [[str(x) for x in row] for row in f]

    def decode(self, data):
        return tuple(
            tuple(parse_ring_element(self.n, x) for x in row) for row in data
        )

    def encode_label(self, label):
        return int(label)

    def decode_label(self, data):
        return int(data)


class SignArithmetic:
    """Opaque sign bookkeeping: a morphism is a nonzero integer.

    Composition multiplies, addition adds (paths with the same endpoints are
    the same diagram up to sign, which is the regime where this backend is
    used); only the markers +-1 count as isomorphisms.
    """

    name = "sign"

    def zero(self, src_label, tgt_label):
        return 0

    def identity(self, label):
        return 1

    def compose(self, f, g):
        return f * g

    def add(self, f, g):
        return f + g

    def negate(self, f):
        return -f

    def is_zero(self, f):
        return f == 0

    def equal(self, f, g):
        return f == g

    def is_isomorphism(self, f, src, tgt):
        return f in (1, -1)

    def invert(self, f):
        return f

    def dual(self, f):
        return f

    def degree_of(self, f, src, tgt):
        return None

    def tensor(self, f, g):
        return f * g

    def tensor_label(self, a, b):
        return (a, b)

    def encode(self, f):
        return int(f)

    def decode(self, data):
        return int(data)

    def encode_label(self, label):
        if isinstance(label, frozenset):
            return sorted(label)
        return label

    def decode_label(self, data):
        if isinstance(data, list):
            return frozenset(data)
        return data


class BimoduleArithmetic:
    """Exact Bott-Samelson bimodule morphisms; labels are BS words."""

    name = "bimodule"

    def __init__(self, n):
        self.n = n

    def word(self, label):
        return tuple(label)

    def zero(self, src_label, tgt_label):
        return bimod.Morphism.zero(self.n, self.word(src_label), self.word(tgt_label))

    def identity(self, label):
        return bimod.Morphism.identity(self.n, self.word(label))

    def compose(self, f, g):
        return f.compose(g)

    def add(self, f, g):
        return f + g

    def negate(self, f):
        return -f

    def is_zero(self, f):
        return f.is_zero()

    def equal(self, f, g):
        return f == g

    def divide_delta(self, f):
        matrix = tuple(
            tuple(divide_by_delta(x) for x in row) for row in f.matrix
        )
        deg = None if f.degree is None else f.degree - 2
        return bimod.Morphism(f.n, f.src, f.tgt, matrix, deg, check=False)

    def is_isomorphism(self, f, src, tgt):
        if len(f.src) != len(f.tgt):
            return False
        det = polymat.det_bareiss(f.matrix)
        return det.is_unit()

    def invert(self, f):
        return bimod.Morphism(
            f.n, f.tgt, f.src, polymat.mat_invert(f.matrix),
            None if f.degree is None else -f.degree, check=False,
        )

    def dual(self, f):
        return bimod.adjoint(f)

    def degree_of(self, f, src, tgt):
        return f.degree

    def tensor(self, f, g):
        return bimod.tensor(f, g)

    def tensor_label(self, a, b):
        return tuple(a) + tuple(b)

    def encode(self, f):
        return {
            "src": list(f.src),
            "tgt": list(f.tgt),
            "matrix": [[str(x) for x in row] for row in f.matrix],
        }

    def decode(self, data):
        matrix = tuple(
            tuple(parse_ring_element(self.n, x) for x in row)
            for row in data["matrix"]
        )
        return bimod.Morphism(
            self.n, tuple(data["src"]), tuple(data["tgt"]), matrix
        )

    def encode_label(self, label):
        return list(label)

    def decode_label(self, data):
        return tuple(data)


def arithmetic_for(backend, n):
    """The arithmetic of a backend name, over n strands."""
    if backend == "sign":
        return SignArithmetic()
    if backend == "matrix":
        return MatrixArithmetic(n)
    if backend == "bimodule":
        return BimoduleArithmetic(n)
    raise ValueError(f"unknown backend {backend!r}")


def compose_entries(ar, later, earlier):
    """later o earlier for sparse entry dicts (a, b) -> morphism.

    `later` is indexed by source once, so each entry of `earlier` meets only
    the entries of `later` leaving its target.  Products are summed per
    (a, c); zero sums are dropped.
    """
    by_src = {}
    for (b, c), mor in later.items():
        by_src.setdefault(b, []).append((c, mor))
    out = {}
    for (a, b), first in earlier.items():
        for c, second in by_src.get(b, ()):
            term = ar.compose(second, first)
            cur = out.get((a, c))
            out[(a, c)] = term if cur is None else ar.add(cur, term)
    return {k: v for k, v in out.items() if not ar.is_zero(v)}


def add_entries(ar, first, second, sign=1):
    """first + sign * second for sparse entry dicts; zero sums are dropped."""
    out = dict(first)
    for key, mor in second.items():
        if sign < 0:
            mor = ar.negate(mor)
        cur = out.get(key)
        out[key] = mor if cur is None else ar.add(cur, mor)
    return {k: v for k, v in out.items() if not ar.is_zero(v)}


def _check_entry_degree(ar, sa, sb, mor):
    """Raise unless the entry sa -> sb has the degree of the grading shifts."""
    deg = ar.degree_of(mor, sa.label, sb.label)
    if deg is not None and deg != sb.shift - sa.shift:
        raise ValueError(
            f"entry {sa.sid}->{sb.sid} has degree {deg}, expected "
            f"{sb.shift - sa.shift} from the grading shifts"
        )


def _entry_index(diff):
    """The targets of each source and the sources of each target of diff."""
    out_of, into = {}, {}
    for a, b in diff:
        out_of.setdefault(a, set()).add(b)
        into.setdefault(b, set()).add(a)
    return out_of, into


def _eliminate_pair(ar, by_sid, diff, out_of, into, f_id, fp_id, phi_inv):
    """Gaussian elimination of the invertible entry phi: F -> F', in place.

    diff is a mutable sparse differential with the indices of _entry_index;
    the caller inverts phi.  For every d: b -> F' and e: F -> c with b != F,
    c != F', the entry b -> c becomes d(b, c) - e phi_inv d; zero sums are
    dropped, every other written entry passes the degree check of the
    constructor, and the rows and columns of F and F' are removed.  Only the
    neighbours of the pair are visited.  Returns ([(b, phi_inv d)], [(c, e)],
    written keys).
    """
    lefts = [
        (b, ar.compose(phi_inv, diff[(b, fp_id)]))
        for b in into.get(fp_id, ()) if b != f_id
    ]
    rights = [(c, diff[(f_id, c)]) for c in out_of.get(f_id, ()) if c != fp_id]
    for sid in (f_id, fp_id):
        for b in into.pop(sid, ()):
            del diff[(b, sid)]
            out_of[b].discard(sid)
        for c in out_of.pop(sid, ()):
            del diff[(sid, c)]
            into[c].discard(sid)
    written = []
    for b, left in lefts:
        sb = by_sid[b]
        for c, e in rights:
            key = (b, c)
            term = ar.negate(ar.compose(e, left))
            cur = diff.get(key)
            mor = term if cur is None else ar.add(cur, term)
            if ar.is_zero(mor):
                if cur is not None:
                    del diff[key]
                    out_of[b].discard(c)
                    into[c].discard(b)
                continue
            _check_entry_degree(ar, sb, by_sid[c], mor)
            diff[key] = mor
            out_of.setdefault(b, set()).add(c)
            into.setdefault(c, set()).add(b)
            written.append(key)
    return lefts, rights, written


class Pseudocomplex:
    """Summands plus a sparse differential; d^2 must be a multiple of delta,
    which monodromy() checks (the constructor checks ids and degrees only)."""

    def __init__(self, arithmetic, summands, diff):
        self.arithmetic = arithmetic
        self.summands = sorted(summands, key=lambda s: (s.degree, s.sid))
        self.by_sid = {s.sid: s for s in self.summands}
        if len(self.by_sid) != len(self.summands):
            raise ValueError("duplicate summand ids")
        # (label, degree) -> summand; looked up only in complexes whose
        # labels are unique per degree, such as F and its tensor products
        self.by_label = {(s.label, s.degree): s for s in self.summands}
        self.diff = {}
        for (a, b), mor in diff.items():
            sa, sb = self.by_sid.get(a), self.by_sid.get(b)
            if sa is None or sb is None:
                raise ValueError(f"differential entry {a}->{b} names no summand")
            if arithmetic.is_zero(mor):
                continue
            if sb.degree != sa.degree + 1:
                raise ValueError(
                    f"differential entry {a}->{b} does not raise degree by 1"
                )
            _check_entry_degree(arithmetic, sa, sb, mor)
            self.diff[(a, b)] = mor

    def entry(self, a, b):
        got = self.diff.get((a, b))
        if got is None:
            return self.arithmetic.zero(self.by_sid[a].label, self.by_sid[b].label)
        return got

    def d_squared(self):
        """Sparse matrix of d^2 as a dict (a, c) -> morphism."""
        return compose_entries(self.arithmetic, self.diff, self.diff)

    def monodromy(self):
        """The unique mu with d^2 = mu . delta, as a ChainMap P -> P(-2)[2].

        Raises on a non-divisible entry, naming it.
        """
        ar = self.arithmetic
        entries = {}
        for (a, c), mor in self.d_squared().items():
            try:
                entries[(a, c)] = ar.divide_delta(mor)
            except (ArithmeticError, AttributeError) as exc:
                raise ValueError(
                    f"d^2 entry {a}->{c} is not divisible by delta: {exc}"
                ) from exc
        return ChainMap(self, self, entries, degree_shift=2)

    def dualize(self):
        """Transpose all differentials, negate degrees and shifts; DD = id."""
        ar = self.arithmetic
        summands = [
            Summand(s.sid, s.label, -s.shift, -s.degree)
            for s in self.summands
        ]
        diff = {(b, a): ar.dual(m) for (a, b), m in self.diff.items()}
        return Pseudocomplex(ar, summands, diff)

    def shift(self, grading=0, homological=0):
        """P(grading)[homological]: degrees drop by `homological`.

        An odd homological shift negates the differential.
        """
        summands = [
            Summand(s.sid, s.label, s.shift + grading, s.degree - homological)
            for s in self.summands
        ]
        diff = dict(self.diff)
        if homological % 2:
            diff = {k: self.arithmetic.negate(m) for k, m in diff.items()}
        return Pseudocomplex(self.arithmetic, summands, diff)

    def is_perverse(self):
        return all(s.shift == s.degree for s in self.summands)

    def is_multiplicity_free_perverse(self):
        if not self.is_perverse():
            return False
        seen = set()
        for s in self.summands:
            key = (repr(s.label), s.degree)
            if key in seen:
                return False
            seen.add(key)
        return True

    def summand_graph_components(self):
        """Connected components of the summand graph (edges at nonzero d)."""
        parent = {s.sid: s.sid for s in self.summands}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.diff:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups = {}
        for s in self.summands:
            groups.setdefault(find(s.sid), []).append(s.sid)
        return sorted(sorted(g) for g in groups.values())

    def indecomposability_certificate(self):
        """True when the summand graph is connected (and nonempty)."""
        return len(self.summand_graph_components()) == 1

    def gaussian_eliminate(self, pair):
        """Eliminate an invertible differential entry F -> F'.

        Returns (Q, alpha, beta, q) with alpha: P -> Q and beta: Q -> P
        satisfying alpha beta = id and beta alpha - id = dq + qd, where q is
        the homotopy phi^{-1} supported on F' -> F.
        """
        ar = self.arithmetic
        f_id, fp_id = pair
        phi = self.diff.get((f_id, fp_id))
        sf, sfp = self.by_sid[f_id], self.by_sid[fp_id]
        if phi is None or not ar.is_isomorphism(phi, sf.label, sfp.label):
            raise ValueError(f"entry {f_id}->{fp_id} is not an isomorphism")
        diff = dict(self.diff)
        out_of, into = _entry_index(diff)
        phi_inv = ar.invert(phi)
        lefts, rights, _ = _eliminate_pair(
            ar, self.by_sid, diff, out_of, into, f_id, fp_id, phi_inv
        )
        survivors = [s for s in self.summands if s.sid not in (f_id, fp_id)]
        q = Pseudocomplex(ar, survivors, diff)
        identities = {(s.sid, s.sid): ar.identity(s.label) for s in survivors}
        alpha_entries = dict(identities)
        beta_entries = dict(identities)
        for c, e in rights:
            alpha_entries[(fp_id, c)] = ar.negate(ar.compose(e, phi_inv))
        for b, left in lefts:
            beta_entries[(b, f_id)] = ar.negate(left)
        alpha = ChainMap(self, q, alpha_entries)
        beta = ChainMap(q, self, beta_entries)
        homotopy = Homotopy(self, self, {(fp_id, f_id): phi_inv})
        return q, alpha, beta, homotopy

    def simultaneous_eliminate(self, pairs):
        """Simultaneous Gaussian elimination of an independent family.

        Degree groups go in increasing degree on one differential.  A group
        must pass the independence certificate as its entries stand: every
        nonrepeating closed zigzag F_j -> F'_{s_0} -> F_{s_0} -> ... -> F'_j
        (j not in s) vanishes, else the first nonzero one is reported
        (shortest s first, each length in lexicographic order, then j).  Its
        pairs are then eliminated one at a time: the closed zigzags that
        would change a later pivot vanish, so each phi_j is inverted once,
        and the steps give the block Schur complement.
        """
        if not pairs:
            return self, []
        ar = self.arithmetic
        by_sid = self.by_sid
        diff = dict(self.diff)
        out_of, into = _entry_index(diff)
        by_deg = {}
        for pair in pairs:
            by_deg.setdefault(by_sid[pair[0]].degree, []).append(pair)
        trace = []
        for deg in sorted(by_deg):
            group = by_deg[deg]
            inverses = []
            for f_id, fp_id in group:
                phi = diff.get((f_id, fp_id))
                if phi is None or not ar.is_isomorphism(
                    phi, by_sid[f_id].label, by_sid[fp_id].label
                ):
                    raise ValueError(f"entry {f_id}->{fp_id} is not an isomorphism")
                inverses.append(ar.invert(phi))
            # (sequence s, phi_{s_last}^{-1} theta ... theta phi_{s_0}^{-1})
            level = [((j,), inv) for j, inv in enumerate(inverses)]
            while level:
                longer = []
                for seq, core in level:
                    last = group[seq[-1]][0]
                    for j, (f_id, fp_id) in enumerate(group):
                        start = diff.get((f_id, group[seq[0]][1]))
                        end = diff.get((last, fp_id))
                        if j in seq or start is None or end is None:
                            continue
                        if not ar.is_zero(ar.compose(end, ar.compose(core, start))):
                            raise ValueError(
                                f"family is not independent: nonzero zigzag "
                                f"{f_id}->{fp_id} through {seq}"
                            )
                    for k, inv in enumerate(inverses):
                        theta = diff.get((last, group[k][1]))
                        if k not in seq and theta is not None:
                            core_k = ar.compose(inv, ar.compose(theta, core))
                            longer.append((seq + (k,), core_k))
                level = longer
            for (f_id, fp_id), inv in zip(group, inverses):
                _eliminate_pair(ar, by_sid, diff, out_of, into, f_id, fp_id, inv)
            trace.append((deg, list(group)))
        removed = {sid for pair in pairs for sid in pair}
        survivors = [s for s in self.summands if s.sid not in removed]
        return Pseudocomplex(ar, survivors, diff), trace

    def minimal_complex(self):
        """Iterated single Gaussian elimination, in place on one differential.

        Each step eliminates the invertible entry with the least key
        (degree, source, target).  Keys wait in a heap and an entry is tested
        for invertibility when its key is popped; every entry an elimination
        writes is pushed again, so each invertible entry has a key in the
        heap and the order is that of rescanning all entries after each step.
        """
        ar = self.arithmetic
        by_sid = self.by_sid
        diff = dict(self.diff)
        out_of, into = _entry_index(diff)
        heap = [(by_sid[a].degree, a, b) for a, b in diff]
        heapq.heapify(heap)
        removed = set()
        while heap:
            _, a, b = heapq.heappop(heap)
            mor = diff.get((a, b))
            if mor is None or not ar.is_isomorphism(
                mor, by_sid[a].label, by_sid[b].label
            ):
                continue
            written = _eliminate_pair(
                ar, by_sid, diff, out_of, into, a, b, ar.invert(mor)
            )[2]
            removed.update((a, b))
            for key in written:
                heapq.heappush(heap, (by_sid[key[0]].degree, *key))
        survivors = [s for s in self.summands if s.sid not in removed]
        return Pseudocomplex(ar, survivors, diff)

    def split_summand(self, sid, pieces):
        """Replace a summand by direct-sum pieces.

        pieces is a list of (label, shift_offset, iota, pi) with
        pi_a iota_b = delta_ab id and sum iota_a pi_a = id; the differential
        is conjugated by the injections and projections.
        """
        ar = self.arithmetic
        old = self.by_sid[sid]
        total = None
        for _, _, iota, pi in pieces:
            term = ar.compose(iota, pi)
            total = term if total is None else ar.add(total, term)
        if not ar.equal(total, ar.identity(old.label)):
            raise ValueError("splitting data does not sum to the identity")
        next_sid = max(self.by_sid) + 1
        new_summands = [s for s in self.summands if s.sid != sid]
        piece_ids = []
        for label, offset, iota, pi in pieces:
            new_summands.append(
                Summand(next_sid, label, old.shift + offset, old.degree)
            )
            piece_ids.append((next_sid, iota, pi))
            next_sid += 1
        new_diff = {}
        for (a, b), mor in self.diff.items():
            if a != sid and b != sid:
                new_diff[(a, b)] = mor
        # the constructor refuses a (sid, sid) entry: it does not raise degree
        for (a, b), mor in self.diff.items():
            if a == sid:
                for pid, iota, pi in piece_ids:
                    entry = ar.compose(mor, iota)
                    if not ar.is_zero(entry):
                        new_diff[(pid, b)] = entry
            elif b == sid:
                for pid, iota, pi in piece_ids:
                    entry = ar.compose(pi, mor)
                    if not ar.is_zero(entry):
                        new_diff[(a, pid)] = entry
        return Pseudocomplex(ar, new_summands, new_diff)

    def to_json(self, n=None):
        ar = self.arithmetic
        return {
            "n": n,
            "backend": ar.name,
            "summands": [
                {
                    "id": s.sid,
                    "label": ar.encode_label(s.label),
                    "shift": s.shift,
                    "degree": s.degree,
                }
                for s in self.summands
            ],
            "diff": [
                {"from": a, "to": b, "morphism": ar.encode(m)}
                for (a, b), m in sorted(self.diff.items())
            ],
        }

    @classmethod
    def from_json(cls, data):
        arithmetic = arithmetic_for(data.get("backend", "sign"), data.get("n") or 0)
        summands = [
            Summand(
                s["id"], arithmetic.decode_label(s["label"]), s["shift"], s["degree"]
            )
            for s in data["summands"]
        ]
        diff = {
            (e["from"], e["to"]): arithmetic.decode(e["morphism"])
            for e in data["diff"]
        }
        return cls(arithmetic, summands, diff)


class ChainMap:
    """A collection of per-degree entries (src sid, tgt sid) -> morphism.

    degree_shift k means entries go from degree d summands of src to degree
    d + k summands of tgt (as in maps P -> Q[ -k ]-style bookkeeping kept
    external); for plain chain maps it is 0.
    """

    def __init__(self, src, tgt, entries, degree_shift=0):
        self.src = src
        self.tgt = tgt
        self.degree_shift = degree_shift
        ar = src.arithmetic
        self.entries = {
            k: m for k, m in entries.items() if not ar.is_zero(m)
        }

    def entry(self, a, b):
        got = self.entries.get((a, b))
        if got is None:
            return self.src.arithmetic.zero(
                self.src.by_sid[a].label, self.tgt.by_sid[b].label
            )
        return got

    def compose(self, other):
        """self after other."""
        entries = compose_entries(self.src.arithmetic, self.entries, other.entries)
        return ChainMap(other.src, self.tgt, entries, self.degree_shift + other.degree_shift)

    def add(self, other):
        out = add_entries(self.src.arithmetic, self.entries, other.entries)
        return ChainMap(self.src, self.tgt, out, self.degree_shift)

    def negate(self):
        ar = self.src.arithmetic
        negated = {k: ar.negate(m) for k, m in self.entries.items()}
        return ChainMap(self.src, self.tgt, negated, self.degree_shift)

    def is_zero(self):
        return not self.entries

    def is_identity(self):
        ar = self.src.arithmetic
        if {s.sid for s in self.src.summands} != {s.sid for s in self.tgt.summands}:
            return False
        for s in self.src.summands:
            if not ar.equal(self.entry(s.sid, s.sid), ar.identity(s.label)):
                return False
        return all(a == b for (a, b) in self.entries)

    def defect(self):
        """d_tgt f - (-1)^degree_shift f d_src, as raw entries."""
        ar = self.src.arithmetic
        return add_entries(
            ar,
            compose_entries(ar, self.tgt.diff, self.entries),
            compose_entries(ar, self.entries, self.src.diff),
            sign=-1 if self.degree_shift % 2 == 0 else 1,
        )

    def nu(self):
        """The exact quotient of the defect by delta (pseudochain property)."""
        ar = self.src.arithmetic
        out = {}
        for key, mor in self.defect().items():
            out[key] = ar.divide_delta(mor)
        return ChainMap(self.src, self.tgt, out, self.degree_shift + 1)

    def is_pseudo_chain_map(self):
        try:
            self.nu()
            return True
        except (ArithmeticError, ValueError):
            return False

    def is_chain_map(self):
        return not self.defect()


class Homotopy(ChainMap):
    """Entries drop homological degree by one."""

    def __init__(self, src, tgt, entries):
        super().__init__(src, tgt, entries, degree_shift=-1)

    def nulhomotopic_map(self):
        """dh + hd as a ChainMap src -> tgt: the defect of an odd map."""
        return ChainMap(self.src, self.tgt, self.defect(), 0)


def identity_chain_map(p):
    ar = p.arithmetic
    return ChainMap(
        p, p, {(s.sid, s.sid): ar.identity(s.label) for s in p.summands}
    )


def tensor(p, q, convention="standard"):
    """Tensor product with d = d_P (x) 1 + (-1)^i 1 (x) d_Q.

    The dotted convention uses (-1)^(i+1) on the second term; the complexes
    are isomorphic via (-1)^(j+1) on P^i (x) Q^j.  Summand ids are pairs'
    positions in the product ordering; labels combine by the arithmetic.
    """
    if convention not in ("standard", "dotted"):
        raise ValueError(f"unknown convention {convention!r}")
    ar = p.arithmetic
    pairs = [(a, b) for a in p.summands for b in q.summands]
    index = {(a.sid, b.sid): i for i, (a, b) in enumerate(pairs)}
    summands = [
        Summand(i, ar.tensor_label(a.label, b.label), a.shift + b.shift,
                a.degree + b.degree)
        for i, (a, b) in enumerate(pairs)
    ]
    diff = {}
    for (a1, a2), mor in p.diff.items():
        for b in q.summands:
            key = (index[(a1, b.sid)], index[(a2, b.sid)])
            diff[key] = ar.tensor(mor, ar.identity(b.label))
    for (b1, b2), mor in q.diff.items():
        for a in p.summands:
            exponent = a.degree + (1 if convention == "dotted" else 0)
            term = ar.tensor(ar.identity(a.label), mor)
            if exponent % 2:
                term = ar.negate(term)
            diff[(index[(a.sid, b1)], index[(a.sid, b2)])] = term
    return Pseudocomplex(ar, summands, diff)


def one_term_complex(arithmetic, label, shift=0, degree=0):
    return Pseudocomplex(arithmetic, [Summand(0, label, shift, degree)], {})
