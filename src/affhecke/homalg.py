"""Generic pseudocomplexes over a pluggable morphism arithmetic.

A pseudocomplex is a graded collection of labeled summands with a
differential satisfying d^2 = mu . delta for the designated central
parameter delta (a nonzero divisor).  The engine provides d^2 and monodromy
extraction, chain maps with their nu-defect, single and simultaneous
Gaussian elimination with explicit homotopy-equivalence witnesses, tensor
products, splittings of a summand and minimal complexes.

Three arithmetics ship: matrices over Q[d] (property tests), sign
bookkeeping (object-level checks, morphisms are integers +-1 composed
multiplicatively), and exact Bott-Samelson bimodule morphisms.  An
arithmetic supplies what differs between backends: zero and identity
morphisms, composition and its sums, the zero test, degrees, division by
delta, inversion, tensor products and serialization.  Morphism values add,
negate and compare with the operators +, unary - and ==.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import bimod, polymat
from .polymat import Matrix
from .rings import parse_ring_element


@dataclass(frozen=True)
class Summand:
    sid: int
    label: object
    shift: int
    degree: int


class MatrixArithmetic:
    """Morphisms are matrices over Q[x_1..x_n, d]; default n = 0 gives Q[d].

    Summand labels are ranks (free modules), ungraded: degree checks are
    skipped.  Complexes over it are built in memory and not serialized.
    """

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

    def compose_sum(self, pairs):
        return polymat.mat_mul_sum(pairs)

    def compose_sum_for_call(self):
        return self.compose_sum

    def is_zero(self, f):
        return polymat.mat_is_zero(f)

    def divide_delta(self, f):
        return polymat.mat_divide_delta(f)

    def is_isomorphism(self, f, src, tgt):
        rows, cols = polymat.mat_shape(f)
        return rows == cols and polymat.det_bareiss(f).is_unit()

    def invert(self, f):
        return polymat.mat_invert(f)

    def degree_of(self, f):
        return None

    def tensor(self, f, g):
        """The Kronecker product: block (r, c) is g f[r][c], for stored cells."""
        height, width = len(g.rows), g.width
        return polymat.mat_place(self.n, len(f.rows) * height, f.width * width, (
            (r * height, c * width, polymat.mat_scale(g, x))
            for r, row in enumerate(f.cells()) for c, x in row.items()
        ))

    def tensor_label(self, a, b):
        return self.rank(a) * self.rank(b)


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

    def compose_sum(self, pairs):
        total = 0
        for f, g in pairs:
            total += f * g
        return total

    def compose_sum_for_call(self):
        """compose_sum itself: a two-path sign sum costs about what a memo
        key would."""
        return self.compose_sum

    def is_zero(self, f):
        return f == 0

    def divide_delta(self, f):
        if f:
            raise ArithmeticError(f"the sign {f} is not a multiple of delta")
        return 0

    def is_isomorphism(self, f, src, tgt):
        return f in (1, -1)

    def invert(self, f):
        if f not in (1, -1):
            raise ArithmeticError(f"the sign {f} is not invertible")
        return f

    def degree_of(self, f):
        return None

    def tensor(self, f, g):
        return f * g

    def tensor_label(self, a, b):
        return (a, b)

    def encode(self, f):
        return int(f)

    def decode(self, data):
        return int(data)

    def decode_for_load(self):
        return self.decode

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

    def zero(self, src_label, tgt_label):
        return bimod.Morphism.zero(self.n, src_label, tgt_label)

    def identity(self, label):
        return bimod.Morphism.identity(self.n, label)

    def compose(self, f, g):
        return f.compose(g)

    def compose_sum(self, pairs):
        return bimod.compose_sum(pairs)

    def compose_sum_for_call(self):
        """compose_sum behind a memo for one compose_entries call, keyed by
        the identities of the pairs in order and with multiplicity, so a sum
        of the same products in several degrees is computed once.  The
        call's entry dicts keep every keyed morphism alive, so no id is
        reused while the memo lives."""
        memo = {}

        def compose_sum(pairs):
            key = tuple([id(x) for pair in pairs for x in pair])
            got = memo.get(key)
            if got is None:
                got = memo[key] = self.compose_sum(pairs)
            return got

        return compose_sum

    def is_zero(self, f):
        return f.is_zero()

    def divide_delta(self, f):
        matrix = polymat.mat_divide_delta(f.matrix)
        deg = None if f.degree is None else f.degree - 2
        return bimod.Morphism(f.n, f.src, f.tgt, matrix, deg, check=False)

    def is_isomorphism(self, f, src, tgt):
        return len(f.src) == len(f.tgt) and polymat.det_bareiss(f.matrix).is_unit()

    def invert(self, f):
        return bimod.Morphism(
            f.n, f.tgt, f.src, polymat.mat_invert(f.matrix),
            None if f.degree is None else -f.degree, check=False,
        )

    def degree_of(self, f):
        return f.degree

    def tensor(self, f, g):
        return bimod.tensor(f, g)

    def tensor_label(self, a, b):
        return tuple(a) + tuple(b)

    def encode(self, f):
        """The dense JSON form: every cell's text, "0" where none is stored."""
        return {"src": list(f.src), "tgt": list(f.tgt), "matrix": polymat.mat_texts(f.matrix)}

    def decode(self, data):
        """The morphism of encode's form; a cell whose text is 0 (the literal
        "0", unparsed, or any text that parses to 0) is not stored."""
        src, tgt, cells = tuple(data["src"]), tuple(data["tgt"]), data["matrix"]
        height, width = bimod.rank(tgt), bimod.rank(src)
        if len(cells) != height or any(len(row) != width for row in cells):
            raise ValueError(f"a morphism {src} -> {tgt} has a {height} x {width} matrix")
        rows = []
        for row in cells:
            out = {}
            for c, text in enumerate(row):
                if text != "0":
                    x = parse_ring_element(self.n, text)
                    if x.terms:
                        out[c] = x
            rows.append(out)
        degree = bimod.cells_degree(src, tgt, rows, None)
        return bimod.Morphism(self.n, src, tgt, Matrix(self.n, width, rows), degree, check=False)

    def decode_for_load(self):
        """decode behind a memo for one load, keyed by the full content (src,
        tgt and every cell's text), so equal entries share one morphism as
        in a built complex; each distinct content runs all of decode's
        checks, and content that cannot be keyed is decoded unshared."""
        memo = {}

        def decode(data):
            try:
                key = (
                    tuple(data["src"]), tuple(data["tgt"]),
                    tuple(map(tuple, data["matrix"])),
                )
                got = memo.get(key)
            except (KeyError, TypeError):
                return self.decode(data)
            if got is None:
                got = memo[key] = self.decode(data)
            return got

        return decode

    def encode_label(self, label):
        return list(label)

    def decode_label(self, data):
        return tuple(data)


def arithmetic_for(backend, n):
    """The arithmetic of a serialized backend name, over n strands."""
    if backend == "sign":
        return SignArithmetic()
    if backend == "bimodule":
        return BimoduleArithmetic(n)
    raise ValueError(f"unknown backend {backend!r}")


def compose_entries(ar, later, earlier):
    """later o earlier for sparse entry dicts (a, b) -> morphism.

    `later` is indexed by source once, and `earlier` by source among the
    entries whose target some entry of `later` leaves.  One source row at a
    time, the paths a -> b -> c are grouped by c, and each entry (a, c) is
    one sum over its paths by the arithmetic's `compose_sum_for_call()`;
    zero sums are dropped.  Over bimodules that sum is memoized for the
    call, so entries made of the same products in the same order (a signed
    dot sits in several degrees of F) share one computed morphism.
    """
    by_src = {}
    for (b, c), mor in later.items():
        by_src.setdefault(b, []).append((c, mor))
    rows = {}
    for (a, b), first in earlier.items():
        if b in by_src:
            rows.setdefault(a, []).append((b, first))
    compose_sum = ar.compose_sum_for_call()
    out = {}
    for a, firsts in rows.items():
        paths = {}
        for b, first in firsts:
            for c, second in by_src[b]:
                paths.setdefault(c, []).append((second, first))
        for c, pairs in paths.items():
            mor = compose_sum(pairs)
            if not ar.is_zero(mor):
                out[(a, c)] = mor
    return out


def add_entries(ar, first, second, sign=1):
    """first + sign * second for sparse entry dicts; zero sums are dropped."""
    out = dict(first)
    for key, mor in second.items():
        if sign < 0:
            mor = -mor
        cur = out.get(key)
        out[key] = mor if cur is None else cur + mor
    return {k: v for k, v in out.items() if not ar.is_zero(v)}


def _check_entry_degree(ar, sa, sb, mor):
    """Raise unless the entry sa -> sb has the degree of the grading shifts."""
    deg = ar.degree_of(mor)
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


def _pivot_inverse(ar, diff, key):
    """The inverse of the entry at key, or None when it is missing or not
    invertible: the one invertibility decision of elimination."""
    phi = diff.get(key)
    if phi is None:
        return None
    try:
        return ar.invert(phi)
    except ArithmeticError:
        return None


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
            term = -ar.compose(e, left)
            cur = diff.get(key)
            mor = term if cur is None else cur + term
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
            except ArithmeticError as exc:
                raise ValueError(
                    f"d^2 entry {a}->{c} is not divisible by delta: {exc}"
                ) from exc
        return ChainMap(self, self, entries, degree_shift=2)

    def gaussian_eliminate(self, pair):
        """Eliminate an invertible differential entry F -> F'.

        Returns (Q, alpha, beta, q) with alpha: P -> Q and beta: Q -> P
        satisfying alpha beta = id and beta alpha - id = dq + qd, where q is
        the homotopy phi^{-1} supported on F' -> F.
        """
        ar = self.arithmetic
        f_id, fp_id = pair
        phi_inv = _pivot_inverse(ar, self.diff, (f_id, fp_id))
        if phi_inv is None:
            raise ValueError(f"entry {f_id}->{fp_id} is not an isomorphism")
        diff = dict(self.diff)
        out_of, into = _entry_index(diff)
        lefts, rights, _ = _eliminate_pair(
            ar, self.by_sid, diff, out_of, into, f_id, fp_id, phi_inv
        )
        survivors = [s for s in self.summands if s.sid not in (f_id, fp_id)]
        q = Pseudocomplex(ar, survivors, diff)
        identities = {(s.sid, s.sid): ar.identity(s.label) for s in survivors}
        alpha_entries = dict(identities)
        beta_entries = dict(identities)
        for c, e in rights:
            alpha_entries[(fp_id, c)] = -ar.compose(e, phi_inv)
        for b, left in lefts:
            beta_entries[(b, f_id)] = -left
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
                inv = _pivot_inverse(ar, diff, (f_id, fp_id))
                if inv is None:
                    raise ValueError(f"entry {f_id}->{fp_id} is not an isomorphism")
                inverses.append(inv)
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
            inv = _pivot_inverse(ar, diff, (a, b))
            if inv is None:
                continue
            written = _eliminate_pair(ar, by_sid, diff, out_of, into, a, b, inv)[2]
            removed.update((a, b))
            for key in written:
                heapq.heappush(heap, (by_sid[key[0]].degree, *key))
        survivors = [s for s in self.summands if s.sid not in removed]
        return Pseudocomplex(ar, survivors, diff)

    def split_summand(self, sid, pieces):
        """Replace a summand by direct-sum pieces.

        pieces is a list of (label, shift_offset, iota, pi); sum iota_a pi_a =
        id and pi_a iota_b = delta_ab id are checked, naming a failing pair; the
        differential is conjugated by the injections and projections.
        """
        ar = self.arithmetic
        old = self.by_sid[sid]
        pairs = [(iota, pi) for _, _, iota, pi in pieces]
        if not pairs or ar.compose_sum(pairs) != ar.identity(old.label):
            raise ValueError("splitting data does not sum to the identity")
        for a, (label, _, _, pi) in enumerate(pieces):
            for b, (label_b, _, iota, _) in enumerate(pieces):
                want = ar.identity(label) if a == b else ar.zero(label_b, label)
                if ar.compose(pi, iota) != want:
                    raise ValueError(f"pieces {a}, {b}: pi_a iota_b is not delta_ab id")
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
        # the constructor refuses a (sid, sid) entry (it does not raise
        # degree) and drops zero entries
        for (a, b), mor in self.diff.items():
            if a == sid:
                for pid, iota, _ in piece_ids:
                    new_diff[(pid, b)] = ar.compose(mor, iota)
            elif b == sid:
                for pid, _, pi in piece_ids:
                    new_diff[(a, pid)] = ar.compose(pi, mor)
            else:
                new_diff[(a, b)] = mor
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
        decode = arithmetic.decode_for_load()
        diff = {(e["from"], e["to"]): decode(e["morphism"]) for e in data["diff"]}
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
        negated = {k: -m for k, m in self.entries.items()}
        return ChainMap(self.src, self.tgt, negated, self.degree_shift)

    def is_zero(self):
        return not self.entries

    def is_identity(self):
        ar = self.src.arithmetic
        if {s.sid for s in self.src.summands} != {s.sid for s in self.tgt.summands}:
            return False
        for s in self.src.summands:
            if self.entry(s.sid, s.sid) != ar.identity(s.label):
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


def tensor(p, q):
    """Tensor product with d = d_P (x) 1 + (-1)^i 1 (x) d_Q.

    Summand ids are pairs' positions in the product ordering; labels combine
    by the arithmetic.
    """
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
            term = ar.tensor(ar.identity(a.label), mor)
            if a.degree % 2:
                term = -term
            diff[(index[(a.sid, b1)], index[(a.sid, b2)])] = term
    return Pseudocomplex(ar, summands, diff)


def one_term_complex(arithmetic, label):
    return Pseudocomplex(arithmetic, [Summand(0, label, 0, 0)], {})
