"""Finite, affine and cylindrical Hecke algebras over Z[v, v^-1].

Elements are finite maps from ExtendedWeylElement to Laurent polynomials in
the standard basis {H_w}.  Multiplication uses the quadratic relation
H_s^2 = (v^-1 - v) H_s + 1 and omega-conjugation H_w H_omega =
H_{omega} H_{tau^{-1}(w)}.  Right multiplication by H_s, H_s^-1 and
b_s = H_s + v is one step H_w -> H_{ws} + m H_w with the Laurent multiplier
m chosen by the descent; for b_s, m is v or v^-1, so the step only shifts
exponents.  The step reads ws and the descent from one w.step(k), pairs w
with ws and writes each output coefficient once, adding p m into the
coefficient at w in one pass (LaurentPoly.plus_product); a product whose
right factor is b_s is that step.  Serialize reads each term's place in the
term order and its text from one memo, and an element keeps its own text
after the first serialize (no code writes into a wrapped element's coeffs).
Kazhdan-Lusztig elements b_w are computed by the mu-rule
b_w = b_{ws} b_s - sum mu(y, ws) b_y.  The base case b_{w_I} b_{h_X} of
c_{I,X,Y} is b_{w_I} stepped by b_s along a word of h_X, each prefix of that
word once per process.  The omega power is carried exactly in Z.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .rings import LaurentPoly, gauss
from .weyl import (
    CACHE_SIZE,
    DEFAULT_LENGTH_CAP,
    ExtendedWeylElement,
    longest_element,
    preferred_word,
    residues,
    tau_components,
)


_V_INV_MINUS_V = LaurentPoly({-1: 1, 1: -1})
_V_MINUS_V_INV = LaurentPoly({1: 1, -1: -1})
_V = LaurentPoly({1: 1})
_V_INV = LaurentPoly({-1: 1})


def _add_term(out, w, p):
    """out[w] += p in place, dropping the key when the sum vanishes."""
    q = out.get(w)
    if q is None:
        out[w] = p
        return
    q = q + p
    if q.coeffs:
        out[w] = q
    else:
        del out[w]


def _add_scaled(out, coeffs, scale):
    """out += scale * coeffs in place; scale is a nonzero LaurentPoly or int."""
    for w, p in coeffs.items():
        _add_term(out, w, p * scale)


class HeckeElement:
    """Finite support map ExtendedWeylElement -> LaurentPoly, no zeros.

    An element is never changed once built: no code writes into the coeffs
    of a wrapped element, so the text of its first serialize() is kept.
    """

    __slots__ = ("n", "coeffs", "_text")

    def __init__(self, n, coeffs=None):
        self.n = n
        clean = {}
        if coeffs:
            for w, p in coeffs.items():
                if w.n != n:
                    raise ValueError("mismatched n in Hecke support")
                if not p.is_zero():
                    _add_term(clean, w, p)
        self.coeffs = clean
        self._text = None

    @classmethod
    def _trusted(cls, n, coeffs):
        """Wrap a dict that already maps elements of W_ext(n) to nonzero
        LaurentPolys."""
        out = object.__new__(cls)
        out.n = n
        out.coeffs = coeffs
        out._text = None
        return out

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def unit(cls, n):
        return cls(n, {ExtendedWeylElement.identity(n): LaurentPoly.one()})

    @classmethod
    def std(cls, w, coeff=None):
        return cls(w.n, {w: coeff if coeff is not None else LaurentPoly.one()})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, p in other.coeffs.items():
            _add_term(out, w, p)
        return HeckeElement._trusted(self.n, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for w, p in other.coeffs.items():
            _add_term(out, w, -p)
        return HeckeElement._trusted(self.n, out)

    def __neg__(self):
        return HeckeElement._trusted(self.n, {w: -p for w, p in self.coeffs.items()})

    def scale(self, laurent):
        if laurent.is_zero():
            return HeckeElement.zero(self.n)
        return HeckeElement._trusted(
            self.n, {w: p * laurent for w, p in self.coeffs.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def _step(self, k, descent, ascent):
        """Right multiplication by H_{s_k} + c, with c a Laurent polynomial.

        Every such product sends p H_w to p H_{ws} + p m H_w, where the
        multiplier m is descent when ws < w and ascent otherwise; None stands
        for m = 0.  s_k pairs the support off, so the output at w is
        coeffs[ws] + p m, made in one pass: a w whose ws lies outside the
        support hands p to ws and keeps p m, and a sum that cancels is
        dropped.
        """
        coeffs = self.coeffs
        out = {}
        for w, p in coeffs.items():
            ws, down = w.step(k)
            m = descent if down else ascent
            q = coeffs.get(ws)
            if q is None:
                out[ws] = p
                if m is not None:
                    out[w] = p * m
            elif m is None:
                out[w] = q
            else:
                q = q.plus_product(p, m)
                if q.coeffs:
                    out[w] = q
        return HeckeElement._trusted(self.n, out)

    def times_simple(self, k):
        """Right multiplication by H_{s_k}.

        H_w H_s = H_{ws} when ws > w, and H_{ws} + (v^-1 - v) H_w otherwise.
        """
        return self._step(k, _V_INV_MINUS_V, None)

    def times_simple_inverse(self, k):
        """Right multiplication by H_{s_k}^{-1} = H_{s_k} + (v - v^{-1}).

        H_w H_s^{-1} = H_{ws} when ws < w, and H_{ws} + (v - v^-1) H_w
        otherwise.
        """
        return self._step(k, None, _V_MINUS_V_INV)

    def times_b_simple(self, k):
        """Right multiplication by b_{s_k} = H_{s_k} + v.

        H_w b_s = H_{ws} + v H_w when ws > w, and H_{ws} + v^-1 H_w
        otherwise; both multipliers are monomials, so each product only
        shifts exponents.
        """
        return self._step(k, _V_INV, _V)

    def times_omega(self, e=1):
        """Right multiplication by H_omega^e."""
        if not e:
            return self
        om = ExtendedWeylElement.rotation(self.n, e)
        return HeckeElement._trusted(self.n, {w * om: p for w, p in self.coeffs.items()})

    def _expand(self, start, step, coeff):
        """The sum of coeff(p) T_w over the terms p H_w, where T_w is
        start(omega power of w) stepped by step(., k) along a reduced word.

        Every prefix is computed once, keyed by the group element it reaches,
        and the terms accumulate into one dict.
        """
        prefixes = {}
        out = {}
        for w, p in self.coeffs.items():
            x = ExtendedWeylElement.rotation(self.n, w.omega)
            term = prefixes.get(x)
            if term is None:
                term = prefixes[x] = start(w.omega)
            for k in w.reduced_word():
                x = x.times_simple(k)
                nxt = prefixes.get(x)
                if nxt is None:
                    nxt = prefixes[x] = step(term, k)
                term = nxt
            _add_scaled(out, term.coeffs, coeff(p))
        return HeckeElement._trusted(self.n, out)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return self.scale(other)
        if self.n != other.n:
            raise ValueError("mismatched n")
        k = other._b_simple_index()
        if k is not None:
            return self.times_b_simple(k)
        return other._expand(
            self.times_omega, HeckeElement.times_simple, lambda p: p
        )

    def _b_simple_index(self):
        """k when self is b_{s_k} = H_{s_k} + v, else None: exactly two
        terms, an omega-free length-1 element with coefficient 1 and the
        identity with coefficient v."""
        if len(self.coeffs) != 2:
            return None
        (x, p), (y, q) = self.coeffs.items()
        if x.is_identity():
            x, p, y, q = y, q, x, p
        if not (
            y.is_identity()
            and q.coeffs == {1: 1}
            and p.coeffs == {0: 1}
            and not x.omega
            and x.length() == 1
        ):
            return None
        return next(k for k in range(self.n) if x.has_right_descent(k))

    def bar(self):
        """Kazhdan-Lusztig bar involution: v -> v^-1, H_w -> H_{w^-1}^{-1}."""
        n = self.n
        return self._expand(
            lambda e: HeckeElement.std(ExtendedWeylElement.rotation(n, e)),
            HeckeElement.times_simple_inverse,
            LaurentPoly.bar,
        )

    def coefficient(self, w):
        return self.coeffs.get(w, LaurentPoly.zero())

    def serialize(self):
        """Stable text form, lines ordered by (length, window lex, omega);
        made on the first call and kept."""
        text = self._text
        if text is None:
            items = [term_key(w) + (p,) for w, p in self.coeffs.items()]
            items.sort(key=itemgetter(0))
            text = self._text = "\n".join([f"{label} : {p}" for _, label, p in items])
        return text

    def __str__(self):
        return self.serialize() if self.coeffs else "0"

    __repr__ = __str__


@lru_cache(maxsize=CACHE_SIZE)
def term_key(w):
    """The place of H_w in the term order and its text: the sort key
    (length, window, omega) that serialize and the Kazhdan-Lusztig expansion
    read, and the label "(omega, window)" of its serialize line."""
    return (w.length(), w.window, w.omega), f"({w.omega}, {' '.join(map(str, w.window))})"


def b_simple(n, k):
    """b_{s_k} = H_{s_k} + v."""
    return HeckeElement(
        n,
        {
            ExtendedWeylElement.simple(n, k): LaurentPoly.one(),
            ExtendedWeylElement.identity(n): LaurentPoly.v(1),
        },
    )


def kl_basis(w, length_cap=DEFAULT_LENGTH_CAP):
    """The Kazhdan-Lusztig basis element b_w of an element of length <= length_cap."""
    if w.length() > length_cap:
        raise ValueError(f"length {w.length()} exceeds cap {length_cap}")
    if not w.omega:
        return _kl_basis(w)
    # H_omega has length 0, so H_{omega^e} H_y = H_{omega^e y}
    om = ExtendedWeylElement.rotation(w.n, w.omega)
    base = _kl_basis(ExtendedWeylElement(0, w.window))
    return HeckeElement._trusted(w.n, {om * y: p for y, p in base.coeffs.items()})


@lru_cache(maxsize=CACHE_SIZE)
def _kl_basis(w):
    """b_w for an omega-free w.

    For a right descent s of w, the mu-rule (Kazhdan-Lusztig 1979, in the
    normalization b_s = H_s + v) gives

        b_w = b_{ws} b_s - sum of mu(y, ws) b_y over y < ws with ys < y,

    where mu(y, ws) is the v^1-coefficient of b_{ws} at H_y.  The product
    b_{ws} b_s is one times_b_simple step; coefficients of b_w below the top
    lie in vZ[v].  The mu-corrections go into a copy of that step's dict: a
    wrapped element's coeffs are never written.
    """
    n = w.n
    if w.is_identity():
        return HeckeElement.unit(n)
    k = next(k for k in range(n) if w.has_right_descent(k))
    lower = _kl_basis(w.times_simple(k))
    coeffs = dict(lower.times_b_simple(k).coeffs)
    for y, p in lower.coeffs.items():
        mu = p.coeffs.get(1)
        if mu and y.has_right_descent(k):
            _add_scaled(coeffs, _kl_basis(y).coeffs, -mu)
    return HeckeElement._trusted(n, coeffs)


def braid_hecke_image(b):
    """The image of a braid word in the Hecke algebra (f_i -> H_{s_i})."""
    out = HeckeElement.unit(b.n)
    for tok in b.letters:
        if tok[0] == "w":
            out = out.times_omega(tok[1])
        elif tok[2] > 0:
            out = out.times_simple(tok[1])
        else:
            out = out.times_simple_inverse(tok[1])
    return out


def symbol_of_complex(n, complex_, element_of_label):
    """Alternating sum:  sum over summands of (-1)^degree v^shift b_w.

    element_of_label maps a summand label to its group element; a summand it
    cannot resolve is an error.  The empty complex has symbol 0.
    """
    total = HeckeElement.zero(n)
    for s in complex_.summands:
        w = element_of_label(s.label)
        if w is None or w.n != n:
            raise ValueError(f"unlabeled summand {s.sid}")
        term = kl_basis(w).scale(LaurentPoly.v(s.shift))
        total = total + (term if s.degree % 2 == 0 else -term)
    return total


def center_character(n, k):
    """Sum of Hecke images of w_lambda over the weights of Lambda^k V."""
    from itertools import combinations

    from .braid import w_lambda

    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    total = HeckeElement.zero(n)
    for support in combinations(range(n), k):
        lam = [1 if i in support else 0 for i in range(n)]
        total = total + braid_hecke_image(w_lambda(n, lam))
    return total


def is_central(a):
    """Necessary test: commutation with every b_{s_i} and with H_omega."""
    n = a.n
    om = HeckeElement.std(ExtendedWeylElement.rotation(n, 1))
    if not (a * om - om * a).is_zero():
        return False
    for i in range(n):
        b = b_simple(n, i)
        if not (a * b - b * a).is_zero():
            return False
    return True


def flatten_hecke(a):
    """The flattening homomorphism H_extg -> H_fin.

    Each basis element is evaluated through a positive word (omega power plus
    a reduced word) with the braid-level flattening of every letter; the
    quadratic relation makes the result independent of the reduced word.
    """
    from .braid import BraidWord, flatten

    n = a.n
    total = HeckeElement.zero(n)
    for w, p in a.coeffs.items():
        letters = [("w", 1)] * max(w.omega, 0) + [("w", -1)] * max(-w.omega, 0)
        letters += [("f", k, 1) for k in w.reduced_word()]
        flat_word = flatten(BraidWord(n, tuple(letters)))
        total = total + braid_hecke_image(flat_word).scale(p)
    return total


def c_element(n, I, X, Y, length_cap=DEFAULT_LENGTH_CAP, _memo=None, order="first"):
    """The recursively defined element c_{I,X,Y}.

    Y must be a tau-suffix with respect to I contained in X.  Base case
    c_{I,X,empty} = b_{w_I} b_{h_X}; growing the suffix at m trades
    c_{I,X,Y} = c_{I,X,Ym} + c_{I,X\\{m,m+1},Y\\{m+1}}; the result does not
    depend on the order the indices of Y were absorbed (the `order` knob
    varies the component traversal so tests can check this; it is "first"
    or "last").  Entries of `_memo` are keyed by (n, I, X, Y), so one memo
    may serve several I.
    """
    if order not in ("first", "last"):
        raise ValueError(f"order must be 'first' or 'last', not {order!r}")
    I = residues(n, I)
    X = residues(n, X)
    Y = residues(n, Y)
    if not Y <= X:
        raise ValueError("Y must be contained in X")
    if len(X) >= n:
        raise ValueError("X must be proper")
    if not _is_tau_suffix(n, I, Y):
        raise ValueError(f"Y={sorted(Y)} is not a tau-suffix for I={sorted(I)}")
    comps = tau_components(n, I)
    if _memo is None:
        _memo = {}
    if order == "last":
        comps = list(reversed(comps))
    return _c_element(n, I, X, Y, comps, length_cap, _memo)


def is_tau_suffix(n, I, Y, comps=None):
    """Per tau-component, Y meets the component in a suffix {m..max}.

    I and Y are read mod n, and the answer is computed once per (n, I mod n,
    Y mod n); comps is accepted and not read.
    """
    return _is_tau_suffix(n, residues(n, I), residues(n, Y))


@lru_cache(maxsize=CACHE_SIZE)
def _is_tau_suffix(n, I, Y):
    for comp in tau_components(n, I):
        inter = [v for v in comp if v in Y]
        if inter and tuple(inter) != comp[-len(inter):]:
            return False
    return True


def _c_element(n, I, X, Y, comps, length_cap, memo):
    key = (n, I, X, Y)
    got = memo.get(key)
    if got is not None:
        return got
    if not Y:
        # h_X is a product of distinct simple reflections, so its Bruhat
        # interval is Boolean: the Bott-Samelson product of the b_s along
        # its word is bar-invariant with lower coefficients in vZ[v], hence
        # equal to b_{h_X}, and b_{w_I} b_{h_X} is b_{w_I} stepped by b_s.
        if len(X) > length_cap:
            raise ValueError(f"length {len(X)} exceeds cap {length_cap}")
        w = longest_element(n, I)
        if w.length() > length_cap:
            raise ValueError(f"length {w.length()} exceeds cap {length_cap}")
        out = _stepped_by_b(w, preferred_word(n, X))
        memo[key] = out
        return out
    # peel the last-absorbed index of some component suffix
    comp = next(c for c in comps if set(c) & Y)
    suffix = [v for v in comp if v in Y]
    m = suffix[0]
    if m == comp[-1]:
        # m initiates: free absorption
        out = _c_element(n, I, X, Y - {m}, comps, length_cap, memo)
    else:
        succ = comp[comp.index(m) + 1]
        out = _c_element(n, I, X, Y - {m}, comps, length_cap, memo) - _c_element(
            n, I, X - {m, succ}, Y - {m, succ}, comps, length_cap, memo
        )
    memo[key] = out
    return out


@lru_cache(maxsize=CACHE_SIZE)
def _stepped_by_b(w, word):
    """b_w b_{s_1} ... b_{s_k} for an omega-free w and a word (s_1, ..., s_k).

    Each prefix of the word goes through this memo, so every Bott-Samelson
    prefix of b_{w_I} is stepped once per process, whatever X, memo or
    traversal order asked for it.  Callers check the length cap.
    """
    if not word:
        return _kl_basis(w)
    return _stepped_by_b(w, word[:-1]).times_b_simple(word[-1])


def godown_applicable(n, I, X, Y, j, comps=None):
    """The hypothesis under which c_{I,X,Y} = (v+v^-1) c_{I,X\\j,Y}.

    Yj must fail to be a tau-suffix (so j+1 is not in Y and j is not the top
    of its component, forcing j into I), and every member of X in j's
    component strictly above j must already be absorbed into Y.  Without the
    second condition letters of X separate j from the absorbed block and the
    identity genuinely fails (e.g. I={0}, X={0,1}, Y=empty, j=0 at n=3).
    """
    I = residues(n, I)
    if comps is None:
        comps = tau_components(n, I)
    X = residues(n, X)
    Y = residues(n, Y)
    j %= n
    if j not in X or j in Y or _is_tau_suffix(n, I, Y | {j}):
        return False
    comp = next(c for c in comps if j in c)
    above = set(comp[comp.index(j) + 1:])
    return (X & above) <= Y


def c_godown_rhs(n, I, X, Y, j, length_cap=DEFAULT_LENGTH_CAP, _memo=None):
    """(v + v^-1) c_{I,X\\j,Y}: the value under the godown hypothesis, with
    X and j read mod n."""
    return c_element(n, I, residues(n, X) - {j % n}, Y, length_cap, _memo).scale(gauss(2))
