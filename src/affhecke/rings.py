"""Exact arithmetic for the two coefficient rings used everywhere else.

``LaurentPoly`` is Z[v, v^-1] with integer coefficients.  ``RingElement`` is
the polynomial ring Q[x_1, ..., x_n, d] of the standard affine realization,
where ``d`` denotes the invariant element delta = sum of the simple roots;
x_i and d each have (doubled) degree 2.  A ``RingElement`` stores only its
nonzero terms, each under its exponent vector packed into one int: a field
of ``_WIDTH`` bits per variable, x_1 most significant and d least, whose top
bit is a guard.  Integer order is then the lex order of exponent vectors, a
product of monomials is one addition, and a set guard bit is an exponent
that reached ``EXPONENT_LIMIT`` (Monagan and Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).
Exponent vectors enter and leave as tuples: through the constructor,
``parse_ring_element`` and the text.

All values are immutable after construction and every operation is a pure
function, so elements can be shared freely between threads.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import or_

from .weyl import CACHE_SIZE


class LaurentPoly:
    """Laurent polynomial in v with integer coefficients.

    coeffs maps exponent -> nonzero integer coefficient.  The constructor
    accepts any integral exponent and coefficient (Fraction(4, 2) becomes 2)
    and refuses a term that is not integral.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    ie, ic = int(e), int(c)
                    if ie != e or ic != c:
                        raise ValueError(f"non-integral term {c}*v^{e}")
                    clean[ie] = clean.get(ie, 0) + ic
        self.coeffs = {e: c for e, c in clean.items() if c}

    @classmethod
    def _trusted(cls, coeffs):
        """Wrap a dict that already maps int exponents to nonzero ints."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def v(cls, power=1, coeff=1):
        return cls({power: coeff})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._trusted(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c = out.get(e, 0) - c
            if c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._trusted(out)

    def __neg__(self):
        return LaurentPoly._trusted({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            return LaurentPoly._trusted({e: c * other for e, c in self.coeffs.items()})
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a monomial factor only shifts exponents and scales coefficients
            ((shift, scale),) = b.items()
            return LaurentPoly._trusted({e + shift: c * scale for e, c in a.items()})
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._trusted({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def plus_product(self, p, m):
        """self + p * m in one pass over the terms of p * m, dropping every
        coefficient that cancels."""
        out = dict(self.coeffs)
        for e2, c2 in m.coeffs.items():
            for e1, c1 in p.coeffs.items():
                e = e1 + e2
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    del out[e]
        return LaurentPoly._trusted(out)

    def bar(self):
        """v -> v^-1."""
        return LaurentPoly._trusted({-e: c for e, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        return _laurent_text(tuple(self.coeffs.items()))

    __repr__ = __str__


@lru_cache(maxsize=CACHE_SIZE)
def _laurent_text(terms):
    """The text of a Laurent polynomial, highest power first, from its
    (exponent, coefficient) terms in insertion order: the key is the dict's
    own order, so that __str__ sorts nothing, and only a miss sorts."""
    if not terms:
        return "0"
    parts = []
    for e, c in sorted(terms, reverse=True):
        if e == 0:
            term = str(abs(c))
        else:
            vp = "v" if e == 1 else f"v^{e}"
            term = vp if abs(c) == 1 else f"{abs(c)}*{vp}"
        parts.append(("-" if c < 0 else "+", term))
    sign, first = parts[0]
    text = ("-" if sign == "-" else "") + first
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def gauss(k):
    """The balanced quantum integer [k] = v^{k-1} + v^{k-3} + ... + v^{1-k}."""
    return LaurentPoly({k - 1 - 2 * j: 1 for j in range(k)})


def _coeff(c):
    """A rational coefficient as an int when it is integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _cleaned(acc):
    """An accumulated term dict without zeros and with integral values as int."""
    return {m: c if type(c) is int else _coeff(c) for m, c in acc.items() if c}


_WIDTH = 16  # bits per packed exponent: 15 value bits under one guard bit
EXPONENT_LIMIT = 1 << (_WIDTH - 1)  # every exponent is below it
_FIELD = EXPONENT_LIMIT - 1  # the value bits of the lowest field, d's


@lru_cache(maxsize=CACHE_SIZE)
def _guards(n):
    """The guard bits of the n + 1 fields of a packed monomial."""
    return sum(EXPONENT_LIMIT << (k * _WIDTH) for k in range(n + 1))


def _pack(n, mono):
    """The packed monomial of an exponent vector (x_1, ..., x_n, d); refuses
    a vector of another length or an exponent outside 0..EXPONENT_LIMIT-1."""
    mono = tuple(mono)
    if len(mono) != n + 1:
        raise ValueError(f"monomial {mono} has {len(mono)} exponents, not n + 1 = {n + 1}")
    packed = 0
    for e in mono:
        if not 0 <= e < EXPONENT_LIMIT:
            raise ValueError(
                f"exponent {e} of monomial {mono} is outside 0..{EXPONENT_LIMIT - 1}"
            )
        packed = packed << _WIDTH | e
    return packed


def packed_bits(n):
    """The bits of a packed monomial over n: none is set at or above them."""
    return _WIDTH * (n + 1)


def delta_zero_terms(terms):
    """The terms of an element, or the keys of a packed matrix row, whose d
    exponent is 0: the image in R/(d).  d is the lowest field of every key."""
    return {m: c for m, c in terms.items() if not m & _FIELD}


def _unpack(n, packed):
    """The exponent vector (x_1, ..., x_n, d) of a packed monomial."""
    return tuple((packed >> (k * _WIDTH)) & _FIELD for k in range(n, -1, -1))


def _unit_mono(n, index):
    """The packed monomial of the single variable at position index."""
    return 1 << ((n - index) * _WIDTH)


def checked_terms(n, acc):
    """An accumulated dict without zeros and with integral values as int; its
    keys hold a packed monomial over n in their low packed_bits(n) bits.  Raises
    OverflowError when a key, even one of value 0, sets a guard bit."""
    if acc and reduce(or_, acc) & _guards(n):
        raise OverflowError(f"a product has an exponent of at least {EXPONENT_LIMIT}")
    return _cleaned(acc)


class RingElement:
    """Element of R = Q[x_1..x_n, d] with sparse rational terms.

    terms maps the packed monomial of each exponent vector (x_1, ..., x_n, d)
    to its coefficient; see the module docstring for the packing.  The
    constructor takes exponent tuples and refuses one of the wrong length or
    with an exponent outside 0..EXPONENT_LIMIT-1.  No zero coefficients are
    stored; a coefficient is an int when it is integral and a Fraction
    otherwise.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for mono, c in terms.items():
                m = _pack(n, mono)
                c = _coeff(c)
                if c:
                    clean[m] = clean.get(m, 0) + c
        self.terms = _cleaned(clean)

    @classmethod
    def _trusted(cls, n, terms):
        """Wrap a dict of packed monomials to nonzero, normalized coefficients."""
        out = object.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n):
        return cls._trusted(n, {})

    @classmethod
    def one(cls, n):
        return cls._trusted(n, {0: 1})

    @classmethod
    def constant(cls, n, c):
        c = _coeff(c)
        return cls._trusted(n, {0: c} if c else {})

    @classmethod
    def x(cls, n, i):
        """The variable x_i, 1 <= i <= n."""
        if not 1 <= i <= n:
            raise ValueError(f"x_{i} undefined for n={n}")
        return cls._trusted(n, {_unit_mono(n, i - 1): 1})

    @classmethod
    def delta(cls, n):
        return cls._trusted(n, {_unit_mono(n, n): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError(f"cannot add elements over n={self.n} and n={other.n}")
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                c += out[m]
                if not c:
                    del out[m]
                    continue
                if type(c) is not int:
                    c = _coeff(c)
            out[m] = c
        return RingElement._trusted(self.n, out)

    def __sub__(self, other):
        if self.n != other.n:
            raise ValueError(f"cannot subtract elements over n={self.n} and n={other.n}")
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                c = out[m] - c
                if not c:
                    del out[m]
                    continue
                if type(c) is not int:
                    c = _coeff(c)
                out[m] = c
            else:
                out[m] = -c
        return RingElement._trusted(self.n, out)

    def __neg__(self):
        return RingElement._trusted(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        n = self.n
        if isinstance(other, (int, Fraction)):
            return RingElement._trusted(
                n, _cleaned({m: c * other for m, c in self.terms.items()})
            )
        if n != other.n:
            raise ValueError(f"cannot multiply elements over n={n} and n={other.n}")
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return RingElement._trusted(n, checked_terms(n, out))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def degree(self):
        """Doubled degree of a homogeneous element; raises otherwise."""
        if not self.terms:
            return None
        # a _WIDTH = 16 field is one native unsigned short of the bytes
        size = 2 * (self.n + 1)
        degs = {
            2 * sum(memoryview(m.to_bytes(size, sys.byteorder)).cast("H"))
            for m in self.terms
        }
        if len(degs) != 1:
            raise ValueError(f"inhomogeneous element {self}")
        return degs.pop()

    def constant_coefficient(self):
        return self.terms.get(0, 0)

    def is_unit(self):
        """Nonzero constant (the units of the polynomial ring over Q)."""
        return len(self.terms) == 1 and 0 in self.terms

    def __str__(self):
        return ring_text(self.n, tuple(sorted(self.terms.items(), reverse=True)))

    __repr__ = __str__


@lru_cache(maxsize=CACHE_SIZE)
def ring_text(n, terms):
    """The text of an element of Q[x_1..x_n, d] from its (packed monomial,
    coefficient) terms, highest monomial first."""
    if not terms:
        return "0"
    names = [f"x{i}" for i in range(1, n + 1)] + ["d"]
    parts = []
    for m, c in terms:
        facs = []
        for name, e in zip(names, _unpack(n, m)):
            if e == 1:
                facs.append(name)
            elif e > 1:
                facs.append(f"{name}^{e}")
        coeff = abs(c)
        if not facs:
            body = str(coeff)
        elif coeff == 1:
            body = "*".join(facs)
        else:
            body = "*".join([str(coeff)] + facs)
        parts.append(("-" if c < 0 else "+", body))
    sign, first = parts[0]
    text = ("-" if sign == "-" else "") + first
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


_TOKEN = re.compile(r"\s*([+-]|\*|\^|x\d+|d|\d+/\d+|\d+)")


@lru_cache(maxsize=CACHE_SIZE)
def parse_ring_element(n, text):
    """Parse the serialization produced by RingElement.__str__.  Memoized:
    elements are immutable, so every parse of one text shares its result."""
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad polynomial syntax at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    terms = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            if sign != 1 or not terms and not tokens:
                raise ValueError("dangling sign")
            break
        coeff = sign
        mono = [0] * (n + 1)
        expect_factor = True
        while i < len(tokens) and tokens[i] not in "+-":
            tok = tokens[i]
            if tok == "*":
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ValueError(f"unexpected token {tok!r}")
            if tok == "d" or tok.startswith("x"):
                idx = n if tok == "d" else int(tok[1:]) - 1
                if not 0 <= idx <= n:
                    raise ValueError(f"variable {tok} out of range for n={n}")
                exp = 1
                if i + 2 < len(tokens) and tokens[i + 1] == "^":
                    exp = int(tokens[i + 2])
                    i += 2
                mono[idx] += exp
            else:
                coeff *= Fraction(tok) if "/" in tok else int(tok)
            expect_factor = False
            i += 1
        mono = tuple(mono)
        terms[mono] = terms.get(mono, 0) + coeff
    return RingElement(n, terms)


def simple_root(n, i):
    """alpha_i = x_i - x_{i+1} for 1 <= i <= n-1, alpha_0 = x_n - x_1 + d."""
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range for n={n}")
    if i == 0:
        return RingElement.x(n, n) - RingElement.x(n, 1) + RingElement.delta(n)
    return RingElement._trusted(
        n, {_unit_mono(n, i - 1): 1, _unit_mono(n, i): -1}
    )


def act_simple(i, f):
    """Apply the simple reflection s_i to f."""
    n = f.n
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range for n={n}")
    if i != 0:
        # swap the exponents of x_i and x_{i+1}, a bijection on monomials:
        # adding (e_{i+1} - e_i) * (2^high - 2^low) moves each into the
        # other's field
        low = (n - i) * _WIDTH
        high = low + _WIDTH
        step = (1 << high) - (1 << low)
        return RingElement._trusted(n, {
            m + (((m >> low) & _FIELD) - ((m >> high) & _FIELD)) * step: c
            for m, c in f.terms.items()
        })
    if n == 1:
        raise ValueError("n must be at least 2")
    # s_0(x_1) = x_n + d and s_0(x_n) = x_1 - d, so s_0 sends x_1^a x_n^b to
    # the sum of C(a, p) C(b, q) (-1)^(b-q) x_1^q x_n^p d^(a-p+b-q); the
    # check keeps d's exponent below its guard bit
    high = n * _WIDTH
    out = {}
    for m, c in f.terms.items():
        a, b, e = m >> high & _FIELD, m >> _WIDTH & _FIELD, m & _FIELD
        if e + a + b >= EXPONENT_LIMIT:
            raise OverflowError(f"s_0 gives an exponent of at least {EXPONENT_LIMIT}")
        rest = m - (a << high) - (b << _WIDTH) + a + b
        for p in range(a + 1):
            cp = comb(a, p) * c
            for q in range(b + 1):
                mono = rest + (q << high) + (p << _WIDTH) - p - q
                cq = comb(b, q) * cp
                out[mono] = out.get(mono, 0) + (-cq if b - q & 1 else cq)
    return RingElement._trusted(n, _cleaned(out))


def exact_div(f, g):
    """Exact division f / g; raises ArithmeticError when not divisible.

    Long division in the lex order of exponent vectors.  The quotient stays
    integral when the leading coefficient of g is +-1, as for every simple
    root; otherwise it is rational.  A packed monomial m divides the lead
    when (lead | guards) - m borrows no guard bit, and that difference with
    its guard bits cleared is the quotient.  Raises OverflowError when a
    remainder term reaches EXPONENT_LIMIT in some exponent.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    n = f.n
    guards = _guards(n)
    g_lead = max(g.terms)
    g_c = g.terms[g_lead]
    g_rest = [(m, c) for m, c in g.terms.items() if m != g_lead]
    quo = {}
    rem = dict(f.terms)
    while rem:
        lead = max(rem)
        q_mono = (lead | guards) - g_lead
        # a lead with a guard bit set has overflowed: it would pass the
        # borrow test with a wrong quotient
        if lead & guards or q_mono & guards != guards:
            if reduce(or_, rem) & guards:
                raise OverflowError(
                    f"a remainder has an exponent of at least {EXPONENT_LIMIT}"
                )
            # the lead alone: a whole remainder may not fit into a str
            raise ArithmeticError(
                f"non-divisible remainder with leading monomial {_unpack(n, lead)}"
            )
        q_mono ^= guards
        c = rem.pop(lead)
        if g_c == 1:
            q_c = c
        elif g_c == -1:
            q_c = -c
        else:
            q_c = _coeff(Fraction(c) / g_c)
        # the lead strictly decreases, so each quotient monomial is new
        quo[q_mono] = q_c
        for m, gc in g_rest:
            m2 = q_mono + m
            new = rem.get(m2, 0) - q_c * gc
            if not new:
                del rem[m2]
            else:
                rem[m2] = new if type(new) is int else _coeff(new)
    return RingElement._trusted(n, quo)


def demazure(i, f):
    """Demazure operator: (f - s_i f) / alpha_i.  Exact by construction."""
    num = f - act_simple(i, f)
    if num.is_zero():
        return RingElement.zero(f.n)
    return exact_div(num, simple_root(f.n, i))
