"""The extended affine Weyl group of type A~_{n-1} in window notation.

W_ext = Z x| W_aff; an element is an integer power of omega together with an
affine permutation f of Z satisfying f(i+n) = f(i)+n and the winding-zero
normalization sum f(i) = sum i on the window 1..n.  omega acts as the shift
i -> i+1, so that omega s_k omega^{-1} = s_{k+1}.

An element is the tuple (omega, window) itself: it hashes and compares as
that plain tuple, in C, so it equals (omega, window) and orders as tuples do.
Everything here is immutable and pure.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter

# longest w whose KL element is expanded by default
DEFAULT_LENGTH_CAP = 14

# slots of every memo.  Each holds its working set for n <= 9 in one
# process, so the exact checks of n = 2..9 in turn evict nothing: the forced
# blocks (sparse matrices) of those checks number 5 413 at n = 2..8 and
# 12 835 at n = 2..9, bimod.signed_dot 3 514 and 8 104 pairs; bimod.eps_sign
# about 1 760 pairs, the per-word memos 505 words, hecke._kl_basis about 390
# elements, hecke._stepped_by_b 500 prefixes, hecke.term_key about 2 000
# elements, rings._laurent_text 245 term orders of 93 texts,
# hecke._is_tau_suffix 461 (n, I, Y), _longest_element 34 and _preferred_word
# 119 (n, subset) and _reduced_word 215 windows in a hecke-kl benchmark pass
# (the last four 1 049, 120, 1 012 and 915 over the acceptance suite), and
# _tau_components at most 2^n - 1 subsets per n.
CACHE_SIZE = 16384


def residues(n, S):
    """The residues mod n of the integers in S, as a frozenset: S itself when
    it is a frozenset of residues already, so that memo keys built from one
    caller's sets share them."""
    if type(S) is frozenset and all(0 <= s < n for s in S):
        return S
    return frozenset(s % n for s in S)


def window_apply(window, i):
    """Value at any integer of the periodic extension of the window."""
    n = len(window)
    j = (i - 1) % n
    return window[j] + ((i - 1) // n) * n


def window_compose(u, v):
    """Window of the composite u o v."""
    return tuple(window_apply(u, x) for x in v)


def window_inverse(u):
    n = len(u)
    out = [0] * n
    for j, val in enumerate(u, start=1):
        r = (val - 1) % n
        out[r] = j - (val - 1 - r)
    return tuple(out)


def window_tau(u, k=1):
    """Conjugation by omega^k: tau^k(u)(i) = u(i-k) + k."""
    n = len(u)
    return tuple(window_apply(u, i - k) + k for i in range(1, n + 1))


def window_length(u):
    n = len(u)
    total = 0
    for a, b in combinations(u, 2):
        total += abs((b - a) // n)
    return total


class ExtendedWeylElement(tuple):
    """omega^k times an affine permutation in window notation: the tuple
    (omega, window)."""

    __slots__ = ()

    omega = property(itemgetter(0))
    window = property(itemgetter(1))

    def __new__(cls, omega, window):
        return tuple.__new__(cls, (int(omega), tuple(map(int, window))))

    def __init__(self, omega, window):
        """Refuse a non-integral omega or window entry (__new__ made 2.0 the
        int 2, and would have made 1.5 the int 1) and a window that is not a
        winding-normalized affine permutation.  window is a sequence."""
        if self != (omega, tuple(window)):
            raise ValueError(f"non-integral omega {omega} or window {window}")
        u = self.window
        n = len(u)
        if sorted(v % n for v in u) != list(range(n)):
            raise ValueError(f"window {window} entries not distinct mod {n}")
        if sum(u) != n * (n + 1) // 2:
            raise ValueError(f"window {window} is not winding-normalized")

    # _trusted(ExtendedWeylElement, (omega, window)) wraps an int omega and
    # a window tuple known to be valid, with no check
    _trusted = tuple.__new__

    def __getnewargs__(self):
        return tuple(self)

    @property
    def n(self):
        return len(self.window)

    @classmethod
    def identity(cls, n):
        return cls(0, range(1, n + 1))

    @classmethod
    def simple(cls, n, k):
        """The simple reflection s_k, k in Z/n."""
        k = k % n
        if k == 0:
            w = [0] + list(range(2, n)) + [n + 1]
            if n == 2:
                w = [0, 3]
            return cls(0, w)
        w = list(range(1, n + 1))
        w[k - 1], w[k] = w[k], w[k - 1]
        return cls(0, w)

    @classmethod
    def rotation(cls, n, power=1):
        """omega^power."""
        return cls(power, range(1, n + 1))

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched n")
        u = window_tau(self.window, -other.omega)
        return ExtendedWeylElement(
            self.omega + other.omega, window_compose(u, other.window)
        )

    def is_identity(self):
        return self.omega == 0 and self.window == tuple(range(1, self.n + 1))

    def length(self):
        """Coxeter length of the affine part; omega contributes 0."""
        return window_length(self.window)

    def has_right_descent(self, k):
        u = self.window
        return window_apply(u, k) > window_apply(u, k + 1)

    def has_left_descent(self, k):
        inv = window_inverse(self.window)
        j = (k - self.omega) % self.n
        return window_apply(inv, j) > window_apply(inv, j + 1)

    def right_descents(self):
        return frozenset(k for k in range(self.n) if self.has_right_descent(k))

    def left_descents(self):
        return frozenset(k for k in range(self.n) if self.has_left_descent(k))

    def times_simple(self, k):
        """Right multiplication by s_k."""
        return self.step(k)[0]

    def step(self, k):
        """(w s_k, w s_k < w) from one pass over the window: the two entries
        that s_k trades are compared (a right descent) and swapped."""
        omega, u = self
        n = len(u)
        k %= n
        if k:
            a, b = u[k - 1], u[k]
            ws = u[: k - 1] + (b, a) + u[k + 1:]
        else:
            a, b = u[-1] - n, u[0]
            ws = (a,) + u[1:-1] + (b + n,)
        return self._trusted(ExtendedWeylElement, (omega, ws)), a > b

    def reduced_word(self):
        """A reduced word for the affine part via leftmost descents.

        Returns a tuple of indices (i_1, ..., i_m) with the affine part equal
        to s_{i_1} ... s_{i_m}; the omega power is carried separately.  The
        word depends on the window alone and is computed once per window.
        """
        return _reduced_word(self[1])

    def __str__(self):
        return f"w^{self.omega} | " + " ".join(str(v) for v in self.window)

    __repr__ = __str__


@lru_cache(maxsize=CACHE_SIZE)
def _reduced_word(window):
    # a left descent of w is a right descent of w^-1, and s_k w is
    # (w^-1 s_k)^-1, so the peeling runs on the inverse window
    inv = ExtendedWeylElement._trusted(ExtendedWeylElement, (0, window_inverse(window)))
    n = len(window)
    word = []
    while True:
        u = inv.window
        k = next(
            (k for k in range(n) if window_apply(u, k) > window_apply(u, k + 1)),
            None,
        )
        if k is None:
            return tuple(word)
        word.append(k)
        inv = inv.times_simple(k)


def from_word(n, word):
    """Evaluate a word in tokens: integers are s_i, 'w'/'w-' are omega^{+-1}."""
    out = ExtendedWeylElement.identity(n)
    for tok in word:
        if tok == "w":
            out = out * ExtendedWeylElement.rotation(n, 1)
        elif tok == "w-":
            out = out * ExtendedWeylElement.rotation(n, -1)
        else:
            out = out * ExtendedWeylElement.simple(n, int(tok))
    return out


def anticyclic_word(n, X, aleph):
    """Letters of h_X: members of X in decreasing aleph-induced order."""
    X = frozenset(X)
    if aleph % n in X:
        raise ValueError(f"aleph={aleph} lies in X")
    return tuple(sorted(X, key=lambda v: (v - aleph) % n, reverse=True))


def preferred_word(n, X):
    """The globally fixed reduced expression of h_X: the anticyclic word for
    aleph = min(S \\ X) in the natural order 0 < 1 < ... < n-1, computed
    once per (n, X mod n)."""
    return _preferred_word(n, residues(n, X))


@lru_cache(maxsize=CACHE_SIZE)
def _preferred_word(n, X):
    if len(X) >= n:
        raise ValueError("X must be a proper subset")
    return anticyclic_word(n, X, min(set(range(n)) - X))


def h_of(n, X, aleph=None):
    """The anticyclic Coxeter element h_X of the parabolic W_X.

    Independent of the choice of aleph not in X; the default is the one of
    preferred_word.
    """
    X = residues(n, X)
    if len(X) >= n:
        raise ValueError("X must be a proper subset")
    word = preferred_word(n, X) if aleph is None else anticyclic_word(n, X, aleph)
    out = ExtendedWeylElement.identity(n)
    for k in word:
        out = out.times_simple(k)
    return out


def cyclic_runs(n, members):
    """Maximal cyclically-consecutive runs of a proper subset of Z/n.

    Each run is a tuple (a, a+1, ..., b) mod n, sorted by starting point.
    """
    members = set(m % n for m in members)
    if len(members) >= n:
        raise ValueError("subset must be proper")
    runs = []
    seen = set()
    for a in sorted(members):
        if a in seen or (a - 1) % n in members:
            continue
        run = [a]
        seen.add(a)
        while (run[-1] + 1) % n in members:
            run.append((run[-1] + 1) % n)
            seen.add(run[-1])
        runs.append(tuple(run))
    return runs


def longest_word(n, I):
    """A reduced word of w_I, I a proper subset: per cyclic run
    (a, a+1, ..., b), the triangle s_a . s_{a+1} s_a . ... . s_b ... s_a."""
    return tuple(
        k
        for run in cyclic_runs(n, I)
        for t in range(len(run))
        for k in reversed(run[: t + 1])
    )


def longest_element(n, I):
    """The longest element w_I of the parabolic W_I, I a proper subset,
    computed once per (n, I mod n)."""
    return _longest_element(n, residues(n, I))


@lru_cache(maxsize=CACHE_SIZE)
def _longest_element(n, I):
    out = ExtendedWeylElement.identity(n)
    for k in longest_word(n, I):
        out = out.times_simple(k)
    return out


def tau_components(n, I):
    """The tau-components of S for the subset I, with each block ordered.

    A block containing j also contains j+1 iff j is in I; leftover indices
    are singletons.  When |I| = n-1 the single block is all of S, ordered
    i+1 < i+2 < ... < i where i is the unique index outside I.
    """
    return list(_tau_components(n, residues(n, I)))


@lru_cache(maxsize=CACHE_SIZE)
def _tau_components(n, I):
    if len(I) >= n:
        raise ValueError("I must be a proper subset")
    if len(I) == n - 1:
        (i,) = set(range(n)) - I
        return (tuple((i + t) % n for t in range(1, n + 1)),)
    blocks = []
    used = set()
    for run in cyclic_runs(n, I):
        block = run + (((run[-1] + 1) % n),)
        blocks.append(block)
        used.update(block)
    for j in sorted(set(range(n)) - used):
        blocks.append((j,))
    return tuple(sorted(blocks, key=lambda b: b[0]))


def rewrite_wIhX(n, I, X, aleph):
    """The commutation-only factorization of w_I h_X from the rewriting lemma.

    Returns a list of words (tuples of simple-reflection indices) whose
    concatenated product is w_I h_X, ordered
    (w_{I&A0} h_{X&A<}), (w_{I&Ad} h_{X&Ad}), ..., (w_{I&A1} h_{X&A1}), h_{X&A>}.
    """
    I = residues(n, I)
    X = residues(n, X)
    aleph = aleph % n
    if aleph in X:
        raise ValueError("aleph must avoid X")
    if len(I) >= n or len(X) >= n:
        raise ValueError("I and X must be proper")
    comps = tau_components(n, I)
    a0 = next(c for c in comps if aleph in c)
    rest = sorted(
        (c for c in comps if c is not a0), key=lambda c: min((v - aleph) % n for v in c)
    )
    pos = {v: t for t, v in enumerate(a0)}
    below = [v for v in a0 if pos[v] < pos[aleph]]
    above = [v for v in a0 if pos[v] > pos[aleph]]
    factors = [longest_word(n, I & set(a0)) + anticyclic_word(n, X & set(below), aleph)]
    for comp in reversed(rest):
        factors.append(
            longest_word(n, I & set(comp)) + anticyclic_word(n, X & set(comp), aleph)
        )
    factors.append(anticyclic_word(n, X & set(above), aleph))
    return [f for f in factors if f] or [()]


def correspondent_Y(n, I, X):
    """The unique Y with w_I h_X = h_Y w_{tau(I)}, per tau-component.

    Requires tau(I) contained in X.
    """
    I = residues(n, I)
    X = residues(n, X)
    J = frozenset((i + 1) % n for i in I)
    if not J <= X:
        raise ValueError("tau(I) must be contained in X")
    if len(X) >= n:
        raise ValueError("X must be proper")
    Y = set()
    for comp in tau_components(n, I):
        cs = set(comp)
        inter = X & cs
        if inter == cs:
            Y |= cs
        elif inter == J & cs:
            Y |= I & cs
        else:
            raise AssertionError("tau(I) <= X rules this case out")
    return frozenset(Y)
