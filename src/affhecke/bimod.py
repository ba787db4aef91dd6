"""Explicit Bott-Samelson bimodules over the standard affine realization.

BS(i_1, ..., i_d) is free as a right R-module on the basis indexed by bit
masks: in the slot for letter i the factor basis is {1 (x), xi_i (x)} with
xi_i = x_i for i != 0 and xi_0 = x_n, so that d_i(xi_i) = 1.  The left
action is forced rightward across each letter via the polynomial forcing
relation f.(-) = (-).s_i(f) + broken.d_i(f).

Morphisms are matrices of ring elements in these right-module bases; the
left action commuting with every generator is a checked property, not a
structural one.  Generators: start/end dots, merge/split trivalent vertices,
distant 4-valent crossings, and on top of those the signed rex moves theta
and the signed dots between cyclical bimodules B_X.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import polymat
from .polymat import Matrix
from .rings import RingElement, demazure, simple_root
from .weyl import CACHE_SIZE, preferred_word


def xi(n, i):
    """The chosen degree-2 element with d_i(xi_i) = 1."""
    i = i % n
    return RingElement.x(n, n if i == 0 else i)


def basis_degree(word, mask):
    """Degree of a basis vector: +1 per set bit, -1 per clear bit."""
    pop = bin(mask).count("1")
    return 2 * pop - len(word)


def rank(word):
    return 1 << len(word)


class Morphism:
    """A right-R-linear map BS(src) -> BS(tgt) with a homogeneous degree.

    matrix is a polymat.Matrix of width rank(src): matrix.cells()[r].get(c)
    is the coefficient of target basis vector r on the image of source basis
    vector c, absent when it is 0.
    """

    __slots__ = ("n", "src", "tgt", "matrix", "degree")

    def __init__(self, n, src, tgt, matrix, degree=None, check=True):
        self.n = n
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.matrix = matrix
        self.degree = cells_degree(self.src, self.tgt, matrix.cells(), degree) if check else degree

    @classmethod
    def zero(cls, n, src, tgt):
        return cls(n, src, tgt, polymat.mat_zero(n, rank(tgt), rank(src)), check=False)

    @classmethod
    def identity(cls, n, word):
        return cls(n, word, word, polymat.mat_identity(n, rank(word)), 0, check=False)

    def is_zero(self):
        return polymat.mat_is_zero(self.matrix)

    def __add__(self, other):
        if (self.src, self.tgt) != (other.src, other.tgt):
            raise ValueError("cannot add morphisms with mismatched endpoints")
        if len({self.degree, other.degree} - {None}) > 1 and not (
            self.is_zero() or other.is_zero()
        ):
            raise ValueError("cannot add morphisms of different degrees")
        deg = self.degree if self.degree is not None else other.degree
        return Morphism(self.n, self.src, self.tgt, self.matrix + other.matrix, deg, check=False)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Morphism(self.n, self.src, self.tgt, -self.matrix, self.degree, check=False)

    def scale(self, f):
        """Right multiplication by f in R (or a rational scalar)."""
        extra, matrix = _scalar_degree(f), polymat.mat_scale(self.matrix, f)
        deg = None if self.degree is None or extra is None else self.degree + extra
        return Morphism(self.n, self.src, self.tgt, matrix, deg, check=False)

    def compose(self, other):
        """self after other: the one-pair case of compose_sum."""
        return compose_sum(((self, other),))

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and (self.n, self.src, self.tgt) == (other.n, other.src, other.tgt)
            and self.matrix == other.matrix
        )

    def __str__(self):
        rows = ["[" + ", ".join(str(x) for x in row) + "]" for row in self.matrix]
        return (
            f"Morphism {self.src} -> {self.tgt} (degree {self.degree})\n"
            + "\n".join(rows)
        )

    __repr__ = __str__


def compose_sum(pairs):
    """The sum of the composites f . g over nonempty pairs (f, g): each g ends
    where its f starts, and the composites share endpoints and stated degree.
    One pair is polymat.mat_mul, which bench/spans.py times apart from sums."""
    src, tgt = pairs[0][1].src, pairs[0][0].tgt
    degrees = set()
    for f, g in pairs:
        if g.tgt != f.src:
            raise ValueError(f"composition mismatch: {g.tgt} then {f.src}")
        if g.src != src or f.tgt != tgt:
            raise ValueError("cannot add composites with mismatched endpoints")
        if f.degree is not None and g.degree is not None:
            degrees.add(f.degree + g.degree)
    if len(degrees) > 1:
        raise ValueError(f"cannot add morphisms of different degrees {degrees}")
    products = [(f.matrix, g.matrix) for f, g in pairs]
    matrix = polymat.mat_mul(*products[0]) if len(pairs) == 1 else polymat.mat_mul_sum(products)
    return Morphism(pairs[0][0].n, src, tgt, matrix, degrees.pop() if degrees else None, check=False)


def _scalar_degree(f):
    """The degree of a scalar: 0 for a rational or 0, None if inhomogeneous."""
    if isinstance(f, (int, Fraction)):
        return 0
    try:
        return f.degree() or 0
    except ValueError:
        return None


def cells_degree(src, tgt, rows, degree):
    """The degree of the map BS(src) -> BS(tgt) with these rows of cells, or the
    stated one if all are 0; raises ValueError if inhomogeneous or not as stated."""
    degs = set()
    for r, row in enumerate(rows):
        for c, entry in row.items():
            degs.add(entry.degree() + basis_degree(tgt, r) - basis_degree(src, c))
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous morphism, degrees {degs}")
    found = degs.pop() if degs else None
    if degree is not None and found is not None and degree != found:
        raise ValueError(f"stated degree {degree} != computed {found}")
    return degree if found is None else found


def left_mult_matrix(n, word, f):
    """Matrix of left multiplication by f on BS(word), by forcing rightward.

    word may be any sequence of letters; it is reduced mod n once and the
    matrix, a polymat.Matrix whose rows are never mutated, comes from the
    memo.
    """
    return _forced(n, tuple(k % n for k in word), f)


@lru_cache(maxsize=CACHE_SIZE)
def _forced(n, word, f):
    """left_mult_matrix on a reduced tuple word: each suffix block is memoized
    too, so words sharing a tail share its blocks."""
    if not word:
        return Matrix(n, 1, ({0: f},))
    i = word[0]
    rest = word[1:]
    x = xi(n, i)
    # g = p + xi_i q with q = d_i(g): row bit 0 takes p, row bit 1 takes q
    top, bottom = [], []
    for g in (f, f * x):
        q = demazure(i, g)
        top.append(_forced(n, rest, g - x * q))
        bottom.append(_forced(n, rest, q))
    return polymat.mat_blocks((top, bottom))


def left_mult(n, word, f):
    return Morphism(n, word, word, left_mult_matrix(n, word, f), _scalar_degree(f), check=False)


def right_mult(n, word, f):
    return Morphism.identity(n, word).scale(f)


def tensor(a, b):
    """Tensor product of morphisms over R, by the interchange law
    a (x) b = (a (x) id) . (id (x) b): the coefficients of a are forced
    across the target word of b."""
    return _whisker(a.n, (), a, b.tgt).compose(_whisker(a.n, a.src, b, ()))


def _whisker(n, left, core, right):
    """id_left (x) core (x) id_right, with no ring arithmetic.

    Every nonzero entry f of core at (r, c) contributes, for each basis
    index u of BS(left), the block of left multiplication by f on BS(right)
    at rows (u, r, .) and columns (u, c, .), placed by polymat.mat_place.
    The one kernel here that forces a tensor product: `tensor` composes two
    whiskerings.
    """
    rl, rr = rank(left), rank(right)
    rows, cols = rank(core.tgt), rank(core.src)
    blocks = [
        (r, c, left_mult_matrix(n, right, f))
        for r, row in enumerate(core.matrix.cells()) for c, f in row.items()
    ]
    matrix = polymat.mat_place(n, rl * rows * rr, rl * cols * rr, (
        ((u * rows + r) * rr, (u * cols + c) * rr, block)
        for r, c, block in blocks for u in range(rl)
    ))
    return Morphism(
        n, left + core.src + right, left + core.tgt + right, matrix, core.degree,
        check=False,
    )


def startdot_core(n, i):
    """R -> B_i, 1 |-> (1/2)(alpha (x) 1 + 1 (x) alpha): barbell square root."""
    i = i % n
    # alpha_i - xi_i is -x_{i+1}, or d - x_1 for i = 0: never 0
    cells = ({0: simple_root(n, i) - xi(n, i)}, {0: RingElement.one(n)})
    return Morphism(n, (), (i,), Matrix(n, 1, cells), 1)


def enddot_core(n, i):
    """B_i -> R, f (x) g |-> fg."""
    i = i % n
    return Morphism(n, (i,), (), Matrix(n, 2, ({0: RingElement.one(n), 1: xi(n, i)},)), 1)


def merge_core(n, i):
    """B_i B_i -> B_i, f (x) g (x) h |-> f d_i(g) (x) h."""
    i = i % n
    one = RingElement.one(n)
    # columns in mask order 00, 01, 10, 11 (bit 0 = second letter)
    return Morphism(n, (i, i), (i,), Matrix(n, 4, ({1: one}, {3: one})), -1)


def split_core(n, i):
    """B_i -> B_i B_i, f (x) g |-> f (x) 1 (x) g."""
    i = i % n
    one = RingElement.one(n)
    return Morphism(n, (i,), (i, i), Matrix(n, 2, ({0: one}, {}, {1: one}, {})), -1)


def crossing_core(n, i, j):
    """The distant 4-valent vertex B_i B_j -> B_j B_i (coordinate swap)."""
    i, j = i % n, j % n
    if (j - i) % n in (1, n - 1) or i == j:
        raise ValueError(f"colors {i},{j} are not distant")
    one = RingElement.one(n)
    rows = tuple({((r & 1) << 1) | (r >> 1): one} for r in range(4))
    return Morphism(n, (i, j), (j, i), Matrix(n, 4, rows), 0)


def identity_word(n, word):
    return Morphism.identity(n, tuple(k % n for k in word))


def startdot(n, word, p, i):
    """Insert an i-colored startdot at slot p of word (0-indexed)."""
    word = tuple(k % n for k in word)
    return _whisker(n, word[:p], startdot_core(n, i), word[p:])


def enddot(n, word, p):
    """Remove the letter at slot p of word by an enddot."""
    word = tuple(k % n for k in word)
    return _whisker(n, word[:p], enddot_core(n, word[p]), word[p + 1:])


def merge(n, word, p):
    """Merge equal adjacent letters at slots p, p+1."""
    word = tuple(k % n for k in word)
    if word[p] != word[p + 1]:
        raise ValueError("merge needs equal adjacent letters")
    return _whisker(n, word[:p], merge_core(n, word[p]), word[p + 2:])


def split(n, word, p):
    """Split the letter at slot p into a doubled letter."""
    word = tuple(k % n for k in word)
    return _whisker(n, word[:p], split_core(n, word[p]), word[p + 1:])


def crossing(n, word, p):
    """Swap the distant letters at slots p, p+1."""
    word = tuple(k % n for k in word)
    return _whisker(n, word[:p], crossing_core(n, word[p], word[p + 1]), word[p + 2:])


def distant(n, i, j):
    return i % n != j % n and (i - j) % n not in (1, n - 1)


def rex_move(n, word_from, word_to):
    """(sign, morphism) for the crossing-only rex move between two words.

    Both words must consist of the same distinct letters, reorderable by
    distant swaps; the sign is (-1)^(number of 4-valent vertices).
    """
    word_from = tuple(k % n for k in word_from)
    word_to = tuple(k % n for k in word_to)
    if sorted(word_from) != sorted(word_to) or len(set(word_from)) != len(word_from):
        raise ValueError(f"words {word_from} and {word_to} are not reorderings")
    current = list(word_from)
    total = identity_word(n, word_from)
    sign = 1
    for pos in range(len(word_to)):
        j = current.index(word_to[pos], pos)
        for k in range(j, pos, -1):
            if not distant(n, current[k], current[k - 1]):
                raise ValueError(
                    f"cannot commute adjacent colors {current[k-1]},{current[k]}"
                )
            total = crossing(n, current, k - 1).compose(total)
            current[k - 1], current[k] = current[k], current[k - 1]
            sign = -sign
    return sign, total


def theta(n, word_from, word_to):
    """The signed rex move: (-1)^(#crossings) times the crossing product."""
    sign, mor = rex_move(n, word_from, word_to)
    return mor if sign == 1 else -mor


@lru_cache(maxsize=CACHE_SIZE)
def eps_sign(n, X, Y):
    """The total sign of the signed dot between B_X and B_Y (|Y| = |X|+1).

    X and Y must be hashable (the callers pass frozensets): the cache is
    keyed by them as given, so a hit costs one lookup, and indices are
    reduced mod n and the pair validated only on a miss.  A bad pair raises
    on every call, since exceptions are not cached.
    """
    X = frozenset(x % n for x in X)
    Y = frozenset(y % n for y in Y)
    if not (X < Y and len(Y) == len(X) + 1):
        raise ValueError("subsets must differ by one added index")
    wy = preferred_word(n, Y)
    (i,) = Y - X
    k = wy.index(i)
    reduced = wy[:k] + wy[k + 1:]
    sign = (-1) ** k
    # signed rex move from the preferred word of X to wy-minus-i
    wx = preferred_word(n, X)
    perm = [wx.index(v) for v in reduced]
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return sign * (-1) ** inversions


@lru_cache(maxsize=CACHE_SIZE)
def signed_dot(n, A, B):
    """The signed dot from B_A to B_B, where A and B differ by one index.

    Adding an index gives the degree-1 map called an upward dot; removing
    gives the downward dot.  Both carry the sign epsilon = (-1)^(k-1) for the
    slot of the changed letter, transported through signed rex moves.
    As for eps_sign, the memo is keyed by A and B as given (frozensets).
    """
    A = frozenset(a % n for a in A)
    B = frozenset(b % n for b in B)
    if len(A ^ B) != 1:
        raise ValueError("subsets must differ by exactly one index")
    up = len(B) == len(A) + 1
    small, big = (A, B) if up else (B, A)
    wy = preferred_word(n, big)
    (i,) = big - small
    k = wy.index(i)
    reduced = wy[:k] + wy[k + 1:]
    sign = (-1) ** k
    if up:
        mor = startdot(n, reduced, k, i).compose(theta(n, preferred_word(n, small), reduced))
    else:
        mor = theta(n, reduced, preferred_word(n, small)).compose(enddot(n, wy, k))
    return mor if sign == 1 else -mor


def is_bimodule_map(mor):
    """Check that the left action commutes with the morphism."""
    n = mor.n
    # delta and x_1 + ... + x_n are W-invariant: their commutators vanish
    for i in range(1, n):
        f = RingElement.x(n, i)
        lhs = left_mult(n, mor.tgt, f).compose(mor)
        rhs = mor.compose(left_mult(n, mor.src, f))
        if not (lhs - rhs).is_zero():
            return False
    return True


def subs_delta_zero(mor):
    matrix = polymat.mat_delta_zero(mor.matrix)
    return Morphism(mor.n, mor.src, mor.tgt, matrix, mor.degree, check=False)
