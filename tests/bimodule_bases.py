"""Invertible basis changes of Bott-Samelson bimodules, the inputs of the
invertibility tests: the Gram matrix of the intersection form and the matrix
of the Dynkin flip sigma, each in the mask basis of bimod; and the adjoint
under the intersection form, the oracle of the duality tests.  Also the
terms of a ring element under exponent tuples, read by the ring tests, and
the two conversions between a sparse polymat.Matrix and the dense tuple of
tuples that the cellwise oracles read and write."""

from affhecke import polymat
from affhecke.bimod import Morphism, left_mult_matrix, rank, xi
from affhecke.polymat import Matrix
from affhecke.rings import RingElement, _unpack, demazure


def dense(m):
    """The cells of a sparse matrix as a tuple of tuples, 0 where none is
    stored: its dense rows; a morphism's matrix is read through it."""
    return tuple(m)


def sparse(rows):
    """The sparse matrix of a nonempty dense grid of RingElements."""
    return Matrix(
        rows[0][0].n, len(rows[0]),
        tuple({c: x for c, x in enumerate(row) if x.terms} for row in rows),
    )


def stores_no_zero(m):
    """The sparse invariant, read through the cell view: each stored
    coefficient is nonzero, an int when it is integral, and lies in a cell
    inside the width."""
    cells = [(c, x) for row in m.cells() for c, x in row.items()]
    return all(0 <= c < m.width for c, _ in cells) and all(
        v and (type(v) is int or v.denominator != 1) for _, x in cells for v in x.terms.values()
    )


def exponents(f):
    """The terms of f as {exponent tuple (x_1, ..., x_n, d): coefficient}."""
    return {_unpack(f.n, m): c for m, c in f.terms.items()}


def act_sigma(f):
    """sigma(x_i) = -x_{n+1-i}, sigma(d) = d."""
    n = f.n
    out = {}
    for mono, c in exponents(f).items():
        xs = mono[:n]
        m = tuple(reversed(xs)) + (mono[n],)
        out[m] = -c if sum(xs) & 1 else c
    return RingElement(n, out)


def sigma_word(n, word):
    return tuple((-k) % n for k in word)


def gram_matrix(n, word):
    """The intersection form on BS(word) in the mask basis.

    G[r][c] = counit(e_r e_c), applying the per-letter counit
    f (x) rest |-> d_i(f) . rest from the outside in.
    """
    word = tuple(k % n for k in word)
    size = rank(word)
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            acc = RingElement.one(n)
            for slot, i in enumerate(word):
                bit = len(word) - 1 - slot
                e = ((r >> bit) & 1) + ((c >> bit) & 1)
                g = RingElement.one(n)
                for _ in range(e):
                    g = g * xi(n, i)
                acc = demazure(i, acc * g)
            row.append(acc)
        rows.append(row)
    return sparse(rows)


def adjoint(mor):
    """The dual morphism under the intersection form: flips diagrams.

    Sends the startdot to the enddot, the merge to the split, and fixes the
    distant crossing (up to relabeling of endpoints).
    """
    n = mor.n
    transpose = sparse(tuple(zip(*dense(mor.matrix))))
    m = polymat.mat_mul(
        polymat.mat_invert(gram_matrix(n, mor.src)),
        polymat.mat_mul(transpose, gram_matrix(n, mor.tgt)),
    )
    return Morphism(n, mor.tgt, mor.src, m, mor.degree, check=False)


def sigma_basis_change(n, word):
    """Matrix expressing the sigma image of the mask basis of BS(word) in the
    canonical mask basis of BS(sigma(word)).

    sigma(xi_i) = xi_{sigma(i)} - c_i with c_i invariant for s_{sigma(i)};
    the correction is forced rightward across the remaining letters.
    """
    word = tuple(k % n for k in word)
    if not word:
        return polymat.mat_identity(n, 1)
    i = word[0]
    corr = xi(n, (-i) % n) - act_sigma(xi(n, i))
    rest = word[1:]
    crest = sigma_basis_change(n, rest)
    lcorr = left_mult_matrix(n, sigma_word(n, rest), corr)
    correction = -polymat.mat_mul(lcorr, crest)
    zero = polymat.mat_zero(n, rank(rest), rank(rest))
    return polymat.mat_blocks(((crest, correction), (zero, crest)))
