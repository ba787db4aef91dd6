import itertools
import random

import pytest

from affhecke.braid import (
    BraidWord,
    equivalence_battery,
    evaluate,
    flatten,
    jm_braid,
    parse,
    strand_winding,
    total_winding,
    w_lambda,
    w_lambda_positive,
    word,
    y_braid,
)
from affhecke.hecke import HeckeElement, braid_hecke_image
from affhecke.weyl import ExtendedWeylElement


def test_parse_print_round_trip():
    for text in ("w f1 f0- w-", "f2 f2-", ""):
        b = parse(3, text)
        assert str(b) == text
        assert parse(3, str(b)) == b


def test_evaluate():
    assert evaluate(word(3, [])).is_identity()
    assert evaluate(y_braid(2, 1)) == ExtendedWeylElement.rotation(2, 1) * ExtendedWeylElement.simple(2, 1)
    assert evaluate(word(3, [1, ("f", 1, -1)])).is_identity()


def test_total_winding():
    assert total_winding(word(3, ["w"])) == 1
    assert total_winding(word(3, [0, 1, ("f", 2, -1)])) == 0
    assert total_winding(word(4, ["w"] * 4)) == 4
    with pytest.raises(ValueError):
        total_winding(jm_braid(3, 1))


def test_strand_winding():
    for n in (2, 3, 4, 5):
        for i in range(1, n + 1):
            expected = tuple(1 if j == i else 0 for j in range(1, n + 1))
            assert strand_winding(y_braid(n, i)) == expected
        assert strand_winding(word(n, ["w"] * n)) == (1,) * n
    assert strand_winding(word(3, [])) == (0, 0, 0)
    with pytest.raises(ValueError):
        strand_winding(word(3, [1]))


def simulated_strand_winding(b):
    """Oracle: trace the strands of a pure cylindrical braid.

    Strands are indexed by their position; letters are traced rightmost
    first.  omega shifts every strand one step (wrapping n -> 1 across the
    seam, winding +1), f_0 swaps positions 1 and n across the seam.
    """
    n = b.n
    pos = list(range(1, n + 1))  # pos[j] = position of strand j+1
    wind = [0] * n
    for tok in reversed(b.letters):
        if tok[0] == "w":
            e = tok[1]
            for j in range(n):
                if e > 0:
                    if pos[j] == n:
                        pos[j] = 1
                        wind[j] += 1
                    else:
                        pos[j] += 1
                else:
                    if pos[j] == 1:
                        pos[j] = n
                        wind[j] -= 1
                    else:
                        pos[j] -= 1
        else:
            i = tok[1] % n
            if i == 0:
                for j in range(n):
                    if pos[j] == 1:
                        pos[j] = n
                        wind[j] -= 1
                    elif pos[j] == n:
                        pos[j] = 1
                        wind[j] += 1
            else:
                for j in range(n):
                    if pos[j] == i:
                        pos[j] = i + 1
                    elif pos[j] == i + 1:
                        pos[j] = i
    assert pos == list(range(1, n + 1)), "not a pure braid"
    return tuple(wind)


def random_pure_braid(rng, n):
    """A random cylindrical word, then crossings of random sign that
    bubble-sort its strands back home."""
    letters = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.25:
            letters.append(("w", rng.choice((1, -1))))
        else:
            letters.append(("f", rng.randrange(n), rng.choice((1, -1))))
    perm = list(evaluate(BraidWord(n, tuple(letters))).finite_projection())
    for end in range(n - 1, 0, -1):
        for k in range(1, end + 1):
            if perm[k - 1] > perm[k]:
                perm[k - 1], perm[k] = perm[k], perm[k - 1]
                letters.append(("f", k, rng.choice((1, -1))))
    return BraidWord(n, tuple(letters))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_strand_winding_matches_simulation(n):
    # the closed form reads the winding off the evaluation, which is why
    # equivalence_battery needs no winding step after comparing evaluations
    rng = random.Random(f"strand-winding/{n}")
    for _ in range(300):
        b = random_pure_braid(rng, n)
        wind = strand_winding(b)
        assert wind == simulated_strand_winding(b), str(b)
        assert sum(wind) == total_winding(b)


def test_strand_winding_additive():
    b1 = y_braid(3, 1)
    b2 = y_braid(3, 2) * y_braid(3, 3)
    total = tuple(a + b for a, b in zip(strand_winding(b1), strand_winding(b2)))
    assert strand_winding(b1 * b2) == total


def test_total_winding_additive():
    b1 = word(4, ["w", 0, 2])
    b2 = word(4, ["w-", "w-", 1])
    assert total_winding(b1 * b2) == total_winding(b1) + total_winding(b2)


def test_y_braid_words():
    assert str(y_braid(2, 1)) == "w f1"
    assert str(y_braid(2, 2)) == "w f0-"
    assert str(y_braid(3, 2)) == "w f0- f2"
    assert str(y_braid(4, 3)) == "w f1- f0- f3"


def test_w_lambda():
    assert w_lambda(3, (1, 0, 0)).letters == y_braid(3, 1).letters
    # lambda = det: Hecke image is omega^n
    lhs = braid_hecke_image(w_lambda(3, (1, 1, 1)))
    rhs = HeckeElement.std(ExtendedWeylElement.rotation(3, 3))
    assert lhs == rhs
    # the minuscule example at n=4
    lhs = braid_hecke_image(w_lambda(4, (1, 1, 0, 0)))
    rhs = braid_hecke_image(parse(4, "w w f2 f1 f3 f2"))
    assert lhs == rhs


def test_w_lambda_positive():
    for n in (2, 3, 4):
        for lam in itertools.product(range(2), repeat=n):
            if any(lam[i] < lam[i + 1] for i in range(n - 1)):
                continue
            pos = w_lambda_positive(n, lam)
            assert all(tok[-1] > 0 for tok in pos.letters)
            assert braid_hecke_image(pos) == braid_hecke_image(w_lambda(n, lam))
    with pytest.raises(ValueError):
        w_lambda_positive(3, (0, 1, 0))


def test_flatten():
    assert str(flatten(word(3, ["w"]))) == "f1 f2"
    assert str(flatten(word(4, ["w"]))) == "f1 f2 f3"
    # flat(f_0) is the conjugated crossing
    assert str(flatten(word(3, [0]))) == "f2- f1 f2"
    # y_n flattens to the identity in the Hecke image
    for n in (2, 3, 4):
        assert braid_hecke_image(flatten(y_braid(n, n))) == HeckeElement.unit(n)
    with pytest.raises(ValueError):
        flatten(jm_braid(3, 1))


def test_flatten_is_jucys_murphy():
    for n in (2, 3, 4):
        for i in range(1, n):
            lhs = braid_hecke_image(flatten(y_braid(n, i)))
            rhs = braid_hecke_image(jm_braid(n, i))
            assert lhs == rhs


def test_jm_braid():
    assert jm_braid(4, 4).letters == ()
    assert str(jm_braid(4, 2)) == "f2 f3 f3 f2"
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            assert evaluate(jm_braid(n, i)).is_identity()


def test_hecke_image_commutativity():
    for n in (2, 3, 4, 5):
        images = [braid_hecke_image(y_braid(n, i)) for i in range(1, n + 1)]
        for a, b in itertools.combinations(images, 2):
            assert a * b == b * a


def test_bar_word():
    b = word(3, ["w", 1, ("f", 0, -1)])
    assert b.bar().letters == (("w", 1), ("f", 1, -1), ("f", 0, 1))
    # dual translation at n=2: bar(y_1) = w f1-
    assert str(y_braid(2, 1).bar()) == "w f1-"


def test_equivalence_battery():
    b1 = word(3, [0, 1, 0])
    b2 = word(3, [1, 0, 1])
    assert equivalence_battery(b1, b2, hecke_image=braid_hecke_image)
    assert not equivalence_battery(b1, word(3, [0, 1]), hecke_image=braid_hecke_image)
    # same evaluation but different Hecke image: f1 f1 vs empty word
    b3 = word(3, [1, 1])
    b4 = word(3, [])
    assert evaluate(b3) == evaluate(b4)
    assert not equivalence_battery(b3, b4, hecke_image=braid_hecke_image)


def test_finite_flavor_guard():
    with pytest.raises(ValueError):
        BraidWord(3, (("w", 1),), "finite")
    with pytest.raises(ValueError):
        BraidWord(3, (("f", 0, 1),), "finite")
