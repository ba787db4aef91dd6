import itertools

import pytest

from affhecke.braid import (
    BraidWord,
    flatten,
    jm_braid,
    parse,
    w_lambda,
    y_braid,
)
from affhecke.hecke import HeckeElement, braid_hecke_image
from affhecke.weyl import ExtendedWeylElement


def word(n, letters):
    """A braid word from shorthand: 'w', 'w-', ('f', i, e), or int i (= f_i)."""
    out = []
    for tok in letters:
        if tok == "w":
            out.append(("w", 1))
        elif tok == "w-":
            out.append(("w", -1))
        elif isinstance(tok, int):
            out.append(("f", tok % n, 1))
        else:
            _, i, e = tok
            out.append(("f", i % n, e))
    return BraidWord(n, tuple(out))


def test_parse_print_round_trip():
    for text in ("w f1 f0- w-", "f2 f2-", ""):
        b = parse(3, text)
        assert str(b) == text
        assert parse(3, str(b)) == b


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
    # a palindrome of positive crossings, so its evaluation to W is trivial
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            letters = jm_braid(n, i).letters
            assert letters == letters[::-1] and len(letters) == 2 * (n - i)


def test_hecke_image_commutativity():
    for n in (2, 3, 4, 5):
        images = [braid_hecke_image(y_braid(n, i)) for i in range(1, n + 1)]
        for a, b in itertools.combinations(images, 2):
            assert a * b == b * a


def test_finite_flavor_guard():
    with pytest.raises(ValueError):
        BraidWord(3, (("w", 1),), "finite")
    with pytest.raises(ValueError):
        BraidWord(3, (("f", 0, 1),), "finite")
