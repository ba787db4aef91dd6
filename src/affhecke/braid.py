"""Cylindrical and finite braid words.

A word is a sequence of letters f_i, f_i^{-1} (i in Z/n), omega, omega^{-1};
finite-flavor words use only f_1..f_{n-1}.  Words are read through their
Hecke image (hecke.braid_hecke_image) and the flattening to the finite braid
group; the braid word problem is not solved here.

Token syntax for the CLI: "w", "w-", "f3", "f0-" separated by spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

OMEGA = "w"


@dataclass(frozen=True)
class BraidWord:
    """letters: tuple of ('w', e) or ('f', i, e) with e = +-1."""

    n: int
    letters: tuple
    flavor: str = "cylindrical"

    def __post_init__(self):
        if self.flavor not in ("cylindrical", "finite"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        for tok in self.letters:
            if tok[0] == "w":
                if self.flavor == "finite":
                    raise ValueError("finite words cannot contain omega")
            elif tok[0] == "f":
                i = tok[1] % self.n
                if self.flavor == "finite" and i == 0:
                    raise ValueError("finite words cannot contain f_0")
            else:
                raise ValueError(f"bad letter {tok!r}")

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched n")
        flavor = (
            "finite" if self.flavor == other.flavor == "finite" else "cylindrical"
        )
        return BraidWord(self.n, self.letters + other.letters, flavor)

    def inverse(self):
        inv = []
        for tok in reversed(self.letters):
            if tok[0] == "w":
                inv.append(("w", -tok[1]))
            else:
                inv.append(("f", tok[1], -tok[2]))
        return BraidWord(self.n, tuple(inv), self.flavor)

    def __str__(self):
        parts = []
        for tok in self.letters:
            if tok[0] == "w":
                parts.append("w" if tok[1] > 0 else "w-")
            else:
                parts.append(f"f{tok[1] % self.n}" + ("" if tok[2] > 0 else "-"))
        return " ".join(parts)


def parse(n, text):
    out = []
    for tok in text.split():
        if tok == "w":
            out.append(("w", 1))
        elif tok == "w-":
            out.append(("w", -1))
        elif tok.startswith("f"):
            body = tok[1:]
            e = 1
            if body.endswith("-"):
                e = -1
                body = body[:-1]
            out.append(("f", int(body) % n, e))
        else:
            raise ValueError(f"bad token {tok!r}")
    return BraidWord(n, tuple(out))


def y_braid(n, i):
    """The translation braid y_i = omega f_{i-2}^{-1}...f_0^{-1} f_{n-1}...f_i."""
    if not 1 <= i <= n:
        raise ValueError(f"i must lie in 1..{n}")
    letters = [("w", 1)]
    letters += [("f", k % n, -1) for k in range(i - 2, -1, -1)]
    letters += [("f", k, 1) for k in range(n - 1, i - 1, -1)]
    return BraidWord(n, tuple(letters))


def w_lambda(n, lam):
    """The translation braid for a weight: the product of y_i^{lambda_i}."""
    if len(lam) != n:
        raise ValueError(f"weight must have {n} entries")
    out = BraidWord(n, ())
    for i, e in enumerate(lam, start=1):
        yi = y_braid(n, i)
        if e < 0:
            yi = yi.inverse()
        for _ in range(abs(e)):
            out = out * yi
    return out


def flatten(b):
    """The flattening homomorphism to the finite braid group.

    f_i -> f_i for 1 <= i <= n-1, omega -> f_1 f_2 ... f_{n-1},
    f_0 -> f_{n-1}^{-1} ... f_2^{-1} f_1 f_2 ... f_{n-1}.
    """
    if b.flavor != "cylindrical":
        raise ValueError("flatten applies to cylindrical words")
    n = b.n
    out = []
    for tok in b.letters:
        if tok[0] == "w":
            image = [("f", i, 1) for i in range(1, n)]
            if tok[1] < 0:
                image = [("f", i, -1) for i in range(n - 1, 0, -1)]
            out += image
        else:
            i, e = tok[1] % n, tok[2]
            if i != 0:
                out.append(("f", i, e))
            else:
                # flat(f_0^e) is the conjugate of f_1^e by f_2...f_{n-1}
                conj = [("f", j, -1) for j in range(n - 1, 1, -1)]
                out += conj + [("f", 1, e)] + [("f", j, 1) for j in range(2, n)]
    return BraidWord(n, tuple(out), "finite")


def jm_braid(n, i):
    """The rightward Jucys-Murphy braid j_i; j_n is the empty word."""
    if not 1 <= i <= n:
        raise ValueError(f"i must lie in 1..{n}")
    letters = [("f", k, 1) for k in range(i, n)]
    letters += [("f", k, 1) for k in range(n - 1, i - 1, -1)]
    return BraidWord(n, tuple(letters), "finite")
