"""Exact computations in the extended affine Hecke category of type A."""

__version__ = "0.1.0"

from .rings import LaurentPoly, RingElement  # noqa: F401
from .weyl import ExtendedWeylElement  # noqa: F401
from .hecke import HeckeElement  # noqa: F401


class RefusedInput(ValueError):
    """An argument out of range, such as n < 2: a verdict, not a fault."""
