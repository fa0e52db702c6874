"""Exact harmonic mean of element orders for finite groups."""

from .exactmath import Rational, rat, is_integer, factorize, euler_phi
from .groupkernel import Group, OrderSpectrum, Subgroup, direct_product, is_isomorphic

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "rat",
    "is_integer",
    "factorize",
    "euler_phi",
    "Group",
    "OrderSpectrum",
    "Subgroup",
    "direct_product",
    "is_isomorphic",
    "__version__",
]
