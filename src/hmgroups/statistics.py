"""Harmonic mean of element orders: exact statistics and closed forms.

For a finite group G, m(G) is the sum of reciprocals of element orders
and h_m(G) = |G| / m(G).  Both follow from the order spectrum (n_d
elements of order d): m(G) = sum of n_d / d.  Expressions are evaluated
by building that spectrum once and deriving every statistic from it.
Cyclic and dihedral groups have closed-form spectra that need no
enumeration, and the spectrum of a product with pairwise coprime factor
orders is the lcm-convolution of the factors' spectra, so expressions
like a 19.8M-element direct product are evaluated symbolically.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from . import caps
from . import catalog as catalog_mod
from . import families
from .exactmath import (Rational, factorize, format_rational, is_integer,
                        phi_from_primes, rational_decimal, smallest_prime_divisor)
from .groupkernel import Group, OrderSpectrum, direct_product


# -- statistics of concrete groups -------------------------------------------


def m_of_spectrum(spectrum: OrderSpectrum) -> Rational:
    """m = sum of n_d / d, summed as one integer numerator over the exponent
    (every order d divides it)."""
    exponent = spectrum.exponent()
    return Fraction(sum(n * (exponent // d) for d, n in spectrum), exponent)


def m_of(g: Group) -> Rational:
    """m(G) = sum over elements of 1/order, computed from the spectrum."""
    return m_of_spectrum(g.order_spectrum())


def h_m_of(g: Group) -> Rational:
    """h_m(G) = |G| / m(G), exact."""
    return Fraction(g.size) / m_of(g)


def m_cyclic_closed(n: int) -> Rational:
    """m(C_n) as the product over prime powers p^k || n of ((k+1)(p-1)+1)/p."""
    num = 1
    den = 1
    for p, k in factorize(n):
        num *= (k + 1) * (p - 1) + 1
        den *= p
    return Fraction(num, den)


def h_m_cyclic_closed(n: int) -> Rational:
    return Fraction(n) / m_cyclic_closed(n)


def h_m_dihedral_closed(n: int) -> Rational:
    """h_m of the dihedral group of order 2n: 2n / (m(C_n) + n/2)."""
    if n < 2:
        raise ValueError(f"dihedral closed form needs n >= 2, got {n}")
    return Fraction(2 * n) / (m_cyclic_closed(n) + Fraction(n, 2))


def h_m_pgroup_closed(p: int, n: int, c_count: int) -> Rational:
    """h_m of a p-group of order p^n with c_count cyclic subgroups:
    p^(n+1) / ((p-1) * c_count + 1)."""
    if p < 2 or n < 0 or c_count < 1:
        raise ValueError("need p >= 2, n >= 0, c_count >= 1")
    return Fraction(p ** (n + 1), (p - 1) * c_count + 1)


def lemma_bound(g: Group) -> Rational:
    """p|G| / ((p-1)|C(G)| + 1), p the smallest prime divisor of |G|.

    A claimed lower bound for h_m; for p-groups it equals h_m exactly.
    The verifier tests where it actually holds.
    """
    if g.size < 2:
        raise ValueError("bound undefined for the trivial group")
    p = smallest_prime_divisor(g.size)
    return Fraction(p * g.size, (p - 1) * g.cyclic_subgroup_count() + 1)


def weak_bound(order: int) -> Rational:
    """p|G| / ((p-1)|G| + 1): the bound with |C(G)| relaxed to |G|."""
    if order < 2:
        raise ValueError("bound undefined for the trivial group")
    p = smallest_prime_divisor(order)
    return Fraction(p * order, (p - 1) * order + 1)


# -- symbolic group expressions ----------------------------------------------


class _Atom:
    """An atom checks its ATOMS row's rule when made: each names a group."""

    def __post_init__(self):
        check = ATOMS[type(self)].check
        if check is not None:
            check(*vars(self).values())


@dataclass(frozen=True)
class Cyclic(_Atom):
    n: int


@dataclass(frozen=True)
class Dihedral(_Atom):
    order: int  # 2n


@dataclass(frozen=True)
class GenQuaternion(_Atom):
    order: int


@dataclass(frozen=True)
class SemiDihedral(_Atom):
    order: int


@dataclass(frozen=True)
class ElemAbelian(_Atom):
    p: int
    k: int


@dataclass(frozen=True)
class Symmetric(_Atom):
    n: int


@dataclass(frozen=True)
class SL23(_Atom):
    pass


@dataclass(frozen=True)
class Dicyclic(_Atom):
    n: int


@dataclass(frozen=True)
class CatalogRef(_Atom):
    order: int
    id: int


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self):
        flat = []
        for f in self.factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        object.__setattr__(self, "factors", tuple(flat))


GroupExpr = (Cyclic | Dihedral | GenQuaternion | SemiDihedral | ElemAbelian
             | Symmetric | SL23 | Dicyclic | CatalogRef | Product)


# An S(n) or E(p,k) of more than _BUILD_BITS bits by a lower bound is not
# built: n! >= (n//2 + 1)^ceil(n/2) and p^k >= 2^(k(bits(p) - 1)).  No
# enumeration limit that --caps can set (at most 4300 digits) comes near
# that size, and building it can take minutes.
_BUILD_BITS = 1 << 22


def _huge(bits: int) -> caps.Huge | None:
    return caps.Huge(bits) if bits > _BUILD_BITS else None


def _closed_form(n: int, reflections: int = 0):
    """Spectrum of C(n), phi(d) elements of order d for each d | n, plus
    `reflections` of order 2 (D(2n) has n), from one factorization of n."""
    fac = factorize(n)
    primes = fac.primes()
    counts = {d: phi_from_primes(d, primes) for d in fac.divisors()}
    if reflections:
        counts[2] = counts.get(2, 0) + reflections
        primes = tuple(sorted({2, *primes}))
    return OrderSpectrum(tuple(sorted(counts.items()))), primes, "closed_form"


def _dihedral_form(two_n: int):
    n = families.dihedral_n(two_n)
    return _closed_form(n, reflections=n)


def _check_catalog_ref(order: int, gid: int) -> None:
    if order < 1 or gid < 1:
        raise ValueError("Cat(order,id) needs positive arguments")


class Atom(NamedTuple):
    """One atom of the expression grammar; each function takes its fields in
    order.  `builder` names the families constructor, looked up at each call
    so that a wrapper installed on the module sees it (None: the catalog).
    `check`, run when an atom is made, raises the parser's ValueError."""
    head: str
    order: Callable[..., int | caps.Huge]  # or a lower bound, if too large to build
    builder: str | None
    spectrum: Callable[..., tuple] | None  # (spectrum, primes, path), no enumeration
    check: Callable[..., object] | None = None


# Every named atom, keyed by its expression class: the one place an atom is
# defined for parsing, order, text, building and closed-form spectra.  `check`
# is the family's rule from `families` (Cat's own here), run on every atom made.
ATOMS: dict[type, Atom] = {
    Cyclic: Atom("C", lambda n: n, "cyclic", _closed_form, families.check_cyclic),
    Dihedral: Atom("D", lambda order: order, "dihedral", _dihedral_form,
                   families.dihedral_n),
    GenQuaternion: Atom("Q", lambda order: order, "generalized_quaternion", None,
                        families.check_generalized_quaternion),
    SemiDihedral: Atom("SD", lambda order: order, "semidihedral", None,
                       families.check_semidihedral),
    ElemAbelian: Atom("E", lambda p, k: _huge(k * (p.bit_length() - 1)) or p ** k,
                      "elementary_abelian", None, families.check_elementary_abelian),
    Symmetric: Atom("S", lambda n: (_huge((n + 1) // 2 * ((n // 2).bit_length() - 1))
                                    or math.factorial(n)),
                    "symmetric", None, families.check_symmetric),
    SL23: Atom("SL23", lambda: 24, "sl23", None),
    Dicyclic: Atom("Dic", lambda n: 4 * n, "dicyclic", None, families.check_dicyclic),
    CatalogRef: Atom("Cat", lambda order, gid: order, None, None, _check_catalog_ref),
}


def _atom(e: GroupExpr) -> tuple[Atom, tuple]:
    """The table row of an atom and the atom's field values."""
    row = ATOMS.get(type(e))
    if row is None:
        raise TypeError(f"not a group expression: {e!r}")
    return row, tuple(vars(e).values())


def expr_order(e: GroupExpr) -> int | caps.Huge:
    """Group order of an expression, computed without enumeration; for an
    S(n) or E(p,k) too large to build, a lower bound on it."""
    if isinstance(e, Product):
        return _product_order([expr_order(f) for f in e.factors])
    row, args = _atom(e)
    return row.order(*args)


def _product_order(orders: list[int | caps.Huge]) -> int | caps.Huge:
    huge = [o.bits for o in orders if isinstance(o, caps.Huge)]
    return caps.Huge(sum(huge)) if huge else math.prod(orders)


def expr_text(e: GroupExpr) -> str:
    """Canonical expression text; parsing it reproduces the expression."""
    if isinstance(e, Product):
        return " x ".join(expr_text(f) for f in e.factors)
    row, args = _atom(e)
    return f"{row.head}({','.join(map(str, args))})" if args else row.head


def realize(e: GroupExpr, entries=None, order=None) -> Group:
    """Concrete Group for an expression, within the enumeration limit;
    `order` is expr_order(e), when the caller has it already."""
    caps.check("enumeration", expr_order(e) if order is None else order, expr_text(e))
    return _build(e, entries)


def _build(e: GroupExpr, entries) -> Group:
    """realize without the check: no factor of a product is larger than
    the product, and direct_product checks each partial product."""
    if isinstance(e, Product):
        g = _build(e.factors[0], entries)
        for f in e.factors[1:]:
            g = direct_product(g, _build(f, entries))
        return g
    row, args = _atom(e)
    if row.builder is not None:
        return getattr(families, row.builder)(*args)
    if entries is None:
        entries = catalog_mod.default_catalog()
    return catalog_mod.get(entries, *args)


# -- evaluation reports -------------------------------------------------------


@dataclass(frozen=True)
class StatReport:
    label: str
    order: int
    exponent: int
    spectrum: OrderSpectrum
    m: Rational
    h_m: Rational
    c_count: int
    integer: bool
    path: str  # "brute" | "closed_form" | "multiplicative"

    def to_dict(self, digits: int = 6) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "exponent": self.exponent,
            "spectrum": [[d, n] for d, n in self.spectrum.entries],
            "m": format_rational(self.m),
            "m_approx": rational_decimal(self.m, digits),
            "h_m": format_rational(self.h_m),
            "h_m_approx": rational_decimal(self.h_m, digits),
            "c_count": self.c_count,
            "integer": self.integer,
            "path": self.path,
        }

    def to_json(self, digits: int = 6) -> str:
        return json.dumps(self.to_dict(digits), indent=2)


def report_of_spectrum(label: str, spectrum: OrderSpectrum,
                       primes: tuple[int, ...], path: str) -> StatReport:
    """Every statistic of a group from its order spectrum; `primes` are the
    primes of the group order, from which phi(d) is taken for |C(G)|."""
    order = spectrum.total()
    exponent = spectrum.exponent()
    m = m_of_spectrum(spectrum)
    h = Fraction(order) / m
    return StatReport(label=label, order=order, exponent=exponent,
                      spectrum=spectrum, m=m, h_m=h,
                      c_count=spectrum.cyclic_count(primes),
                      integer=is_integer(h), path=path)


def _convolve_spectra(a: OrderSpectrum, b: OrderSpectrum) -> OrderSpectrum:
    counts: dict[int, int] = {}
    for d1, n1 in a.entries:
        for d2, n2 in b.entries:
            d = math.lcm(d1, d2)
            counts[d] = counts.get(d, 0) + n1 * n2
    return OrderSpectrum(tuple(sorted(counts.items())))


# an order too large to build is coprime to nothing: the product is refused whole
def _pairwise_coprime(orders: list[int | caps.Huge]) -> bool:
    return (not any(isinstance(o, caps.Huge) for o in orders)
            and all(math.gcd(a, b) == 1 for a, b in itertools.combinations(orders, 2)))


def _spectrum_source(e: GroupExpr, entries, order=None):
    """(order spectrum, primes of the order, path) of an expression: an
    atom's closed form, the lcm-convolution of the factors' spectra for a
    pairwise-coprime product, and enumeration within the limit for anything
    else.  `order` is expr_order(e), when known: each factor's order is
    computed once, as an S(n) order may be costly."""
    if isinstance(e, Product):
        orders = [expr_order(f) for f in e.factors]
        if _pairwise_coprime(orders):
            spectrum = OrderSpectrum(((1, 1),))
            primes: set[int] = set()
            for f, f_order in zip(e.factors, orders):
                part, part_primes, _ = _spectrum_source(f, entries, f_order)
                spectrum = _convolve_spectra(spectrum, part)
                primes.update(part_primes)
            return spectrum, tuple(sorted(primes)), "multiplicative"
        order = _product_order(orders)
    else:
        row, args = _atom(e)
        if row.spectrum is not None:
            return row.spectrum(*args)
    g = realize(e, entries, order)
    return g.order_spectrum(), factorize(g.size).primes(), "brute"


def eval_expr(e: GroupExpr, entries=None) -> StatReport:
    """Evaluate an expression from its order spectrum, built once by the
    cheapest exact source (closed form, coprime convolution, enumeration)."""
    label = expr_text(e)
    return report_of_spectrum(label, *_spectrum_source(e, entries))
