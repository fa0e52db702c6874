"""Exact rational arithmetic and elementary number theory.

Every group statistic in this package (m, h_m, bounds) is an exact
rational; floats never enter a computation path.  ``Rational`` is the
stdlib :class:`fractions.Fraction`, which already keeps the canonical
form we rely on: reduced, denominator positive.  Decimal renderings are
produced by integer long division, display-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


def rat(num: int, den: int = 1) -> Rational:
    """Exact fraction num/den in canonical form; den must be nonzero."""
    return Fraction(num, den)


def is_integer(q: Rational) -> bool:
    return q.denominator == 1


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ((p1, e1), (p2, e2), ...) with p1 < p2 < ..."""

    pairs: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = 1
        for p, e in self.pairs:
            n *= p ** e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def divisors(self) -> list[int]:
        """All positive divisors of the value, ascending."""
        divs = [1]
        for p, e in self.pairs:
            divs = [d * p ** k for d in divs for k in range(e + 1)]
        return sorted(divs)

    def is_prime_power(self) -> bool:
        return len(self.pairs) == 1

    def __iter__(self):
        return iter(self.pairs)


def is_prime(n: int) -> bool:
    """Trial division primality test, adequate at desk scale."""
    return n >= 2 and smallest_prime_divisor(n) == n


def factorize(n: int) -> Factorization:
    """Prime factorization by trial division; n = 1 gives the empty product."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}; need n >= 1")
    pairs = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                pairs.append((p, e))
        f += 6
    if n > 1:
        pairs.append((n, 1))
    return Factorization(tuple(pairs))


SIEVE_BLOCK = 1 << 16


def m_cyclic_terms(limit: int):
    """(n, A, B) for n = 1..limit, where m(C_n) = A/B with A the product of
    (k+1)(p-1)+1 and B the product of p over the prime powers p^k || n.

    A segmented sieve: the primes up to sqrt(limit) are found once, then
    each block of SIEVE_BLOCK numbers is divided by them, so memory does
    not grow with `limit`.  A/B is not reduced.
    """
    primes = [p for p in range(2, math.isqrt(max(limit, 0)) + 1) if is_prime(p)]
    for lo in range(1, limit + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, limit + 1)
        # no name holds a finished block, so it is freed before the next one
        yield from zip(range(lo, hi), *_block_terms(lo, hi, primes))


def _block_terms(lo: int, hi: int, primes: list[int]) -> tuple[list[int], list[int]]:
    """The lists of A and B for n in [lo, hi)."""
    rest = list(range(lo, hi))
    num = [1] * (hi - lo)
    den = [1] * (hi - lo)
    for p in primes:
        if p * p >= hi:
            break
        for i in range(-lo % p, hi - lo, p):
            r = rest[i] // p
            k = 1
            while r % p == 0:
                r //= p
                k += 1
            rest[i] = r
            num[i] *= k * (p - 1) + p
            den[i] *= p
    # what is left of n after its primes up to sqrt(n) is 1 or one prime
    for i, r in enumerate(rest):
        if r > 1:
            num[i] *= 2 * r - 1
            den[i] *= r
    return num, den


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    return factorize(n).divisors()


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    return phi_from_primes(n, factorize(n).primes())


def phi_from_primes(n: int, primes) -> int:
    """euler_phi(n) from a superset `primes` of the prime factors of n."""
    result = n
    for p in primes:
        if n % p == 0:
            result = result // p * (p - 1)
    return result


def smallest_prime_divisor(n: int) -> int:
    if n < 2:
        raise ValueError(f"smallest_prime_divisor needs n >= 2, got {n}")
    for p in (2, 3):
        if n % p == 0:
            return p
    f = 5
    while f * f <= n:
        if n % f == 0:
            return f
        if n % (f + 2) == 0:
            return f + 2
        f += 6
    return n


def format_rational(q: Rational) -> str:
    """Canonical "num/den" rendering, denominator always present."""
    return f"{q.numerator}/{q.denominator}"


def rational_decimal(q: Rational, digits: int = 6) -> str:
    """Decimal approximation with `digits` places, by integer long division.

    Rounding is half-up on the last digit; no floats involved.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    sign = "-" if q < 0 else ""
    num, den = abs(q.numerator), q.denominator
    scale = 10 ** digits
    scaled, rem = divmod(num * scale, den)
    if 2 * rem >= den:
        scaled += 1
    whole, frac = divmod(scaled, scale)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"
