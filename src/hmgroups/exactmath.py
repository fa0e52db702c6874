"""Exact rational arithmetic and elementary number theory.

Every group statistic in this package (m, h_m, bounds) is an exact
rational; floats never enter a computation path.  ``Rational`` is the
stdlib :class:`fractions.Fraction`, which already keeps the canonical
form we rely on: reduced, denominator positive.  Decimal renderings are
produced by integer long division, display-only.

Primality and factorization of single values are exact and bounded.
Trial division below TRIAL_LIMIT decides every n < 10^6 by itself; a larger
cofactor is tested by deterministic Miller-Rabin (exact below MR_BOUND, about
3.3 * 10^24) and split by Brent's rho, which charges the `factor_work` cap.
Past that bound or that cap the answer is a CapExceeded refusal, never a
probable one.  Family scans over ranges of n use the sieve in m_cyclic_terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import caps

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


# Trial division by 2, 3 and 6k +- 1 up to TRIAL_LIMIT decides every
# n < TRIAL_LIMIT^2 on its own.  The wheel holds (divisor, its square).
TRIAL_LIMIT = 1000
_TRIAL_DECIDES = TRIAL_LIMIT ** 2
_WHEEL = tuple((p, p * p) for p in (2, 3, *(f + d for f in range(5, TRIAL_LIMIT, 6)
                                            for d in (0, 2))))
# Miller-Rabin with the primes 2..41 as bases is exact below this bound
# (Sorenson & Webster 2015); above it, primality is refused, never guessed,
# unless a base is a witness that the number is composite.
MR_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact primality: trial division below TRIAL_LIMIT, then Miller-Rabin.

    Raises CapExceeded (factor_work) for an n of at least MR_BOUND with no
    divisor below TRIAL_LIMIT and no Miller-Rabin witness (see _miller_rabin)."""
    if n < 2 or _small_divisor(n):
        return False
    return n < _TRIAL_DECIDES or _miller_rabin(n, n)


def factorize(n: int) -> Factorization:
    """Prime factorization; n = 1 gives the empty product.

    Trial division below TRIAL_LIMIT, then Miller-Rabin and Brent's rho on
    what is left, at one unit of the factor_work cap per rho step.  A
    cofactor of at least MR_BOUND that Miller-Rabin cannot prove composite,
    or one that exhausts the cap, raises CapExceeded.  Rho needs about
    sqrt(p) steps to find a prime factor p, so the default cap (4,000,000
    steps, about 2 s) factors in practice any n < MR_BOUND whose second
    largest prime factor is below about 10^11, which includes every n below
    10^22.  Balanced semiprimes below 10^13 take under 10^4 steps."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}; need n >= 1")
    pairs = []
    m = n
    for p, square in _WHEEL:
        if square > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
    if m > 1:
        large = _large_primes(m, n)
        pairs += [(p, large.count(p)) for p in sorted(set(large))]
    return Factorization(tuple(pairs))


def smallest_prime_divisor(n: int) -> int:
    """The least prime dividing n; a divisor below TRIAL_LIMIT is returned
    without looking at the cofactor.  Refuses as `factorize` does."""
    if n < 2:
        raise ValueError(f"smallest_prime_divisor needs n >= 2, got {n}")
    p = _small_divisor(n)
    if p or n < _TRIAL_DECIDES:
        return p or n
    return min(_large_primes(n, n))


def _small_divisor(n: int) -> int:
    """The least divisor of n among 2, 3 and 6k +- 1 below TRIAL_LIMIT that
    is at most sqrt(n), or 0."""
    for p, square in _WHEEL:
        if square > n:
            return 0
        if n % p == 0:
            return p
    return 0


def _large_primes(m: int, n: int) -> list[int]:
    """The prime factors, with repeats, of a cofactor m > 1 of n whose only
    divisor below TRIAL_LIMIT, if any, is m itself."""
    budget = _Budget(n)
    primes = []
    parts = [m]
    while parts:
        part = parts.pop()
        if part < _TRIAL_DECIDES or _miller_rabin(part, n):
            primes.append(part)
        else:
            d = _brent_rho(part, budget)
            parts += [d, part // d]
    return primes


def _miller_rabin(m: int, n: int) -> bool:
    """Whether m, a divisor of n with no divisor below TRIAL_LIMIT, is prime.
    A witness among the bases proves m composite; with none, m is prime below
    MR_BOUND and refused (factor_work) at or above it."""
    # Witnesses are sought, and rho may split m, only up to twice the bits of
    # MR_BOUND, where the factor_work cap of rho steps still takes about 2 s;
    # a larger m is refused at once.
    if m.bit_length() <= 2 * MR_BOUND.bit_length():
        s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2^s, d odd
        d = (m - 1) >> s
        for a in _MR_BASES:
            x = pow(a, d, m)
            if x == 1 or x == m - 1:
                continue
            for _ in range(s - 1):
                x = x * x % m
                if x == m - 1:
                    break
            else:
                return False
        if m < MR_BOUND:
            return True
    of = "" if m == n else f", a divisor of {caps.size_text(n)},"
    raise caps.CapExceeded(
        f"cannot decide whether {caps.size_text(m)}{of} is prime: it is not below "
        f"{MR_BOUND}, the bound of exact Miller-Rabin (factor_work)",
        name="factor_work", limit=caps.LIMITS["factor_work"], requested=n)


class _Budget:
    """The factor_work cap left for factoring n, charged per rho step."""

    def __init__(self, n: int):
        self.n, self.limit = n, caps.LIMITS["factor_work"]
        self.left = self.limit

    def charge(self, steps: int) -> None:
        self.left -= steps
        if self.left < 0:
            raise caps.CapExceeded(
                f"cannot factor {caps.size_text(self.n)} within the factor_work cap "
                f"of {self.limit} rho steps",
                name="factor_work", limit=self.limit, requested=self.n)


_RHO_BATCH = 128  # steps whose differences are multiplied before one gcd


def _brent_rho(n: int, budget: _Budget) -> int:
    """A proper divisor of an odd composite n, by Brent's variant of Pollard
    rho (Brent 1980) on x -> x^2 + c for c = 1, 2, ... from x0 = 2."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            budget.charge(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(_RHO_BATCH, r - k)
                budget.charge(steps)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:  # the batch overshot: step from its start one at a time
            g = 1
            while g == 1:
                budget.charge(1)
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


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
