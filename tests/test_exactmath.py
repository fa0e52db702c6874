import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmgroups import caps, exactmath
from hmgroups.exactmath import (MR_BOUND, SIEVE_BLOCK, divisors, euler_phi, factorize,
                                format_rational, is_integer, is_prime,
                                m_cyclic_terms, phi_from_primes, rat,
                                rational_decimal, smallest_prime_divisor)
from hmgroups.statistics import m_cyclic_closed


class TestRat:
    def test_reduction(self):
        assert rat(6, 4) == Fraction(3, 2)

    def test_sign_normalization(self):
        q = rat(-2, -4)
        assert q == Fraction(1, 2)
        assert q.denominator == 2

    def test_zero(self):
        q = rat(0, 7)
        assert q.numerator == 0 and q.denominator == 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rat(1, 0)

    def test_arithmetic_dic3_spectrum(self):
        # sum of reciprocal orders over the dicyclic group of order 12
        total = rat(1) + rat(1, 2) + rat(2, 3) + rat(6, 4) + rat(2, 6)
        assert total == 4

    def test_inverse_product(self):
        assert rat(1, 3) * rat(3, 1) == 1

    def test_comparison(self):
        assert rat(36, 19) < rat(12, 5)

    def test_division(self):
        assert rat(3, 2) / rat(3, 4) == 2
        with pytest.raises(ZeroDivisionError):
            rat(1, 2) / rat(0, 5)


class TestIntegerPredicate:
    def test_integer(self):
        assert is_integer(rat(4, 1))
        assert is_integer(rat(8, 2))

    def test_non_integer(self):
        assert not is_integer(rat(24, 7))
        assert not is_integer(rat(16, 5))


@given(st.fractions(), st.fractions(), st.fractions())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


class TestFactorize:
    def test_basic(self):
        assert factorize(12).pairs == ((2, 2), (3, 1))
        assert factorize(1).pairs == ()
        assert factorize(823543).pairs == ((7, 7),)

    def test_errors(self):
        for bad in (0, -5):
            with pytest.raises(ValueError):
                factorize(bad)

    def test_value_roundtrip_full_range(self):
        # reconstruct-from-factorization identity over the whole scan range
        for n in range(1, 1_000_001):
            assert factorize(n).value() == n

    def test_factors_are_prime_and_sorted(self):
        for n in range(1, 20_000):
            f = factorize(n)
            assert all(is_prime(p) for p, _ in f)
            assert list(f.primes()) == sorted(f.primes())

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_value_roundtrip_sampled(self, n):
        f = factorize(n)
        assert f.value() == n
        assert all(is_prime(p) and e >= 1 for p, e in f)

    def test_is_prime_power(self):
        assert factorize(16).is_prime_power()
        assert factorize(7).is_prime_power()
        assert not factorize(12).is_prime_power()
        assert not factorize(1).is_prime_power()


class TestDivisors:
    def test_examples(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(49) == [1, 7, 49]


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(15) == 8
        assert euler_phi(9) == 6

    def test_error(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=3000),
           st.integers(min_value=1, max_value=3000))
    def test_multiplicative_on_coprime(self, a, b):
        if math.gcd(a, b) == 1:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    def test_divisor_sum_identity(self):
        # sum over d | n of phi(d) = n
        for n in range(1, 10_001):
            assert sum(euler_phi(d) for d in divisors(n)) == n

    def test_from_primes_of_a_multiple(self):
        # any superset of the primes of d gives phi(d): those of a multiple n
        for n in (1, 360, 2 ** 10 * 3 ** 5, 9699690):
            primes = factorize(n).primes()
            for d in divisors(n):
                assert phi_from_primes(d, primes) == euler_phi(d)


class TestSmallestPrimeDivisor:
    def test_examples(self):
        assert smallest_prime_divisor(12) == 2
        assert smallest_prime_divisor(15) == 3
        assert smallest_prime_divisor(49) == 7
        assert smallest_prime_divisor(97) == 97

    def test_error(self):
        with pytest.raises(ValueError):
            smallest_prime_divisor(1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=10 ** 6))
    def test_matches_factorization(self, n):
        assert smallest_prime_divisor(n) == factorize(n).primes()[0]


class TestIsPrime:
    def test_matches_trial_division(self):
        primes = [n for n in range(-3, 2000)
                  if n >= 2 and all(n % k for k in range(2, n))]
        assert [n for n in range(-3, 2000) if is_prime(n)] == primes


# strong pseudoprimes to the bases 2, 3, 5, 7 and to the primes up to 23
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051)
# two factors of 7-digit primes: the shape of the benchmark's huge inputs
BALANCED = 1000003 * 3000017
TWO_PRIMES_NEAR_10_13 = 10000000000037 * 10000001000029


def chernick_carmichaels(count: int) -> list[int]:
    """(6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael number."""
    found = []
    k = 0
    while len(found) < count:
        k += 1
        parts = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(is_prime(p) for p in parts):
            found.append(math.prod(parts))
    return found


class TestSingleValues:
    """Miller-Rabin and Brent's rho above the trial-division range."""

    def test_parts_multiply_back_and_are_prime(self):
        rng = random.Random(15)
        values = [rng.randrange(1, 10 ** 13) for _ in range(300)]
        values += [BALANCED, 2 ** 61 - 1, (2 ** 31 - 1) ** 2, 1009 ** 3, 10 ** 18 + 3,
                   *STRONG_PSEUDOPRIMES, *chernick_carmichaels(8)]
        for n in values:
            f = factorize(n)
            assert f.value() == n
            assert all(is_prime(p) and e >= 1 for p, e in f)
            assert list(f.primes()) == sorted(f.primes())
            if n > 1:
                assert smallest_prime_divisor(n) == f.primes()[0]

    def test_strong_pseudoprimes_are_composite(self):
        assert factorize(3215031751).pairs == ((151, 1), (751, 1), (28351, 1))
        assert factorize(3825123056546413051).pairs == (
            (149491, 1), (747451, 1), (34233211, 1))
        assert not any(is_prime(n) for n in STRONG_PSEUDOPRIMES)

    def test_large_primes(self):
        assert is_prime(10 ** 18 + 3)
        assert factorize(10 ** 18 + 3).pairs == ((10 ** 18 + 3, 1),)
        assert smallest_prime_divisor(10 ** 18 + 3) == 10 ** 18 + 3
        assert not is_prime(10 ** 18 + 1)

    def test_small_divisor_without_the_cofactor(self):
        # the cofactor is a prime above MR_BOUND, which is never tested
        assert smallest_prime_divisor(7 * (10 ** 30 + 57)) == 7
        assert not is_prime(7 * (10 ** 30 + 57))

    def test_trial_division_strips_small_primes(self):
        assert factorize(2 ** 100 * 1000003).pairs == ((2, 100), (1000003, 1))
        assert factorize(2 ** 7142).pairs == ((2, 7142),)

    def test_balanced_semiprime_at_the_default_cap(self):
        assert factorize(BALANCED).pairs == ((1000003, 1), (3000017, 1))
        assert smallest_prime_divisor(BALANCED) == 1000003

    @pytest.mark.parametrize("call", [factorize, smallest_prime_divisor])
    def test_balanced_semiprime_past_a_small_cap(self, call):
        with caps.override(factor_work=100):
            with pytest.raises(caps.CapExceeded) as err:
                call(BALANCED)
        assert err.value.name == "factor_work"
        assert err.value.limit == 100
        assert str(err.value) == (f"cannot factor {BALANCED} within the factor_work "
                                  "cap of 100 rho steps")
        assert factorize(BALANCED).value() == BALANCED  # the cap is restored

    @pytest.mark.parametrize("call", [is_prime, factorize, smallest_prime_divisor])
    def test_above_the_miller_rabin_bound_refuses(self, call):
        with pytest.raises(caps.CapExceeded) as err:
            call(10 ** 30 + 57)
        assert err.value.name == "factor_work"
        assert str(err.value) == (
            f"cannot decide whether {10 ** 30 + 57} is prime: it is not below "
            f"{MR_BOUND}, the bound of exact Miller-Rabin (factor_work)")

    def test_the_bound_itself_refuses(self):
        # MR_BOUND is a strong pseudoprime to every base 2..41
        with pytest.raises(caps.CapExceeded):
            is_prime(MR_BOUND)

    def test_witness_decides_above_the_bound(self):
        # a product of two primes near 10^13; base 2 is a witness
        assert not is_prime(TWO_PRIMES_NEAR_10_13)
        assert not is_prime((2 ** 61 - 1) * (2 ** 89 - 1))  # 150 bits
        assert MR_BOUND < TWO_PRIMES_NEAR_10_13 < (2 ** 61 - 1) * (2 ** 89 - 1)

    def test_composite_above_the_bound_goes_to_rho(self):
        n = BALANCED * (10 ** 18 + 3)
        assert n > MR_BOUND
        f = factorize(n)
        assert f.pairs == ((1000003, 1), (3000017, 1), (10 ** 18 + 3, 1))
        assert all(is_prime(p) for p in f.primes())
        assert smallest_prime_divisor(n) == 1000003
        with caps.override(factor_work=100):
            with pytest.raises(caps.CapExceeded) as err:
                factorize(TWO_PRIMES_NEAR_10_13)
        assert str(err.value) == (f"cannot factor {TWO_PRIMES_NEAR_10_13} within "
                                  "the factor_work cap of 100 rho steps")

    def test_prime_part_above_the_bound_refuses(self):
        # rho splits off 1009, and the cofactor 10^30 + 57 has no witness
        with pytest.raises(caps.CapExceeded) as err:
            factorize(1009 * (10 ** 30 + 57))
        assert str(err.value).startswith(
            f"cannot decide whether {10 ** 30 + 57}, a divisor of "
            f"{1009 * (10 ** 30 + 57)}, is prime")

    def test_no_witness_search_past_twice_the_bound_bits(self):
        # rho steps on 399 bits cost too much for the cap to bound time, so
        # this composite is refused as a prime would be
        n = (10 ** 60 + 7) ** 2
        assert n.bit_length() > 2 * MR_BOUND.bit_length()
        with pytest.raises(caps.CapExceeded) as err:
            is_prime(n)
        assert str(err.value).startswith("cannot decide whether > 10^")

    def test_huge_cofactor_is_named_by_a_power_of_ten(self):
        with pytest.raises(caps.CapExceeded) as err:
            factorize(2 * (10 ** 60 + 7))
        # the cofactor 10^60 + 7 has 200 bits, and 10^59 < 2^199
        assert str(err.value).startswith("cannot decide whether > 10^59, a divisor "
                                         "of > 10^60, is prime")


class TestAgainstSympy:
    """factorize and is_prime against sympy, an independent implementation."""

    @pytest.fixture(scope="class")
    def sympy(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def agree(sympy, values):
        for n in values:
            assert factorize(n).pairs == tuple(sorted(sympy.factorint(n).items())), n
            assert is_prime(n) == sympy.isprime(n), n

    def test_every_n_to_200000(self, sympy):
        self.agree(sympy, range(1, 200_001))

    def test_random_below_10_13(self, sympy):
        rng = random.Random(2015)
        self.agree(sympy, [rng.randrange(1, 10 ** 13) for _ in range(2000)])

    def test_balanced_semiprimes(self, sympy):
        rng = random.Random(1980)
        values = []
        for _ in range(200):
            p = sympy.nextprime(rng.randrange(10 ** 6, 3 * 10 ** 6))
            values.append(p * sympy.nextprime(p + rng.randrange(1, 10 ** 5)))
        self.agree(sympy, values)

    def test_prime_squares_and_cubes(self, sympy):
        primes = [1009, 1013, 65537, 1000003, 2 ** 31 - 1, 10 ** 9 + 7]
        self.agree(sympy, [p ** k for p in primes for k in (2, 3) if p ** k < MR_BOUND])

    def test_pseudoprimes_and_carmichael_numbers(self, sympy):
        carmichaels = chernick_carmichaels(12) + [561, 1105, 1729, 2465, 2821, 6601,
                                                  8911, 41041, 825265, 321197185]
        for n in carmichaels:  # Korselt: squarefree, and p - 1 divides n - 1
            assert all(e == 1 and (n - 1) % (p - 1) == 0
                       for p, e in sympy.factorint(n).items())
        self.agree(sympy, [*STRONG_PSEUDOPRIMES, *carmichaels])

    def test_just_below_the_bound(self, sympy):
        values = range(MR_BOUND - 3000, MR_BOUND)
        primes = [n for n in values if sympy.isprime(n)]
        assert len(primes) >= 10
        assert [n for n in values if is_prime(n)] == primes
        self.agree(sympy, primes)


class TestMCyclicTerms:
    """The sieve's terms against m_cyclic_closed, which factors each n alone."""

    def test_first_5000(self):
        terms = list(m_cyclic_terms(5000))
        assert [n for n, _, _ in terms] == list(range(1, 5001))
        bad = [n for n, a, b in terms if Fraction(a, b) != m_cyclic_closed(n)]
        assert bad == []

    def test_near_block_boundaries(self):
        # blocks start at 1, 1 + SIEVE_BLOCK, ...; the limit ends the third block
        limit = 3 * SIEVE_BLOCK
        near = {n for k in (1, 2, 3) for n in range(k * SIEVE_BLOCK - 63, k * SIEVE_BLOCK + 66)}
        seen = []
        for n, a, b in m_cyclic_terms(limit):
            if n in near:
                seen.append(n)
                assert Fraction(a, b) == m_cyclic_closed(n), n
        assert n == limit
        assert seen == sorted(m for m in near if m <= limit)

    @pytest.mark.parametrize("limit", [SIEVE_BLOCK, SIEVE_BLOCK + 1])
    def test_limit_at_a_boundary(self, limit):
        for count, (n, a, b) in enumerate(m_cyclic_terms(limit), 1):
            pass
        assert count == n == limit
        assert Fraction(a, b) == m_cyclic_closed(n)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64, 1000])
    def test_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(exactmath, "SIEVE_BLOCK", block)
        terms = list(m_cyclic_terms(2000))
        assert [n for n, _, _ in terms] == list(range(1, 2001))
        assert all(Fraction(a, b) == m_cyclic_closed(n) for n, a, b in terms)

    @pytest.mark.parametrize("limit, want", [(-5, []), (0, []), (1, [(1, 1, 1)]),
                                             (4, [(1, 1, 1), (2, 3, 2), (3, 5, 3),
                                                  (4, 4, 2)])])
    def test_small_limits(self, limit, want):
        assert list(m_cyclic_terms(limit)) == want


class TestRendering:
    def test_format_always_with_denominator(self):
        assert format_rational(rat(4, 1)) == "4/1"
        assert format_rational(rat(24, 7)) == "24/7"
        assert format_rational(rat(-3, 6)) == "-1/2"

    def test_decimal(self):
        assert rational_decimal(rat(24, 7)) == "3.428571"
        assert rational_decimal(rat(24, 7), 3) == "3.429"
        assert rational_decimal(rat(1, 2), 0) == "1"  # rounds half up
        assert rational_decimal(rat(-24, 7), 2) == "-3.43"
        assert rational_decimal(rat(2, 1), 4) == "2.0000"

    def test_decimal_carry(self):
        assert rational_decimal(rat(999999, 1000000), 3) == "1.000"
