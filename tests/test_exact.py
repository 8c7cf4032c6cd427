"""Exact number theory: Bernoulli numbers, divisor sums, symbols, primes."""

import math
import time
from fractions import Fraction

import pytest

from zetaval import exact
from zetaval.errors import DomainError, NotPrime
from zetaval.exact import (
    QuadraticDiscriminant,
    bernoulli,
    index_table,
    is_prime,
    is_squarefree,
    kronecker,
    primes_up_to,
    primitive_root,
    sigma1,
)


def _bernoulli_double_sum(m: int) -> Fraction:
    """Worpitzky-style closed form, an independent second route to B_m."""
    total = Fraction(0)
    for k in range(m + 1):
        inner = Fraction(0)
        for j in range(k + 1):
            inner += (-1) ** j * math.comb(k, j) * Fraction(j**m if m else 1)
        total += inner / (k + 1)
    return total


def test_bernoulli_base_cases():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_independent_recurrence():
    for m in range(0, 16):
        assert bernoulli(m) == _bernoulli_double_sum(m)


def _bernoulli_binomial(top: int) -> list[Fraction]:
    """B_0, ..., B_top from sum_{j<=m} C(m+1, j) B_j = 0, the recurrence the
    tangent numbers replaced."""
    b = [Fraction(1)]
    for m in range(1, top + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def test_bernoulli_matches_the_binomial_recurrence_to_300():
    assert [bernoulli(m) for m in range(301)] == _bernoulli_binomial(300)


def test_bernoulli_1000_fills_cold_within_a_second(monkeypatch):
    monkeypatch.setattr(exact, "_bernoulli_cache", [Fraction(1), Fraction(-1, 2)])
    start = time.perf_counter()
    b = bernoulli(1000)
    assert time.perf_counter() - start < 1.0
    # von Staudt-Clausen: the denominator of B_1000 is the product of the
    # primes p with p - 1 dividing 1000
    primes = [p for p in range(2, 1002) if is_prime(p) and 1000 % (p - 1) == 0]
    assert b.denominator == math.prod(primes)
    assert b < 0  # B_2k has sign (-1)**(k+1)


def test_bernoulli_odd_vanishes_and_even_alternates():
    for k in range(1, 12):
        assert bernoulli(2 * k + 1) == 0
        assert (-1) ** (k + 1) * bernoulli(2 * k) > 0


def test_sigma1_values():
    assert sigma1(1) == 1
    assert sigma1(4) == 7
    assert sigma1(6) == 12
    for n in range(1, 200):
        assert sigma1(n) == sum(d for d in range(1, n + 1) if n % d == 0)


def test_kronecker_spec_examples():
    assert kronecker(5, 5) == 0
    assert kronecker(5, 2) == -1
    assert kronecker(5, 4) == 1


def test_kronecker_matches_legendre_at_odd_primes():
    for p in (3, 5, 7, 11, 13, 41):
        for a in range(-20, 21):
            legendre = pow(a % p, (p - 1) // 2, p) if a % p else 0
            legendre = -1 if legendre == p - 1 else legendre
            assert kronecker(a, p) == legendre


def test_kronecker_complete_multiplicativity_exhaustive():
    chi = [0] + [kronecker(5, n) for n in range(1, 1_000_001)]
    for m in range(1, 1001):
        cm = chi[m]
        for n in range(1, 1001):
            assert chi[m * n] == cm * chi[n]


@pytest.mark.parametrize("delta", [5, 8, 13, 17])
def test_kronecker_periodicity(delta):
    for n in range(1, 3 * delta + 1):
        assert kronecker(delta, n) == kronecker(delta, n + delta)


def test_primitive_roots():
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(3) == 2
    with pytest.raises(NotPrime):
        primitive_root(9)
    with pytest.raises(NotPrime):
        primitive_root(2)


def test_index_table_spec_examples():
    nu5 = index_table(5)
    assert [nu5[n] for n in (1, 2, 3, 4)] == [0, 1, 3, 2]
    nu3 = index_table(3)
    assert nu3 == {1: 0, 2: 1}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_index_table_is_a_bijective_discrete_log(p):
    nu = index_table(p)
    assert sorted(nu.values()) == list(range(p - 1))
    for n in range(1, p):
        assert pow(primitive_root(p), nu[n], p) == n


def test_primes_up_to():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(2) == [2]
    ps = primes_up_to(100)
    assert len(ps) == 25 and ps[-1] == 97
    # cross-check by trial division
    assert ps == [n for n in range(2, 101) if is_prime(n)]
    with pytest.raises(DomainError):
        primes_up_to(1)


def test_is_prime_brute():
    def brute(n):
        return n > 1 and all(n % d for d in range(2, n))

    for n in range(0, 500):
        assert is_prime(n) == brute(n)


def test_squarefree():
    def brute(n):
        return n >= 1 and all(n % (d * d) for d in range(2, math.isqrt(n) + 1))

    for n in range(-3, 3001):
        assert is_squarefree(n) == brute(n)
    # the largest prime below 10**12, and the square of the largest below 10**6
    assert is_squarefree(999_999_999_989)
    assert not is_squarefree(999_983**2)


def test_divisors_brute():
    for n in range(1, 501):
        assert sorted(exact._divisors(n)) == [d for d in range(1, n + 1) if n % d == 0]


def test_quadratic_discriminant_cases():
    assert QuadraticDiscriminant.from_squarefree(5).delta == 5
    assert QuadraticDiscriminant.from_squarefree(2).delta == 8
    assert QuadraticDiscriminant.from_squarefree(3).delta == 12
    with pytest.raises(DomainError):
        QuadraticDiscriminant.from_squarefree(12)
    with pytest.raises(DomainError):
        QuadraticDiscriminant.from_squarefree(1)
    assert QuadraticDiscriminant.from_discriminant(8).D == 2
    assert QuadraticDiscriminant.from_discriminant(13).D == 13
    with pytest.raises(DomainError):
        QuadraticDiscriminant.from_discriminant(7)


def test_bernoulli_rejects_negative():
    with pytest.raises(DomainError):
        bernoulli(-1)
