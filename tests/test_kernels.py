"""Fixed-width kernels: the prime sieve and point counts against brute force."""

import pytest

from zetaval import kernels

CURVES = [
    (0, -1, 1, 0, 0),
    (0, 0, 0, 0, 1),
    (1, -1, 0, -4, 4),
    (0, 0, 0, -7, 10),
]


def _brute(coeffs, p):
    a1, a2, a3, a4, a6 = (c % p for c in coeffs)
    total = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == (x**3 + a2 * x * x + a4 * x + a6) % p:
                total += 1
    return total


def test_sieve_matches_trial_division():
    got = list(kernels.sieve(1000))
    want = [n for n in range(2, 1001) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert got == want
    assert kernels.sieve(1).size == 0


def test_numpy_counts_match_brute_force():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for coeffs in CURVES:
        got = kernels.count_points_batch(coeffs, primes)
        want = [_brute(coeffs, p) for p in primes]
        assert list(got) == want


def test_huge_prime_rejected():
    with pytest.raises(ValueError):
        kernels.count_points_batch((0, 0, 0, 0, 1), [2**31 + 11])


def test_negative_coefficients_reduced_mod_p():
    got = kernels.count_points_batch((0, -1, 1, 0, 0), [11])
    assert int(got[0]) == _brute((0, -1, 1, 0, 0), 11)
