"""Point counts and the prime sieve against brute force."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaval import kernels
from zetaval.errors import DomainError
from zetaval.exact import is_prime, primes_up_to

from oracles import brute_point_count

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
    got = primes_up_to(1000)
    want = [n for n in range(2, 1001) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert got == want
    with pytest.raises(DomainError):  # no primes below 2
        primes_up_to(1)


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


_coeffs = st.tuples(*[st.integers(-10**6, 10**6)] * 5)


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=150, deadline=None)
@given(_coeffs, st.sampled_from(primes_up_to(3000)))
def test_counts_match_brute_force_below_3000(coeffs, p):
    assert kernels.count_points_batch(coeffs, [p]) == [brute_point_count(coeffs, p)]


@settings(max_examples=15, deadline=None)
@given(_coeffs, st.integers(10**5, 10**5 + 2000).map(_next_prime))
def test_counts_match_brute_force_near_1e5(coeffs, p):
    assert kernels.count_points_batch(coeffs, [p]) == [brute_point_count(coeffs, p)]


def test_counts_on_singular_reductions_above_229():
    # bad primes of these models past the brute-force range: nodes, split and
    # nonsplit, and cusps (c4 = 0 mod p at 347 and 739); y^2 = x^3 - x^2 and
    # y^2 = x^3 are singular at every prime
    cases = [((6, 5, 6, 3, -3), 1193), ((-6, 6, -9, 3, 4), 2819), ((0, 9, 6, 7, 3), 907),
             ((7, 3, 2, 6, -9), 751), ((7, 3, 2, 6, -9), 2423), ((5, -1, 8, -9, 3), 487),
             ((7, 1, -4, -7, -6), 347), ((5, 5, -2, 1, -6), 739),
             ((0, -1, 0, 0, 0), 233), ((0, -1, 0, 0, 0), 239), ((0, 0, 0, 0, 0), 241)]
    traces = set()
    for coeffs, p in cases:
        [got] = kernels.count_points_batch(coeffs, [p])
        assert got == brute_point_count(coeffs, p), (coeffs, p)
        traces.add(p + 1 - got)
    assert traces == {-1, 0, 1}


def test_import_loads_no_numpy():
    code = "import sys, zetaval; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(kernels.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "False"
