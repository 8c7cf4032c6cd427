"""Independent references for the benchmark's correctness checks.

Nothing here imports zetaval: number theory is re-implemented in plain
Python, transcendental values come from mpmath at twice the working
precision or more, and point counts come from a pure-Python loop over F_p.
All of it runs outside the timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath


# -- exact number theory ----------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return n >= 1


def fundamental_discriminant(D: int) -> int:
    """Discriminant of Q(sqrt(D)) for squarefree D >= 2."""
    return D if D % 4 == 1 else 4 * D


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 0, by quadratic reciprocity."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def smallest_primitive_root(p: int) -> int:
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


def elementary_character(p: int, m: int) -> list:
    """chi(n) = exp(2 pi i m nu(n) / (p-1)) with nu the discrete log to the
    smallest primitive root; returned as the period chi(0), ..., chi(p-1)."""
    g = smallest_primitive_root(p)
    values = [mpmath.mpc(0)] * p
    x = 1
    for nu in range(p - 1):
        values[x] = mpmath.expjpi(mpmath.mpf(2 * m * nu) / (p - 1))
        x = x * g % p
    return values


def naive_point_count(coeffs: tuple[int, ...], p: int) -> int:
    """Points of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F_p,
    including infinity, by a plain loop over x."""
    a1, a2, a3, a4, a6 = coeffs
    if p == 2:
        return 1 + sum(
            (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
            for x in (0, 1)
            for y in (0, 1)
        )
    square = bytearray(p)
    for y in range(p):
        square[y * y % p] = 1
    count = 1
    for x in range(p):
        # (2y + a1 x + a3)^2 = (a1 x + a3)^2 + 4 (x^3 + a2 x^2 + a4 x + a6)
        h = a1 * x + a3
        d = (h * h + 4 * (((x + a2) * x + a4) * x + a6)) % p
        count += 1 if d == 0 else 2 * square[d]
    return count


def local_zeta_exact(t: int, p: int, s: int) -> Fraction:
    """(1 - t p^-s + p^(1-2s)) / ((1 - p^-s)(1 - p^(1-s))) at integer s."""
    x = Fraction(1, p**s)
    return (1 - t * x + p * x * x) / ((1 - x) * (1 - p * x))


# -- transcendental references -----------------------------------------------


def to_fraction(x: mpmath.mpf) -> Fraction:
    if not mpmath.isfinite(x):
        raise ValueError(f"reference is not finite: {x}")
    sign, man, exp, _bits = mpmath.mpf(x)._mpf_  # value (-1)^sign * man * 2^exp
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def zeta_ref(s_re: Fraction, s_im: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    with mpmath.workprec(2 * prec + 32):
        z = mpmath.zeta(mpmath.mpc(_mpf(s_re), _mpf(s_im)))
        return to_fraction(z.real), to_fraction(z.imag)


def l_one_ref(D: int, prec: int) -> Fraction:
    """L(1, chi_Delta) = -(1/q) sum_a chi(a) psi(a/q), q = Delta."""
    q = fundamental_discriminant(D)
    with mpmath.workprec(2 * prec + 32):
        total = mpmath.mpf(0)
        for a in range(1, q):
            c = kronecker(q, a)
            if c:
                total += c * mpmath.digamma(mpmath.mpf(a) / q)
        return to_fraction(-total / q)


def l_elementary_ref(p: int, m: int, s: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    with mpmath.workprec(2 * prec + 32):
        v = mpmath.dirichlet(_mpf(s), elementary_character(p, m))
        v = mpmath.mpc(v)
        return to_fraction(v.real), to_fraction(v.imag)


def dedekind_ref(D: int, s: Fraction, prec: int) -> Fraction:
    """zeta_K(s) = zeta(s) L(s, chi_Delta) for K = Q(sqrt(D))."""
    q = fundamental_discriminant(D)
    with mpmath.workprec(2 * prec + 32):
        x = _mpf(s)
        chi = [kronecker(q, k) for k in range(q)]
        return to_fraction(mpmath.zeta(x) * mpmath.dirichlet(x, chi))


def l_one_terms(D: int, digits: float) -> int:
    """Smallest m whose l_one_quadratic tail bound
    Delta^(3/2)/pi^2 * exp(-pi m^2/Delta)/m^3 is below 10^-digits."""
    q = fundamental_discriminant(D)
    m = 1
    while True:
        log10_bound = (
            1.5 * math.log10(q) - 2 * math.log10(math.pi)
            - math.pi * m * m / q / math.log(10) - 3 * math.log10(m)
        )
        if log10_bound < -digits:
            return m
        m += 1
