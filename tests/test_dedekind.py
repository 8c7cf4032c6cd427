"""Siegel values, ideal counts, and the two zeta_K evaluation routes."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaval.dedekind import (
    DedekindParams,
    RealQuadraticField,
    dedekind_enclosure,
    hilbert_volume,
    ideal_count,
    siegel_zeta_minus1,
)
from zetaval.errors import DomainError
from zetaval.exact import QuadraticDiscriminant, kronecker
from zetaval.interval import PrecisionContext
from zetaval.zeta import EMParams

ctx = PrecisionContext(128)


def _siegel_by_transcription(p: int) -> Fraction:
    """Literal re-derivation: 2 zeta_K(-1) = (1/15) sum sigma1((p-b^2)/4)."""
    total = Fraction(0)
    for b in range(1, math.isqrt(p) + 1):
        if b % 2 == 1 and b * b < p:
            n = (p - b * b) // 4
            total += sum(d for d in range(1, n + 1) if n % d == 0)
    two_zeta = total / 15
    return two_zeta / 2


@pytest.mark.parametrize("p,expected", [(5, Fraction(1, 30)), (13, Fraction(1, 6)), (17, Fraction(1, 3))])
def test_siegel_values(p, expected):
    assert siegel_zeta_minus1(p) == expected
    assert siegel_zeta_minus1(p) == _siegel_by_transcription(p)


def test_siegel_more_primes_cross_checked():
    for p in (29, 37, 41, 53, 61, 73, 89, 97):
        assert siegel_zeta_minus1(p) == _siegel_by_transcription(p)


def test_siegel_preconditions():
    with pytest.raises(DomainError):
        siegel_zeta_minus1(7)  # 3 mod 4
    with pytest.raises(DomainError):
        siegel_zeta_minus1(9)  # composite


@pytest.mark.parametrize("p,expected", [(5, Fraction(1, 15)), (13, Fraction(1, 3)), (17, Fraction(2, 3))])
def test_hilbert_volume(p, expected):
    assert hilbert_volume(p) == expected


def test_ideal_count_examples():
    K = RealQuadraticField.of(5)
    assert ideal_count(K, 1) == 1
    assert ideal_count(K, 5) == 1  # ramified
    assert ideal_count(K, 11) == 2  # split


def test_ideal_count_multiplicative_on_coprimes():
    K = RealQuadraticField.of(5)
    r = [0] + [ideal_count(K, n) for n in range(1, 201)]
    for m in range(1, 201):
        for n in range(1, 201):
            if m * n <= 200 and math.gcd(m, n) == 1:
                assert r[m * n] == r[m] * r[n]


def test_ideal_count_prime_trichotomy():
    for D in (5, 2, 13):
        K = RealQuadraticField.of(D)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            r = ideal_count(K, p)
            assert r in (0, 1, 2)
            chi = kronecker(K.discriminant.delta, p)
            assert r == 1 + chi


@pytest.mark.parametrize("delta", [5, 8, 13])
@pytest.mark.parametrize("s", [2, 3])
def test_product_and_direct_modes_intersect(delta, s):
    D = QuadraticDiscriminant.from_discriminant(delta).D
    K = RealQuadraticField.of(D)
    params = DedekindParams(em=EMParams(24, 5), l_terms=1500, direct_terms=4000)
    prod = dedekind_enclosure(K, ctx.interval(s), "product", params, ctx)
    direct = dedekind_enclosure(K, ctx.interval(s), "direct", params, ctx)
    assert prod.value.re.intersects(direct.value.re)
    # at real s both modes return real boxes
    assert prod.value.im == direct.value.im == ctx.zero()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([2, 3, 5, 13, 15]),
    st.integers(1501, 4000),
    st.integers(2, 400),
    st.sampled_from([Fraction(0), Fraction(1, 10**13)]),
)
def test_direct_mode_radius_bounds_the_tail(D, sigma_milli, N, r):
    # the box holds zeta_K at every point of s, and the radius bounds the
    # tail at s.lo, where it is largest; every tail term is >= 0, so the
    # value lies above the partial sum
    K = RealQuadraticField.of(D)
    sigma = Fraction(sigma_milli, 1000)
    s_box = ctx.interval(sigma - r, sigma + r)
    enc = dedekind_enclosure(K, s_box, "direct", DedekindParams(direct_terms=N), ctx)
    delta = K.discriminant.delta
    with mpmath.workprec(3 * ctx.prec):
        lo, hi = (mpmath.ldexp(*end) for end in (enc.value.re.lo, enc.value.re.hi))
        chi = [kronecker(delta, n) if n else 0 for n in range(delta)]
        points = [mpmath.ldexp(*s_box.lo), mpmath.mpf(sigma_milli) / 1000, mpmath.ldexp(*s_box.hi)]
        values = [mpmath.zeta(s) * mpmath.dirichlet(s, chi) for s in points]
        assert all(lo <= v <= hi for v in values), (D, sigma, N, r)
        head = mpmath.fsum(ideal_count(K, n) * mpmath.power(n, -points[0]) for n in range(1, N + 1))
        assert values[0] - head <= mpmath.ldexp(*enc.remainder_radius), (D, sigma, N, r)


def test_product_mode_width_at_s3():
    K = RealQuadraticField.of(5)
    enc = dedekind_enclosure(K, ctx.interval(3), "product", DedekindParams(), ctx)
    assert enc.value.re.width_float() <= 1e-6


def test_mode_preconditions():
    K = RealQuadraticField.of(5)
    with pytest.raises(DomainError):
        dedekind_enclosure(K, ctx.interval(1), "product", DedekindParams(), ctx)
    with pytest.raises(DomainError):
        dedekind_enclosure(K, ctx.interval(Fraction(5, 4)), "direct", DedekindParams(), ctx)
    with pytest.raises(DomainError):
        dedekind_enclosure(K, ctx.interval(2), "bogus", DedekindParams(), ctx)
