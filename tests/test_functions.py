"""Elementary enclosures against an independent multiprecision implementation."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from zetaval import functions as fn
from zetaval.errors import DomainError
from zetaval.interval import ComplexBox, PrecisionContext

mpmath.mp.dps = 60

ctx = PrecisionContext(128)


def _mp_in(iv, value) -> bool:
    return iv.contains(mpmath.nstr(value, 50, strip_zeros=False))


def _ulp_width_at_most(iv, ulps: int, prec: int) -> bool:
    scale = max(abs(iv.lo[0]).bit_length() + iv.lo[1], abs(iv.hi[0]).bit_length() + iv.hi[1])
    return iv.width_fraction() <= ulps * Fraction(2) ** (scale - prec)


def test_exp_at_zero_is_tight():
    e = fn.exp(ctx.interval(0), ctx)
    assert e.contains(1)
    assert _ulp_width_at_most(e, 2, ctx.prec)


# log2(e) = 1.44269504088896340735... lies strictly between these
LOG2_E_LO, LOG2_E_HI = Fraction(14426950408889634, 10**16), Fraction(14426950408889635, 10**16)


def test_log2_e_bracket():
    assert LOG2_E_LO < Fraction(mpmath.nstr(mpmath.log(mpmath.e, 2), 40)) < LOG2_E_HI


def test_exp_far_below_zero_is_a_power_of_two_bound():
    # e**y = 2**(y log2 e) for y <= 0, so the bound is [0, 2**K] with K the
    # ceiling of y times a lower bound on log2 e: K >= y log2 e > y LOG2_E_HI,
    # and K < y LOG2_E_LO + 1 keeps the factor log2 e
    for lo, hi in [(-(2**32), -(2**32)), (-(2**41), -(2**32) - Fraction(1, 3)),
                   (-(10**400), -(10**400) + Fraction(7, 2))]:
        x = ctx.interval(lo, hi)
        e = fn.exp(x, ctx)
        y = Fraction(x.hi[0]) * Fraction(2) ** x.hi[1]
        assert e.lo == (0, 0) and e.hi[0] == 1
        assert y * LOG2_E_LO <= e.hi[1] < y * LOG2_E_LO + 1
    # just above the threshold the point evaluation still runs
    e = fn.exp(ctx.interval(-(2**32) + 1), ctx)
    assert e.lo[0] > 0 and e.hi[1] < -(2**32)


def test_exp_deep_underflow_bound_at_minus_2_pow_33():
    # exact Fraction arithmetic: 2**K bounds e**y from above, and is within a
    # factor 2 of the true value, not e**y * 2**(0.44 |y|) as with 2**ceil(y)
    y = Fraction(-(2**33))
    k = fn.exp(ctx.interval(y), ctx).hi
    assert k == (1, math.ceil(y * LOG2_E_LO))
    assert y * LOG2_E_HI < k[1] < y * LOG2_E_HI + 2
    assert k[1] < math.ceil(y) - (2**33) * 44 // 100


def test_sqrt_of_four():
    s = ctx.sqrt(ctx.interval(4))
    assert s.contains(2)
    assert _ulp_width_at_most(s, 2, ctx.prec)


def test_log_exp_round_trip():
    r = fn.log(fn.exp(ctx.interval(1), ctx), ctx)
    assert r.contains(1)


def test_log_domain_error():
    with pytest.raises(DomainError):
        fn.log(ctx.interval(0, 1), ctx)


def test_pi_53_bits():
    small = PrecisionContext(53)
    p = fn.pi(small)
    # the enclosure sits inside the bracket of the 15-digit truncation of pi
    bracket = small.interval(Fraction(314159265358979, 10**14), Fraction(31415926535898, 10**13))
    assert bracket.contains_interval(p)
    assert p.width_fraction() <= Fraction(1, 2**50)


def test_pi_nesting_under_refinement():
    coarse = fn.pi(PrecisionContext(53))
    fine = fn.pi(PrecisionContext(128))
    assert coarse.contains_interval(fine)
    assert _ulp_width_at_most(fine, 4, 128)


def test_sin_of_pi_contains_zero():
    assert fn.sin(fn.pi(ctx), ctx).contains(0)


def test_point_enclosures_contain_reference_values():
    rng = random.Random(2024)
    for _ in range(60):
        x = Fraction(rng.randint(-600, 600), rng.randint(1, 64))
        xi = ctx.interval(x)
        mx = mpmath.mpf(x.numerator) / x.denominator
        assert _mp_in(fn.exp(xi, ctx), mpmath.exp(mx))
        assert _mp_in(fn.sin(xi, ctx), mpmath.sin(mx))
        assert _mp_in(fn.cos(xi, ctx), mpmath.cos(mx))
        assert _mp_in(fn.atan(xi, ctx), mpmath.atan(mx))
        if x > 0:
            assert _mp_in(fn.log(xi, ctx), mpmath.log(mx))
            assert _mp_in(ctx.sqrt(xi), mpmath.sqrt(mx))


def test_interval_image_monotone_functions():
    x = ctx.interval(Fraction(1, 2), 3)
    e = fn.exp(x, ctx)
    assert _mp_in(e, mpmath.exp(0.5)) and _mp_in(e, mpmath.exp(3)) and _mp_in(e, mpmath.exp(2))
    lg = fn.log(x, ctx)
    assert _mp_in(lg, mpmath.log(0.5)) and _mp_in(lg, mpmath.log(3))


def test_trig_interval_hull_with_extrema():
    # [2, 8] spans the minimum at pi and the maximum at 2 pi
    c = fn.cos(ctx.interval(2, 8), ctx)
    assert c.contains(-1) and c.contains(1)
    s = fn.sin(ctx.interval(1, 2), ctx)  # spans the maximum at pi/2
    assert s.contains(1)
    assert not s.contains(Fraction(1, 2))


def test_wide_trig_falls_back_to_unit_interval():
    s = fn.sin(ctx.interval(0, 100), ctx)
    assert s.contains(1) and s.contains(-1)
    assert s.lo_fraction >= -1 and s.hi_fraction <= 1


def test_euler_gamma_bracket():
    g = fn.euler_gamma(ctx)
    assert _mp_in(g, mpmath.euler)
    # at 128 bits the binary rounding dominates (a few ulp)
    assert g.width_fraction() <= Fraction(6, 2**128)
    # at very high precision the stored 50-digit bracket is the floor
    wide = fn.euler_gamma(PrecisionContext(512))
    assert _mp_in(wide, mpmath.euler)
    assert wide.width_fraction() <= Fraction(2, 10**50)


def test_ln2_matches_reference():
    assert _mp_in(fn.ln2(ctx), mpmath.log(2))


def test_cexp_on_imaginary_axis():
    z = ComplexBox(ctx.interval(0), ctx.interval(1))
    e = fn.cexp(z, ctx)
    assert _mp_in(e.re, mpmath.cos(1))
    assert _mp_in(e.im, mpmath.sin(1))


def test_neg_power_integer_exponent_is_exact_path():
    box = fn.neg_power(7, ctx.box(3, 0), ctx)
    assert box.re.contains(Fraction(1, 343))
    assert box.im.contains(0)
    assert box.re.width_fraction() <= Fraction(1, 2**120)


def test_neg_power_complex():
    s = ComplexBox(ctx.interval(Fraction(3, 2)), ctx.interval(2))
    got = fn.neg_power(5, s, ctx)
    want = mpmath.power(5, mpmath.mpc(-1.5, -2))
    assert _mp_in(got.re, want.real)
    assert _mp_in(got.im, want.imag)


def test_neg_power_table_matches_direct():
    s = ComplexBox(ctx.interval(Fraction(3, 2)), ctx.interval(1))
    table = fn.neg_power_table(40, s, ctx)
    for n in (2, 6, 35, 36, 40):
        direct = fn.neg_power(n, s, ctx)
        assert table[n].intersects(direct)
        want = mpmath.power(n, mpmath.mpc(-1.5, -1))
        assert _mp_in(table[n].re, want.real)
        assert _mp_in(table[n].im, want.imag)


def _box_ends(b: ComplexBox):
    return ((b.re.lo, b.re.hi), (b.im.lo, b.im.hi))


@pytest.mark.parametrize("limit", [2, 3, 210])
def test_neg_power_table_builds_composites_from_their_smallest_prime_factor(limit, monkeypatch):
    # a complex box s, so that each product rounds and another split of n
    # would give other endpoints
    s = ComplexBox(
        ctx.interval(Fraction(3, 2), Fraction(3, 2) + Fraction(1, 10**9)),
        ctx.interval(1, Fraction(1001, 1000)),
    )
    products = []
    cmul = PrecisionContext.cmul
    monkeypatch.setattr(PrecisionContext, "cmul", lambda c, a, b: products.append(1) or cmul(c, a, b))
    t = fn.neg_power_table(limit, s, ctx)
    monkeypatch.undo()
    assert len(t) == limit + 1
    assert t[1] == ctx.box(1)
    spf = {n: next(d for d in range(2, n + 1) if n % d == 0) for n in range(2, limit + 1)}
    for n, p in spf.items():
        want = fn.neg_power(n, s, ctx) if p == n else ctx.cmul(t[p], t[n // p])
        assert _box_ends(t[n]) == _box_ends(want), n
    # one product per composite, and none at a prime
    assert len(products) == sum(p != n for n, p in spf.items())


def test_atan_large_argument_uses_reflection():
    a = fn.atan(ctx.interval(1000), ctx)
    assert _mp_in(a, mpmath.atan(1000))
