"""The Euler-Maclaurin remainder bound at 64 bits and the Horner correction.

``zeta._em_bound(zeta._em_factor(s, k), s, N, k)`` bounds

    |B_{2k+2}|/(2k+2)! * prod_{i<=2k} |s+i| * |s+2k+1|/(sigma+2k+1) * N**(-sigma-2k-1)

from above over the whole box s.  It must lie above that expression,
evaluated by mpmath at 3*prec bits at the box's corners and centre, and below
the working-precision bound it replaced (``_old_remainder``, kept here as the
oracle) by at most 2**-56 relative.  ``zeta._em_correction`` sums the Bernoulli
correction by Horner's rule; its box must meet the one of the term-by-term
loop it replaced (``_old_correction``) and be no wider than it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaval import functions as fn
from zetaval import rounding as rd
from zetaval import zeta
from zetaval.exact import bernoulli
from zetaval.interval import ComplexBox, PrecisionContext, RealInterval

_props = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_SLACK = Fraction(1, 2**56)


def _shifted(s: ComplexBox, i: int, ctx: PrecisionContext) -> ComplexBox:
    return ComplexBox(ctx.add(s.re, ctx.interval(i)), s.im)


def _scale_real(z: ComplexBox, c: RealInterval, ctx: PrecisionContext) -> ComplexBox:
    return ComplexBox(ctx.mul(z.re, c), ctx.mul(z.im, c))


def _old_remainder(s: ComplexBox, N: int, k: int, ctx: PrecisionContext) -> rd.MPF:
    """The bound at the working precision, one |s+i| and a log/exp per call."""
    p = ctx.prec
    coef_up = rd.from_fraction(abs(bernoulli(2 * k + 2)) / math.factorial(2 * k + 2), p, rd.CEIL)
    prod_up = rd.ONE
    for i in range(2 * k + 1):
        prod_up = rd.mul(prod_up, ctx.cabs_upper(_shifted(s, i, ctx)), p, rd.CEIL)
    sigma_lo = RealInterval(s.re.lo, s.re.lo)
    expo = ctx.neg(ctx.mul(ctx.add(sigma_lo, ctx.interval(2 * k + 1)), fn.log(ctx.interval(N), ctx)))
    npow_up = fn.exp(expo, ctx).hi
    ratio_up = rd.div(
        ctx.cabs_upper(_shifted(s, 2 * k + 1, ctx)),
        rd.add(s.re.lo, rd.from_int(2 * k + 1), p, rd.FLOOR),
        p,
        rd.CEIL,
    )
    return rd.mul(rd.mul(rd.mul(coef_up, prod_up, p, rd.CEIL), npow_up, p, rd.CEIL), ratio_up, p, rd.CEIL)


def _old_correction(s: ComplexBox, N: int, k: int, n_pow: ComplexBox, ctx: PrecisionContext) -> ComplexBox:
    """B(N, k, s) term by term: three cmul per Bernoulli term."""
    big_b = _scale_real(n_pow, ctx.interval(Fraction(1, 2)), ctx)
    poly = s
    n_shift = _scale_real(n_pow, ctx.interval(Fraction(1, N)), ctx)
    inv_n2 = ctx.interval(Fraction(1, N * N))
    for j in range(1, k + 1):
        coef = ctx.interval(bernoulli(2 * j) / math.factorial(2 * j))
        big_b = ctx.cadd(big_b, _scale_real(ctx.cmul(poly, n_shift), coef, ctx))
        if j < k:
            poly = ctx.cmul(poly, ctx.cmul(_shifted(s, 2 * j - 1, ctx), _shifted(s, 2 * j, ctx)))
            n_shift = _scale_real(n_shift, inv_n2, ctx)
    return big_b


def _mp(x: rd.MPF) -> mpmath.mpf:
    return mpmath.ldexp(mpmath.mpf(x[0]), x[1])


def _mp_fraction(y: mpmath.mpf) -> Fraction:
    sign, man, e, _ = y._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** e


def _bound_at(sigma: mpmath.mpf, t: mpmath.mpf, N: int, k: int) -> mpmath.mpf:
    s = mpmath.mpc(sigma, t)
    prod = mpmath.fprod(abs(s + i) for i in range(2 * k + 1))
    coef = abs(mpmath.bernoulli(2 * k + 2)) / mpmath.factorial(2 * k + 2)
    ratio = abs(s + 2 * k + 1) / (sigma + 2 * k + 1)
    return coef * prod * ratio * mpmath.power(N, -(sigma + 2 * k + 1))


# sigma in [1.02, 4], |t| <= 60, input radius 0 or up to 1e-3
_SIGMA = st.integers(10_200, 40_000).map(lambda n: Fraction(n, 10_000))
_T = st.integers(-6_000, 6_000).map(lambda n: Fraction(n, 100))
_RADIUS = st.one_of(st.just(Fraction(0)), st.integers(1, 1_000).map(lambda n: Fraction(n, 10**6)))
_PREC = st.sampled_from((128, 256))


def _box(ctx: PrecisionContext, sigma: Fraction, t: Fraction, r: Fraction) -> ComplexBox:
    return ComplexBox(ctx.interval(sigma - r, sigma + r), ctx.interval(t - r, t + r))


@_props
@given(_SIGMA, _T, _RADIUS, st.integers(2, 64), st.integers(1, 30), _PREC)
def test_bound_lies_above_the_expression_at_corners_and_centre(sigma, t, r, N, k, prec):
    ctx = PrecisionContext(prec)
    s = _box(ctx, sigma, t, r)
    bound = rd.to_fraction(zeta._em_bound(zeta._em_factor(s, k), s, N, k))
    with mpmath.workprec(3 * prec):
        res = (_mp(s.re.lo), _mp(s.re.hi))
        ims = (_mp(s.im.lo), _mp(s.im.hi))
        points = [(a, b) for a in res for b in ims] + [((res[0] + res[1]) / 2, (ims[0] + ims[1]) / 2)]
        for a, b in points:
            assert _mp_fraction(_bound_at(a, b, N, k)) <= bound, (a, b)


@_props
@given(_SIGMA, _T, _RADIUS, st.integers(2, 64), st.integers(1, 30), _PREC)
def test_bound_is_within_2_pow_minus_56_of_the_working_precision_bound(sigma, t, r, N, k, prec):
    ctx = PrecisionContext(prec)
    s = _box(ctx, sigma, t, r)
    bound = rd.to_fraction(zeta._em_bound(zeta._em_factor(s, k), s, N, k))
    assert bound <= rd.to_fraction(_old_remainder(s, N, k, ctx)) * (1 + _SLACK)


def _magnitude(z: ComplexBox) -> Fraction:
    return max(abs(rd.to_fraction(x)) for x in (z.re.lo, z.re.hi, z.im.lo, z.im.hi))


@_props
@given(_SIGMA, _T, _RADIUS, st.integers(0, 40), st.integers(1, 30), _PREC)
def test_horner_correction_meets_the_loop_box_and_is_no_wider(sigma, t, r, extra, k, prec):
    # N from zeta_auto's first cut for (|t|, k) up, where the Bernoulli terms
    # fall; widths are compared relative to |B|, since at a point input both
    # boxes are a few ulps wide and their ratio means nothing
    N = max(2, math.ceil(2 * (abs(t) + 2 * k + 3) / (3 * Fraction(355, 113)))) + extra
    ctx = PrecisionContext(prec)
    s = _box(ctx, sigma, t, r)
    n_pow = fn.neg_power(N, s, ctx)
    new = zeta._em_correction(s, N, k, n_pow, ctx)
    old = _old_correction(s, N, k, n_pow, ctx)
    assert new.intersects(old)
    slack = _magnitude(old) * _SLACK
    assert new.re.width_fraction() <= old.re.width_fraction() + slack
    assert new.im.width_fraction() <= old.im.width_fraction() + slack
