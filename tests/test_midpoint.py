"""Midpoint-radius evaluation of exp, sin and cos over narrow boxes.

A box of radius below 2**-(prec/2) takes one point evaluation at its midpoint,
widened by a derivative bound.  These tests hold it to the values at its ends
and middle, and to the width that evaluating both ends would give.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaval import functions as fn
from zetaval import rounding as rd
from zetaval.characters import make_elementary
from zetaval.dirichlet import l_truncated
from zetaval.interval import ComplexBox, PrecisionContext, RealInterval

_props = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _top(x: rd.MPF) -> int:
    return x[1] + abs(x[0]).bit_length()


def _mp(x: rd.MPF) -> mpmath.mpf:
    return mpmath.ldexp(mpmath.mpf(x[0]), x[1])


def _exact(v: mpmath.mpf) -> Fraction:
    sign, man, e, _ = v._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** e


def _narrow_box(ctx: PrecisionContext, centre: float, depth: float, steps: int) -> RealInterval:
    """[c - r, c + r] rounded outward, c the centre on the prec-bit grid and
    r from one ulp of c (2**-2prec at 0) up to just below 2**-(prec/2)."""
    c = ctx.interval(Fraction(centre)).lo
    low = (_top(c) if c[0] else -ctx.prec) - ctx.prec
    high = -(ctx.prec // 2) - 1
    e = low + round(depth * (high - low))
    r = Fraction(256 + steps, 256) * Fraction(2) ** e  # in [2**e, 2**(e+1))
    mid = rd.to_fraction(c)
    box = ctx.interval(mid - r, mid + r)
    assert fn._narrow(fn._mid_rad(box, 2 * ctx.prec)[1], ctx)
    return box


def _hull(a: RealInterval, b: RealInterval, ctx: PrecisionContext) -> RealInterval:
    return fn._final(ctx, ctx.hull(a, b))


def _check(got: RealInterval, hull: RealInterval, refs, ctx: PrecisionContext) -> None:
    for v in refs:
        assert got.lo_fraction <= _exact(v) <= got.hi_fraction
    ulp = Fraction(2) ** (max(_top(got.lo), _top(got.hi)) - ctx.prec)
    assert got.width_fraction() <= hull.width_fraction() + 2 * ulp


def _refs(f, x: RealInterval, prec: int) -> list:
    with mpmath.workprec(2 * prec + 32):
        lo, hi = _mp(x.lo), _mp(x.hi)
        return [f(lo), f((lo + hi) / 2), f(hi)]


@pytest.mark.parametrize("prec", [128, 512])
@_props
@given(centre=st.floats(-700, 700), depth=st.floats(0, 1), steps=st.integers(0, 255))
def test_exp_of_a_narrow_box(prec, centre, depth, steps):
    ctx = PrecisionContext(prec)
    x = _narrow_box(ctx, centre, depth, steps)
    got = fn.exp(x, ctx)
    # the endpoint path, at exp's own guard precision
    k_guess = max(0, _top(x.lo), _top(x.hi))
    inner = ctx.with_precision(prec + fn._GUARD + k_guess + 8)
    hull = _hull(fn._exp_point(x.lo, inner), fn._exp_point(x.hi, inner), ctx)
    _check(got, hull, _refs(mpmath.exp, x, prec), ctx)


@pytest.mark.parametrize("prec", [128, 512])
@_props
@given(centre=st.floats(-1e15, 1e15), depth=st.floats(0, 1), steps=st.integers(0, 255))
def test_sin_and_cos_of_a_narrow_box(prec, centre, depth, steps):
    ctx = PrecisionContext(prec)
    x = _narrow_box(ctx, centre, depth, steps)
    got_sin, got_cos = fn.sin_cos(x, ctx)
    inner = ctx.with_precision(prec + fn._GUARD)
    (sa, ca), (sb, cb) = fn._sin_cos_point(x.lo, inner), fn._sin_cos_point(x.hi, inner)
    _check(got_sin, _hull(sa, sb, ctx), _refs(mpmath.sin, x, prec), ctx)
    _check(got_cos, _hull(ca, cb, ctx), _refs(mpmath.cos, x, prec), ctx)


# --- large |Im s| ------------------------------------------------------------
# The endpoint path's float crossing test hulls in +-1 once |x| passes about
# 1e9, which made n**-s the trivial disc there while its argument was an
# endpoint-evaluated box.

ctx128 = PrecisionContext(128)


@pytest.mark.parametrize("t", [10**9, 10**12, 10**15])
def test_neg_power_at_large_imaginary_part(t):
    s = ComplexBox(ctx128.interval(2), ctx128.interval(t))
    got = fn.neg_power(3, s, ctx128)
    assert got.max_width_float() < 1e-20
    with mpmath.workprec(2 * 128 + 32 + 64):
        v = mpmath.power(3, -mpmath.mpc(2, t))
    assert got.re.lo_fraction <= _exact(v.real) <= got.re.hi_fraction
    assert got.im.lo_fraction <= _exact(v.imag) <= got.im.hi_fraction


@pytest.mark.parametrize("t", [10**9, 10**12])
def test_l_truncated_at_large_imaginary_part(t):
    s = ComplexBox(ctx128.interval(3), ctx128.interval(t))
    enc = l_truncated(make_elementary(7, 1), s, 200, ctx128)
    assert enc.value.re.width_float() < 1e-4
