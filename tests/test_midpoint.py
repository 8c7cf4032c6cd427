"""Midpoint-radius evaluation of exp, sin and cos, and the exact reduction of sin/cos.

A box of radius below 2**-(prec/2), a point included, takes one point
evaluation at its midpoint, widened by a derivative bound.  These tests hold
it to the values at its ends and middle, and to the width that evaluating both
ends would give.  sin and cos reduce their argument mod pi/2 with an exact
integer quotient, so points far from 0 stay a few ulp wide and wider boxes
hull in +-1 only where a multiple of pi/2 can lie inside.
"""

import time
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
    inner = PrecisionContext(prec + fn._GUARD + k_guess + 8)
    hull = _hull(fn._exp_point(x.lo, inner), fn._exp_point(x.hi, inner), ctx)
    _check(got, hull, _refs(mpmath.exp, x, prec), ctx)


@pytest.mark.parametrize("prec", [128, 512])
@_props
@given(centre=st.floats(-1e15, 1e15), depth=st.floats(0, 1), steps=st.integers(0, 255))
def test_sin_and_cos_of_a_narrow_box(prec, centre, depth, steps):
    ctx = PrecisionContext(prec)
    x = _narrow_box(ctx, centre, depth, steps)
    got_sin, got_cos = fn.sin_cos(x, ctx)
    inner = PrecisionContext(prec + fn._GUARD)
    (sa, ca), (sb, cb) = fn._sin_cos_point(x.lo, inner), fn._sin_cos_point(x.hi, inner)
    _check(got_sin, _hull(sa, sb, ctx), _refs(mpmath.sin, x, prec), ctx)
    _check(got_cos, _hull(ca, cb, ctx), _refs(mpmath.cos, x, prec), ctx)


# --- large |Im s| ------------------------------------------------------------
# n**-s at large |Im s| is as narrow as the box of -Im(s) log n allows: the
# argument is reduced mod pi/2 with an exact integer quotient, so no spurious
# +-1 reaches a narrow box (t = 1e20 stays out of the bound below: there the
# box of -t log 3 alone is about 1e-19 wide).

ctx128 = PrecisionContext(128)


@pytest.mark.parametrize("t", [10**9, 10**12, 10**15, 10**18])
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


# --- exact reduction mod pi/2 ------------------------------------------------


def _mp_trig(f, v: rd.MPF, prec: int) -> Fraction:
    """f(v) from mpmath at 2 prec + 32 + log2|v| bits, as an exact rational."""
    with mpmath.workprec(2 * prec + 32 + max(0, _top(v))):
        return _exact(f(_mp(v)))


def _contains_sin_cos(got, v: rd.MPF, prec: int) -> None:
    for f, box in zip((mpmath.sin, mpmath.cos), got):
        assert box.lo_fraction <= _mp_trig(f, v, prec) <= box.hi_fraction


@pytest.mark.parametrize("prec", [128, 512])
@pytest.mark.parametrize("x", [10**9, 10**15, 10**18, 10**20])
def test_sin_cos_of_a_large_point_is_narrow(prec, x):
    ctx = PrecisionContext(prec)
    v = ctx.interval(x)
    assert v.is_point()
    start = time.perf_counter()
    got = fn.sin_cos(v, ctx)
    assert time.perf_counter() - start < 0.1
    assert all(box.width_fraction() < Fraction(1, 10**30) for box in got)
    _contains_sin_cos(got, v.lo, prec)


def test_sin_cos_beyond_the_point_cap_is_the_unit_interval_at_once():
    start = time.perf_counter()
    got = fn.sin_cos(ctx128.interval(2**5000), ctx128)
    assert time.perf_counter() - start < 0.1
    assert all((box.lo, box.hi) == ((-1, 0), (1, 0)) for box in got)


def test_cos_of_a_unit_box_at_1e9_is_the_hull_of_its_ends():
    x = ctx128.interval(10**9, 10**9 + 1)
    got = fn.cos(x, ctx128)
    # cos falls from 0.84 to -0.007 over the box: no extremum inside
    assert -1 < got.lo_fraction and got.hi_fraction < 1
    for v in (x.lo, x.hi):
        assert got.lo_fraction <= _mp_trig(mpmath.cos, v, 128) <= got.hi_fraction


@pytest.mark.parametrize("prec", [128, 512])
@_props
@given(man=st.integers(1, 2**128 - 1), top=st.integers(-60, 199), negative=st.booleans())
def test_sin_cos_of_a_point(prec, man, top, negative):
    # |x| < 2**200 with a mantissa of at most 128 bits, so x is a point at both precisions
    ctx = PrecisionContext(prec)
    v = rd.normalize(-man if negative else man, top - man.bit_length())
    got = fn.sin_cos(RealInterval(v, v), ctx)
    _contains_sin_cos(got, v, prec)
    assert all(box.width_fraction() <= 8 * Fraction(2) ** -prec for box in got)


@pytest.mark.parametrize("prec", [128, 512])
@_props
@given(centre=st.floats(-1e15, 1e15), depth=st.floats(0, 1), steps=st.integers(0, 255))
def test_sin_and_cos_of_a_wide_box(prec, centre, depth, steps):
    # widths from 3.5 * 2**-(prec/2), past the midpoint path, to just under 7
    ctx = PrecisionContext(prec)
    c = rd.to_fraction(ctx.interval(Fraction(centre)).lo)
    w = Fraction(7 * (256 + steps), 512) * Fraction(2) ** -round(depth * (prec // 2))
    x = ctx.interval(c - w / 2, c + w / 2)
    assert not fn._narrow(fn._mid_rad(x, 2 * prec)[1], ctx)
    got_sin, got_cos = fn.sin_cos(x, ctx)
    inner = PrecisionContext(prec + fn._GUARD)
    (sa, ca), (sb, cb) = fn._sin_cos_point(x.lo, inner), fn._sin_cos_point(x.hi, inner)
    with mpmath.workprec(2 * prec + 32 + 64):
        quarter = mpmath.pi / 2
        inside = mpmath.floor(_mp(x.lo) / quarter) != mpmath.floor(_mp(x.hi) / quarter)
    for got, f, a, b in ((got_sin, mpmath.sin, sa, sb), (got_cos, mpmath.cos, ca, cb)):
        refs = _refs(f, x, prec)
        if inside:
            assert all(got.lo_fraction <= _exact(v) <= got.hi_fraction for v in refs)
        else:
            _check(got, _hull(a, b, ctx), refs, ctx)
