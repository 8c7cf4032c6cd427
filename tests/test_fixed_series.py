"""The fixed-point series kernel behind every series in zetaval.

sin/cos, log, atan, E1, erfc and the pi and ln2 references all sum on
``_fixed_series``.  Each must contain mpmath's value at 2 prec + 32 bits, and
its raw box may be no wider than the box the interval series gave before the
kernel plus 2**8 ulp of the raw precision.  Those interval series, with the
term generators and the summation loop they ran on, are kept here as
test-local oracles.
"""

import itertools
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaval import dirichlet
from zetaval import functions as fn
from zetaval import rounding as rd
from zetaval.interval import PrecisionContext, RealInterval

PRECS = [64, 128, 512, 1024]
_props = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _mp(x: rd.MPF) -> mpmath.mpf:
    return mpmath.ldexp(mpmath.mpf(x[0]), x[1])


def _exact(v: mpmath.mpf) -> Fraction:
    sign, man, e, _ = v._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** e


def _reference(f, v: rd.MPF, prec: int) -> Fraction:
    """f(v) from mpmath at 2 prec + 32 bits past v's own mantissa and top."""
    with mpmath.workprec(2 * prec + 32 + max(0, rd._top(v)) + abs(v[0]).bit_length()):
        return _exact(f(_mp(v)))


def _check(new: RealInterval, old: RealInterval, f, v: rd.MPF, prec: int, raw_prec: int) -> None:
    assert new.lo_fraction <= _reference(f, v, prec) <= new.hi_fraction
    top = max(rd._top(new.lo), rd._top(new.hi), rd._top(old.lo), rd._top(old.hi))
    assert new.width_fraction() <= old.width_fraction() + Fraction(2) ** (top - raw_prec + 8)


# --- the interval-series evaluators the kernel replaced ----------------------


def _power_terms(ctx, t, w, dens):
    """t*w/d1, t*w**2/(d1*d2), ...: each term is the last times w over the next d."""
    for d in dens:
        t = ctx.div(ctx.mul(t, w), ctx.interval(d))
        yield t


def _odd_power_terms(ctx, p, w):
    """p*w**j/(2j+1) for j = 0, 1, ...: the atan/atanh series shape."""
    for j in itertools.count():
        yield ctx.div(p, ctx.interval(2 * j + 1))
        p = ctx.mul(p, w)


def _old_sum(ctx, total, terms, *, stop_after=False, min_terms=0, geometric=None):
    """The interval summation the point series used: stop at a term below
    2**-(prec+8) past min_terms terms, widen by the first omitted term."""
    cut = -(ctx.prec + 8)
    n = 0
    for t in terms:
        if stop_after:
            total = ctx.add(total, t)
            n += 1
        mag = fn._magnitude(t)
        if n > min_terms and fn._term_small(mag, cut):
            break
        if not stop_after:
            total = ctx.add(total, t)
            n += 1
    if stop_after:
        mag = fn._magnitude(next(terms))
    if geometric is not None:
        mag = rd.mul(mag, rd.from_fraction(geometric, 64, rd.CEIL), 64, rd.CEIL)
    return ctx.widen(total, mag)


def _old_sin_cos_point(v, ctx):
    k, r = fn._reduce(v, ctx)
    w = ctx.neg(ctx.sq(r))
    odd = ((i + 1) * (i + 2) for i in itertools.count(1, 2))
    even = ((i + 1) * (i + 2) for i in itertools.count(0, 2))
    s = _old_sum(ctx, r, _power_terms(ctx, r, w, odd))
    c = _old_sum(ctx, ctx.one(), _power_terms(ctx, ctx.one(), w, even))
    for _ in range(k % 4):
        s, c = c, ctx.neg(s)
    return s, c


def _old_log_point(v, ctx):
    m, e = v
    b = m.bit_length()
    n = e + b
    u = RealInterval((m, -b), (m, -b))
    if rd.cmp(u.lo, (181, -8)) < 0:
        u = ctx.scale_2exp(u, 1)
        n -= 1
    z = ctx.div(ctx.sub(u, ctx.one()), ctx.add(u, ctx.one()))
    total = _old_sum(ctx, ctx.zero(), _odd_power_terms(ctx, z, ctx.sq(z)),
                     geometric=Fraction(33, 32))
    total = ctx.scale_2exp(total, 1)
    if n:
        total = ctx.add(total, ctx.mul(ctx.interval(n), fn.ln2(ctx)))
    return total


def _old_e1_series_point(v, out_prec):
    xf = rd.to_float(v, rd.CEIL)
    ctx = PrecisionContext(out_prec + int(1.45 * xf) + 48)
    x = RealInterval(v, v)
    powers = _power_terms(ctx, ctx.neg(ctx.one()), ctx.neg(x), itertools.count(1))
    terms = (ctx.div(p, ctx.interval(k)) for k, p in enumerate(powers, 1))
    total = _old_sum(ctx, ctx.zero(), terms, stop_after=True, min_terms=xf)
    return ctx.sub(ctx.sub(total, fn.euler_gamma(ctx)), fn.log(x, ctx)), ctx.prec


def _old_erfc_series_point(v, out_prec):
    xf = rd.to_float(v, rd.CEIL)
    ctx = PrecisionContext(out_prec + int(1.45 * xf * xf) + 48)
    x = RealInterval(v, v)
    powers = itertools.chain([x], _power_terms(ctx, x, ctx.neg(ctx.sq(x)), itertools.count(1)))
    terms = (ctx.div(p, ctx.interval(2 * k + 1)) for k, p in enumerate(powers))
    total = _old_sum(ctx, ctx.zero(), terms, min_terms=xf * xf)
    return ctx.sub(ctx.one(), ctx.mul(dirichlet._two_over_sqrt_pi(ctx), total)), ctx.prec


def _old_atan_inv_int(q, ctx):
    p = ctx.div(ctx.one(), ctx.interval(q))
    w = ctx.neg(ctx.div(ctx.one(), ctx.interval(q * q)))
    return _old_sum(ctx, ctx.zero(), _odd_power_terms(ctx, p, w))


def _old_pi_ref(ctx):
    a, b = _old_atan_inv_int(5, ctx), _old_atan_inv_int(239, ctx)
    return ctx.sub(ctx.scale_2exp(a, 4), ctx.scale_2exp(b, 2))


def _old_ln2_ref(ctx):
    # the old path widened only the upper end by the geometric tail; widening
    # both, as here, moves the lower end by less than one ulp
    terms = _odd_power_terms(ctx, ctx.interval(Fraction(1, 3)), ctx.interval(Fraction(1, 9)))
    return ctx.scale_2exp(_old_sum(ctx, ctx.zero(), terms, geometric=Fraction(9, 8)), 1)


def _old_atan_point(v, ctx):
    if v[0] < 0:
        return ctx.neg(_old_atan_point(rd.neg(v), ctx))
    x = RealInterval(v, v)
    add_half_pi = rd.cmp(v, rd.ONE) > 0
    if add_half_pi:
        x = ctx.div(ctx.one(), x)
    doublings = 0
    while rd.cmp(x.hi, (1, -2)) > 0:
        x = ctx.div(x, ctx.add(ctx.one(), ctx.sqrt(ctx.add(ctx.one(), ctx.sq(x)))))
        doublings += 1
    total = _old_sum(ctx, ctx.zero(), _odd_power_terms(ctx, x, ctx.neg(ctx.sq(x))))
    total = ctx.scale_2exp(total, doublings)
    if add_half_pi:
        total = ctx.sub(ctx.scale_2exp(fn.pi(ctx), -1), total)
    return total


# --- containment and width -----------------------------------------------------


def _point(man: int, top: int, negative: bool = False) -> rd.MPF:
    return rd.normalize(-man if negative else man, top - man.bit_length())


@pytest.mark.parametrize("prec", PRECS)
@_props
@given(man=st.integers(1, 2**128 - 1), top=st.integers(-100, 60), negative=st.booleans())
def test_sin_cos_point(prec, man, top, negative):
    # |v| < 2**60, with mantissas up to 128 bits
    v = _point(man, top, negative)
    inner = PrecisionContext(prec + fn._GUARD)
    for new, old, f in zip(fn._sin_cos_point(v, inner), _old_sin_cos_point(v, inner),
                           (mpmath.sin, mpmath.cos)):
        _check(new, old, f, v, prec, inner.prec)


@pytest.mark.parametrize("prec", PRECS)
@_props
@given(man=st.integers(1, 2**128 - 1), top=st.integers(-300, 300),
       near_one=st.integers(-2, 2), depth=st.integers(1, 200))
def test_log_point(prec, man, top, near_one, depth):
    # near_one puts v at 1 + near_one 2**-depth, where log v is tiny
    v = _point(man, top) if near_one == 0 else rd.normalize((1 << depth) + near_one, -depth)
    inner = PrecisionContext(prec + fn._GUARD)
    _check(fn._log_point(v, inner), _old_log_point(v, inner), mpmath.log, v, prec, inner.prec)


_E1_ARGS = st.one_of(st.floats(1e-12, 34), st.floats(33, 34), st.floats(1e-300, 1e-12))
_ERFC_ARGS = st.one_of(st.floats(0, 6), st.floats(5.9, 6), st.floats(1e-300, 1e-8))


@pytest.mark.parametrize("prec", PRECS)
@_props
@given(x=_E1_ARGS)
def test_e1_series_point(prec, x):
    v = rd.from_fraction(Fraction(x), 64, rd.FLOOR)
    old, raw_prec = _old_e1_series_point(v, prec + 16)
    _check(dirichlet._e1_series_point(v, prec + 16), old, mpmath.e1, v, prec, raw_prec)


@pytest.mark.parametrize("prec", PRECS)
@_props
@given(x=_ERFC_ARGS)
def test_erfc_series_point(prec, x):
    v = rd.from_fraction(Fraction(x), 64, rd.FLOOR)
    old, raw_prec = _old_erfc_series_point(v, prec + 16)
    _check(dirichlet._erfc_series_point(v, prec + 16), old, mpmath.erfc, v, prec, raw_prec)


@pytest.mark.parametrize("f,mp_f,x", [
    (dirichlet.exp_integral, mpmath.e1, 34), (dirichlet.erfc_enclosure, mpmath.erfc, 6),
])
@pytest.mark.parametrize("prec", PRECS)
def test_both_sides_of_the_series_cut_overs_contain_the_value(f, mp_f, x, prec):
    ctx = PrecisionContext(prec)
    for v in (rd.from_fraction(Fraction(x) - Fraction(1, 2**20), prec, rd.FLOOR), rd.from_int(x),
              rd.from_fraction(Fraction(x) + Fraction(1, 2**20), prec, rd.FLOOR)):
        box = f(RealInterval(v, v), ctx)
        assert box.lo_fraction <= _reference(mp_f, v, prec) <= box.hi_fraction


_ATAN_ARGS = st.one_of(st.floats(1e-30, 0.25), st.floats(0.25, 1), st.floats(1, 1e6))


@pytest.mark.parametrize("prec", PRECS)
@_props
@given(x=_ATAN_ARGS, negative=st.booleans())
def test_atan_point(prec, x, negative):
    v = rd.from_fraction(Fraction(-x if negative else x), 64, rd.FLOOR)
    inner = PrecisionContext(prec + fn._GUARD)
    _check(fn._atan_point(v, inner), _old_atan_point(v, inner), mpmath.atan, v, prec, inner.prec)


@pytest.mark.parametrize("prec", PRECS)
@_props
@given(q=st.integers(2, 10**4))
def test_atan_inv_int(prec, q):
    ctx = PrecisionContext(prec)
    _check(fn._atan_inv_int(q, ctx), _old_atan_inv_int(q, ctx), lambda x: mpmath.atan(1 / x),
           rd.from_int(q), prec, prec)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(level=st.integers(64, 4096))
def test_constant_references(level):
    # with _ref_level the identity, pi and ln2 fill their references at exactly
    # level + 16 bits
    ctx = PrecisionContext(level + 16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fn, "_ref_cache", {})
        mp.setattr(fn, "_ref_level", lambda p: p)
        for name, old, value in (("pi", _old_pi_ref, mpmath.pi), ("ln2", _old_ln2_ref, mpmath.ln2)):
            getattr(fn, name)(PrecisionContext(level))
            _check(fn._ref_cache[name, level], old(ctx), lambda _: +value, rd.ONE, ctx.prec, ctx.prec)
