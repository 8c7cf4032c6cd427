"""Interval and complex-box arithmetic: containment, monotonicity, soundness."""

import random
from decimal import Decimal
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaval import rounding as rd
from zetaval.errors import DivisionByZeroInterval, DomainError, UncertifiedDivisor
from zetaval.interval import (
    CertifiedSign,
    ComplexBox,
    PrecisionContext,
    RealInterval,
    certify_nonzero,
)
from zetaval.zeta import Enclosure

ctx = PrecisionContext(64)


def _iv(lo, hi=None):
    return ctx.interval(lo, hi)


def test_spec_mul_examples():
    assert ctx.mul(_iv(1, 2), _iv(3, 4)).lo_fraction == 3
    assert ctx.mul(_iv(1, 2), _iv(3, 4)).hi_fraction == 8
    m = ctx.mul(_iv(-1, 2), _iv(3, 4))
    assert (m.lo_fraction, m.hi_fraction) == (-4, 8)
    z = ctx.mul(_iv(0), _iv(-9, 9))
    assert (z.lo_fraction, z.hi_fraction) == (0, 0)


def test_values_a_caller_keeps_carry_no_instance_dict():
    # an Enclosure holds four intervals, two boxes and itself; without a
    # per-instance dict each kept zeta output is about 15% smaller
    x = _iv(1, 2)
    box = ComplexBox(x, x)
    for obj in (x, box, Enclosure(box, None, rd.ZERO, box, 128)):
        assert not hasattr(obj, "__dict__")


def test_division_by_zero_interval():
    with pytest.raises(DivisionByZeroInterval):
        ctx.div(_iv(1), _iv(-1, 1))


def test_sqrt_domain():
    with pytest.raises(DomainError):
        ctx.sqrt(_iv(-1, 4))


def test_endpoint_order_enforced():
    with pytest.raises(ValueError):
        ctx.interval(2, 1)


def test_precision_below_a_double_is_refused():
    PrecisionContext(53)
    with pytest.raises(ValueError):
        PrecisionContext(52)


def _rand_interval(rng, scale=8):
    a = Fraction(rng.randint(-scale * 100, scale * 100), rng.randint(1, 97))
    b = Fraction(rng.randint(-scale * 100, scale * 100), rng.randint(1, 97))
    if a > b:
        a, b = b, a
    return ctx.interval(a, b), a, b


def _rand_point(rng, a: Fraction, b: Fraction) -> Fraction:
    t = Fraction(rng.randint(0, 1000), 1000)
    return a + (b - a) * t


def test_containment_fuzz():
    rng = random.Random(42)
    for _ in range(250):
        x, xa, xb = _rand_interval(rng)
        y, ya, yb = _rand_interval(rng)
        px = _rand_point(rng, xa, xb)
        py = _rand_point(rng, ya, yb)
        assert ctx.add(x, y).contains(px + py)
        assert ctx.sub(x, y).contains(px - py)
        assert ctx.mul(x, y).contains(px * py)
        assert ctx.sq(x).contains(px * px)
        assert ctx.pow_int(x, 3).contains(px**3)
        if not y.contains_zero():
            assert ctx.div(x, y).contains(Fraction(px, py))
        assert ctx.abs(x).contains(abs(px))
        if xa >= 0:
            s = ctx.sqrt(x)
            assert s.lo_fraction**2 <= px <= s.hi_fraction**2


def test_inclusion_monotonicity():
    rng = random.Random(43)
    for _ in range(150):
        x, xa, xb = _rand_interval(rng)
        y, ya, yb = _rand_interval(rng)
        # widen to build strict superset intervals
        xw = ctx.interval(xa - 1, xb + 1)
        yw = ctx.interval(ya - Fraction(1, 2), yb + Fraction(1, 2))
        for op in (ctx.add, ctx.sub, ctx.mul):
            assert op(xw, yw).contains_interval(op(x, y))
        assert ctx.sq(xw).contains_interval(ctx.sq(x))


def test_precision_nesting_pure_expression():
    def build(c: PrecisionContext) -> RealInterval:
        a = c.div(c.one(), c.interval(3))
        b = c.div(c.one(), c.interval(7))
        t = c.mul(c.add(a, b), c.interval(Fraction(2, 11)))
        return c.sub(t, c.sqrt(c.interval(Fraction(5, 13))))

    coarse = build(PrecisionContext(53))
    mid = build(PrecisionContext(128))
    fine = build(PrecisionContext(256))
    assert coarse.contains_interval(mid)
    assert mid.contains_interval(fine)


def test_certify_nonzero_real_examples():
    assert certify_nonzero(_iv(1, 2)) is CertifiedSign.POSITIVE
    assert certify_nonzero(_iv(-1, 1)) is CertifiedSign.UNCERTIFIED
    assert certify_nonzero(_iv(-3, -1)) is CertifiedSign.NEGATIVE


def test_certify_nonzero_box_disjunction_order():
    box = ctx.box(_iv(-1, 1), _iv(2, 3))
    assert certify_nonzero(box) is CertifiedSign.IM_POSITIVE
    assert certify_nonzero(ctx.box(_iv(1, 2), _iv(-5, 5))) is CertifiedSign.RE_POSITIVE
    assert certify_nonzero(ctx.box(_iv(-2, -1), _iv(0, 5))) is CertifiedSign.RE_NEGATIVE
    assert certify_nonzero(ctx.box(_iv(-1, 1), _iv(-3, -2))) is CertifiedSign.IM_NEGATIVE
    assert certify_nonzero(ctx.box(_iv(-1, 1), _iv(-1, 1))) is CertifiedSign.UNCERTIFIED


def test_certify_nonzero_soundness_exhaustive_grid():
    grid = [Fraction(n, 2) for n in range(-4, 5)]
    for lo in grid:
        for hi in grid:
            if lo > hi:
                continue
            iv = ctx.interval(lo, hi)
            sign = certify_nonzero(iv)
            if lo <= 0 <= hi:
                assert sign is CertifiedSign.UNCERTIFIED
            else:
                assert sign.is_certified


def test_complex_box_spec_examples():
    one = ctx.box(1, 0)
    i = ctx.box(0, 1)
    prod = ctx.cmul(one, i)
    assert prod.contains_complex(0, 1)
    sq = ctx.cmul(i, i)
    assert sq.contains_complex(-1, 0)
    a = ctx.box(_iv(1, 2), _iv(3, 4))
    b = ctx.box(_iv(5, 6), _iv(7, 8))
    s = ctx.cadd(a, b)
    assert (s.re.lo_fraction, s.re.hi_fraction) == (6, 8)
    assert (s.im.lo_fraction, s.im.hi_fraction) == (10, 12)


def test_complex_division():
    q = ctx.cdiv(ctx.box(1, 0), ctx.box(0, 1))  # 1/i = -i
    assert q.contains_complex(0, -1)
    with pytest.raises(UncertifiedDivisor):
        ctx.cdiv(ctx.box(1, 0), ctx.box(_iv(-1, 1), _iv(-1, 1)))


def test_complex_containment_fuzz():
    rng = random.Random(44)
    for _ in range(100):
        xr, a1, b1 = _rand_interval(rng, 3)
        xi, a2, b2 = _rand_interval(rng, 3)
        yr, a3, b3 = _rand_interval(rng, 3)
        yi, a4, b4 = _rand_interval(rng, 3)
        x = ComplexBox(xr, xi)
        y = ComplexBox(yr, yi)
        px = complex(_rand_point(rng, a1, b1), _rand_point(rng, a2, b2))
        py = complex(_rand_point(rng, a3, b3), _rand_point(rng, a4, b4))
        prod = px * py
        got = ctx.cmul(x, y)
        # float evaluation of the exact product is within 1e-9 here
        assert got.re.to_floats()[0] - 1e-6 <= prod.real <= got.re.to_floats()[1] + 1e-6
        assert got.im.to_floats()[0] - 1e-6 <= prod.imag <= got.im.to_floats()[1] + 1e-6


def test_widen_requires_nonnegative_radius():
    with pytest.raises(ValueError):
        ctx.widen(_iv(0, 1), (-1, 0))


def test_decimal_rendering_encloses():
    rng = random.Random(45)
    for _ in range(50):
        x, _, _ = _rand_interval(rng)
        for digits in (6, 20):
            lo_s, hi_s = x.to_decimal(digits)
            lo = Fraction(Decimal(lo_s))
            hi = Fraction(Decimal(hi_s))
            assert lo <= x.lo_fraction and x.hi_fraction <= hi


def test_precision_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(32)


def test_pow_int_negative_exponent():
    inv = ctx.pow_int(_iv(2, 3), -2)
    assert inv.contains(Fraction(1, 4)) and inv.contains(Fraction(1, 9))
    assert inv.lo_fraction > 0


# -- sign-case dispatch against the four-candidate formula ----------------------

_by_value = cmp_to_key(rd.cmp)
_props = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def _four_candidates(op, a: RealInterval, b: RealInterval, prec: int) -> RealInterval:
    """Round every endpoint pair both ways and keep the min and max."""
    cands = [(a.lo, b.lo), (a.lo, b.hi), (a.hi, b.lo), (a.hi, b.hi)]
    return RealInterval(
        min((op(x, y, prec, rd.FLOOR) for x, y in cands), key=_by_value),
        max((op(x, y, prec, rd.CEIL) for x, y in cands), key=_by_value),
    )


def _both_squares(a: RealInterval, prec: int) -> RealInterval:
    hi = max(rd.mul(a.lo, a.lo, prec, rd.CEIL), rd.mul(a.hi, a.hi, prec, rd.CEIL), key=_by_value)
    if a.contains_zero():
        return RealInterval(rd.ZERO, hi)
    lo = min(rd.mul(a.lo, a.lo, prec, rd.FLOOR), rd.mul(a.hi, a.hi, prec, rd.FLOOR), key=_by_value)
    return RealInterval(lo, hi)


@st.composite
def _endpoint(draw, prec: int) -> rd.MPF:
    if draw(st.integers(0, 5)) == 0:
        return rd.ZERO
    bits = draw(st.sampled_from([1, 2, prec // 2, prec - 1, prec]))
    man = draw(st.integers(1, 2**bits - 1)) * draw(st.sampled_from([1, -1]))
    return rd.normalize(man, draw(st.integers(-prec - 40, 40)))


@st.composite
def _intervals(draw, prec: int) -> RealInterval:
    """Every sign pattern: zero endpoints, points, equal values, mixed exponents."""
    x = draw(_endpoint(prec))
    if draw(st.booleans()):
        return RealInterval(x, x)
    y = draw(_endpoint(prec))
    return RealInterval(x, y) if rd.cmp(x, y) <= 0 else RealInterval(y, x)


@pytest.mark.parametrize("prec", [64, 512])
def test_mul_dispatch_matches_four_candidates(prec):
    pctx = PrecisionContext(prec)

    @_props
    @given(_intervals(prec), _intervals(prec))
    def check(a, b):
        assert pctx.mul(a, b) == _four_candidates(rd.mul, a, b, prec)

    check()


@pytest.mark.parametrize("prec", [64, 512])
def test_div_dispatch_matches_four_candidates(prec):
    pctx = PrecisionContext(prec)

    @_props
    @given(_intervals(prec), _intervals(prec).filter(lambda b: not b.contains_zero()))
    def check(a, b):
        assert pctx.div(a, b) == _four_candidates(rd.div, a, b, prec)

    check()


@pytest.mark.parametrize("prec", [64, 512])
def test_sq_dispatch_matches_both_squares(prec):
    pctx = PrecisionContext(prec)

    @_props
    @given(_intervals(prec))
    def check(a):
        assert pctx.sq(a) == _both_squares(a, prec)

    check()


@pytest.mark.parametrize("prec", [64, 512])
def test_int_point_matches_fraction_path(prec):
    pctx = PrecisionContext(prec)

    @_props
    @given(st.integers(-(2 ** (2 * prec)), 2 ** (2 * prec)))
    @example(0)
    @example(-1)
    @example(2**prec - 1)
    @example(2**prec + 1)
    @example(-(2**prec) - 1)
    @example(3**prec)
    def check(n):
        want = RealInterval(
            rd.from_fraction(Fraction(n), prec, rd.FLOOR),
            rd.from_fraction(Fraction(n), prec, rd.CEIL),
        )
        assert pctx.interval(n) == want

    check()
