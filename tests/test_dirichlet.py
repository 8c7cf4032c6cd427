"""E1/erfc enclosures, the L(1) series, and truncated L-functions."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    class_number_oracle,
    decimal_bracket,
    midpoint_quadrature_e1,
    midpoint_quadrature_erfc,
)
from zetaval import functions as fn
from zetaval import rounding as rd
from zetaval.characters import char_value, make_elementary, make_kronecker
from zetaval.dirichlet import (
    _erfc_sandwich_point,
    _times_chi,
    erfc_enclosure,
    exp_integral,
    l_one_quadratic,
    l_truncated,
)
from zetaval.errors import DomainError
from zetaval.exact import kronecker
from zetaval.interval import ComplexBox, PrecisionContext, RealInterval

mpmath.mp.dps = 50

ctx = PrecisionContext(128)


def _within_bracket(iv, text: str) -> bool:
    lo, hi = decimal_bracket(text)
    return iv.lo_fraction >= lo and iv.hi_fraction <= hi


def test_e1_frozen_values():
    assert _within_bracket(exp_integral(ctx.interval(1), ctx), "0.2193839343")
    assert _within_bracket(exp_integral(ctx.interval(2), ctx), "0.0489005107")


def test_e1_strictly_decreasing():
    e1 = exp_integral(ctx.interval(1), ctx)
    e2 = exp_integral(ctx.interval(2), ctx)
    assert e1.lo_fraction > e2.hi_fraction


def test_e1_interval_argument_covers_interior():
    wide = exp_integral(ctx.interval(1, 2), ctx)
    mid = exp_integral(ctx.interval(Fraction(3, 2)), ctx)
    assert wide.contains_interval(mid)


def test_e1_quadrature_oracle_sweep():
    # also the provenance check for the baked-in Euler-Mascheroni constant:
    # the x <= 1 branch sits on top of it
    for x in (0.5, 1.0, 2.0, 4.0, 8.0):
        enc = exp_integral(ctx.interval(Fraction(x)), ctx)
        val, err = midpoint_quadrature_e1(x)
        lo, hi = enc.to_floats()
        assert lo - err <= val <= hi + err
        assert enc.width_float() < 1e-30


def test_e1_domain():
    with pytest.raises(DomainError):
        exp_integral(ctx.interval(0, 1), ctx)


def test_e1_across_method_crossover_is_consistent():
    below = exp_integral(ctx.interval(33), ctx)
    above = exp_integral(ctx.interval(35), ctx)
    spanning = exp_integral(ctx.interval(33, 35), ctx)
    assert spanning.contains_interval(below)
    assert spanning.contains_interval(above)
    assert below.lo_fraction > above.hi_fraction


def test_erfc_at_zero_is_one():
    e = erfc_enclosure(ctx.interval(0), ctx)
    assert e.contains(1)
    assert e.width_float() < 1e-35


def test_erfc_frozen_value():
    assert _within_bracket(erfc_enclosure(ctx.interval(1), ctx), "0.157299207")


def test_erfc_sandwich_at_three():
    # the sandwich gap at x=3 is ~4e-7 absolute (about 2% relative); the
    # production evaluator uses the series here and only sandwiches far out
    enc = _erfc_sandwich_point(ctx.interval(3).lo, PrecisionContext(160))
    truth = mpmath.erfc(3)
    assert enc.contains(mpmath.nstr(truth, 40))
    assert enc.width_float() <= 1e-5


def test_erfc_quadrature_oracle_sweep():
    for x in (0.5, 1.0, 2.0, 4.0, 8.0):
        enc = erfc_enclosure(ctx.interval(Fraction(x)), ctx)
        val, err = midpoint_quadrature_erfc(x)
        lo, hi = enc.to_floats()
        assert lo - err <= val <= hi + err
        assert math.erfc(x) <= hi and math.erfc(x) >= lo * (1 - 1e-15) - 1e-300


def test_erfc_domain():
    with pytest.raises(DomainError):
        erfc_enclosure(ctx.interval(-1, 1), ctx)


@pytest.mark.parametrize("D", [5, 2, 13])
def test_l_one_contains_class_number_oracle(D):
    enc = l_one_quadratic(D, 20, ctx)
    oracle = class_number_oracle(D, ctx)
    assert enc.value.re.intersects(oracle)
    assert enc.value.re.width_float() <= 1e-8
    assert enc.value.im.contains(0)


@pytest.mark.parametrize("D", [5, 2, 13])
def test_l_one_remainder_soundness(D):
    oracle = class_number_oracle(D, ctx)
    e20 = l_one_quadratic(D, 20, ctx)
    e30 = l_one_quadratic(D, 30, ctx)
    e40 = l_one_quadratic(D, 40, ctx)
    assert e20.value.re.intersects(e30.value.re)
    assert e20.value.re.intersects(oracle)
    assert e40.value.re.intersects(oracle)


@pytest.mark.parametrize("D,clamp", [(5, 15), (2, 19), (13, 24)])
def test_l_one_clamps_the_terms_and_reports_the_m_used(D, clamp):
    # ceil(sqrt((128 + 64) ln 2 Delta/pi)) for Delta = 5, 8, 13
    enc = l_one_quadratic(D, 10**9, ctx)
    assert enc.params.m == clamp
    same = l_one_quadratic(D, clamp, ctx)
    assert (enc.value, enc.remainder_radius) == (same.value, same.remainder_radius)
    assert l_one_quadratic(D, clamp - 1, ctx).params.m == clamp - 1


@pytest.mark.parametrize("D", [5, 2, 13])
def test_l_one_width_shrinks_with_terms(D):
    # widths drop with m until the R_m bound is negligible against the
    # fixed-precision enclosure floor, after which they stay put
    widths = [l_one_quadratic(D, m, ctx).value.re.width_fraction() for m in (5, 10, 20, 40)]
    assert all(w2 <= w1 * Fraction(101, 100) for w1, w2 in zip(widths, widths[1:]))
    assert widths[-1] < widths[0]


def test_erfc_normalization_decision():
    """The 2/pi-normalized variant misses the class-number value; 2/sqrt(pi)
    hits it.  This pins the normalization used by l_one_quadratic."""
    D, m = 5, 20
    delta = 5
    A = ctx.div(fn.pi(ctx), ctx.interval(delta))
    sqrt_a = ctx.sqrt(A)
    sum_e = ctx.zero()
    sum_erfc = ctx.zero()
    for n in range(1, m + 1):
        s = kronecker(delta, n)
        if s == 0:
            continue
        e_term = exp_integral(ctx.mul(A, ctx.interval(n * n)), ctx)
        f_term = ctx.div(erfc_enclosure(ctx.mul(ctx.interval(n), sqrt_a), ctx), ctx.interval(n))
        sum_e = ctx.add(sum_e, e_term) if s == 1 else ctx.sub(sum_e, e_term)
        sum_erfc = ctx.add(sum_erfc, f_term) if s == 1 else ctx.sub(sum_erfc, f_term)
    sqrt_delta = ctx.sqrt(ctx.interval(delta))
    standard = ctx.add(ctx.div(sum_e, sqrt_delta), sum_erfc)
    # the 2/pi variant equals the standard erfc sum divided by sqrt(pi)
    variant = ctx.add(
        ctx.div(sum_e, sqrt_delta), ctx.div(sum_erfc, ctx.sqrt(fn.pi(ctx)))
    )
    oracle = class_number_oracle(D, ctx)
    pad = ctx.widen(standard, (1, -20))  # generous room for R_m
    assert pad.intersects(oracle)
    assert not ctx.widen(variant, (1, -20)).intersects(oracle)


def test_e_sum_weight_decision():
    """Dropping the 1/sqrt(Delta) weight on the E1 sum misses the oracle."""
    D, m = 5, 20
    delta = 5
    A = ctx.div(fn.pi(ctx), ctx.interval(delta))
    sqrt_a = ctx.sqrt(A)
    sum_e = ctx.zero()
    sum_erfc = ctx.zero()
    for n in range(1, m + 1):
        s = kronecker(delta, n)
        if s == 0:
            continue
        e_term = exp_integral(ctx.mul(A, ctx.interval(n * n)), ctx)
        f_term = ctx.div(erfc_enclosure(ctx.mul(ctx.interval(n), sqrt_a), ctx), ctx.interval(n))
        sum_e = ctx.add(sum_e, e_term) if s == 1 else ctx.sub(sum_e, e_term)
        sum_erfc = ctx.add(sum_erfc, f_term) if s == 1 else ctx.sub(sum_erfc, f_term)
    unweighted = ctx.add(sum_e, sum_erfc)
    oracle = class_number_oracle(D, ctx)
    assert not ctx.widen(unweighted, (1, -20)).intersects(oracle)


def test_l_one_rejects_bad_inputs():
    with pytest.raises(DomainError):
        l_one_quadratic(12, 10, ctx)  # not squarefree
    with pytest.raises(DomainError):
        l_one_quadratic(1, 10, ctx)  # principal degenerate
    with pytest.raises(DomainError):
        l_one_quadratic(5, 0, ctx)


def test_l_truncated_tail_width_example():
    chi3 = make_elementary(3, 1)
    enc = l_truncated(chi3, ComplexBox(ctx.interval(3), ctx.zero()), 1000, ctx)
    # Abel tail phi(3)/2 N^-sigma (1 + |s|/sigma) = 2e-9 per side, against the
    # trivial N^(1-sigma)/(sigma-1) = 5e-7
    assert enc.value.re.width_float() <= 2 * 2e-9 * 1.01


def test_l_truncated_requires_sigma_above_one():
    chi = make_kronecker(5)
    with pytest.raises(DomainError):
        l_truncated(chi, ComplexBox(ctx.interval(1), ctx.zero()), 100, ctx)
    with pytest.raises(DomainError):
        l_truncated(chi, ComplexBox(ctx.interval(2), ctx.zero()), 1, ctx)


def test_l_truncated_complex_character_against_reference_sum():
    chi = make_elementary(5, 1)
    s = ComplexBox(ctx.interval(2), ctx.interval(1))
    enc = l_truncated(chi, s, 400, ctx)
    vals = {0: 1, 1: 1j, 2: -1, 3: -1j}
    ref = mpmath.mpc(0)
    for n in range(1, 20000):
        e = chi.exponent(n)
        if e is None:
            continue
        ref += mpmath.mpc(vals[e]) * mpmath.power(n, -mpmath.mpc(2, 1))
    lo_r, hi_r = enc.value.re.to_floats()
    lo_i, hi_i = enc.value.im.to_floats()
    slack = 1e-3  # reference truncation slack
    assert lo_r - slack <= float(ref.real) <= hi_r + slack
    assert lo_i - slack <= float(ref.imag) <= hi_i + slack


def _squarefree(D: int) -> bool:
    return all(D % (k * k) for k in range(2, math.isqrt(D) + 1))


# every nonprincipal character mod a prime 3..13, and the Kronecker characters
# of discriminant at most 60
_NONPRINCIPAL = [make_elementary(p, m) for p in (3, 5, 7, 11, 13) for m in range(1, p - 1)] + [
    chi for chi in map(make_kronecker, filter(_squarefree, range(2, 61))) if chi.modulus <= 60
]


def _mp_values(chi) -> list:
    """chi(0), ..., chi(q - 1) as mpmath numbers."""
    return [0 if e is None else mpmath.expjpi(mpmath.mpf(2 * e) / chi.order)
            for e in map(chi.exponent, range(chi.modulus))]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_NONPRINCIPAL), st.integers(1010, 4000), st.integers(-6000, 6000),
       st.integers(2, 300))
@example(make_elementary(3, 1), 1010, 6000, 6)  # about 3 M N^-sigma, M = phi(q)/2
def test_l_truncated_radius_bounds_the_tail(chi, sigma_milli, t_centi, cut):
    # the Abel tail is taken wherever q <= N, so N runs from q to 300; a
    # small N with a large |t| is where the |s|/sigma factor is needed
    q = chi.modulus
    N = max(q, cut)
    sigma, t = Fraction(sigma_milli, 1000), Fraction(t_centi, 100)
    enc = l_truncated(chi, ctx.box(sigma, t), N, ctx)
    with mpmath.workprec(3 * ctx.prec):
        z = mpmath.mpc(mpmath.mpf(sigma_milli) / 1000, mpmath.mpf(t_centi) / 100)
        values = _mp_values(chi)
        head = mpmath.fsum(values[n % q] * mpmath.power(n, -z) for n in range(1, N + 1))
        tail = abs(mpmath.dirichlet(z, values) - head)
        man, exp = enc.remainder_radius
        assert tail <= mpmath.ldexp(man, exp), (q, sigma, t, N)


def test_kronecker_one_is_rejected():
    with pytest.raises(DomainError):
        make_kronecker(1)


@st.composite
def _intervals(draw, prec: int):
    """Intervals with endpoints on the prec-bit grid: zeros, points, both signs."""
    ends = []
    for _ in range(2):
        man = draw(st.integers(-(2**prec) + 1, 2**prec - 1) | st.sampled_from([0, 1, -1]))
        ends.append(rd.normalize(man, draw(st.integers(-prec - 40, 40))))
    lo, hi = sorted(ends, key=rd.to_fraction)
    return RealInterval(lo, lo) if draw(st.booleans()) else RealInterval(lo, hi)


@pytest.mark.parametrize("prec", [64, 512])
def test_quarter_turn_product_is_cmul_by_exact_unit(prec):
    pctx = PrecisionContext(prec)
    # make_elementary(5, 1) takes all four values 1, i, -1, -i on n = 1, 2, 4, 3
    chars = [make_elementary(5, 1), make_kronecker(5), make_elementary(13, 6)]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_intervals(prec), _intervals(prec), st.sampled_from(chars), st.integers(1, 12))
    def check(re, im, chi, n):
        e = chi.exponent(n)
        if e is None:
            return
        z = ComplexBox(re, im)
        cache: dict = {}
        assert _times_chi(chi, n, e, z, cache, pctx) == pctx.cmul(char_value(chi, n, pctx), z)

    check()


def test_times_chi_caches_generic_values_by_exponent():
    chi = make_elementary(7, 1)  # order 6: n = 1..6 meet every exponent once
    z = ctx.box(Fraction(1, 3), Fraction(-2, 5))
    cache: dict = {}
    for n in range(1, 7):
        e = chi.exponent(n)
        assert _times_chi(chi, n, e, z, cache, ctx) == ctx.cmul(char_value(chi, n, ctx), z)
    assert sorted(cache) == [0, 1, 2, 3, 4, 5]
