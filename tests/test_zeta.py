"""Euler-Maclaurin zeta enclosures against the eta-series oracle."""

import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import box_separation, decimal_bracket, eta_zeta_oracle
from zetaval import functions as fn
from zetaval import rounding as rd
from zetaval.errors import DomainError, PoleProximity
from zetaval.interval import CertifiedSign, ComplexBox, PrecisionContext, certify_nonzero
from zetaval.zeta import (
    EMParams,
    Enclosure,
    _em_enclosure,
    functional_eq_check,
    moduli_volume,
    zeta_auto,
    zeta_em,
    zeta_even,
    zeta_neg,
)

ctx = PrecisionContext(128)


def _sbox(re, im=0):
    return ComplexBox(ctx.interval(re), ctx.interval(im))


def test_zeta2_small_params_contains_pi_squared_over_6():
    enc = zeta_em(_sbox(2), EMParams(10, 3), ctx)
    exact = ctx.div(ctx.sq(fn.pi(ctx)), ctx.interval(6))
    assert enc.value.re.intersects(exact)
    assert enc.value.re.width_float() <= 1e-10
    assert enc.value.im.contains(0)


def test_zeta3_against_frozen_oracle_value():
    enc = zeta_em(_sbox(3), EMParams(10, 3), ctx)
    lo, hi = decimal_bracket("1.2020569031595942")
    assert enc.value.re.contains(lo) or enc.value.re.contains(hi) or (
        enc.value.re.lo_fraction >= lo and enc.value.re.hi_fraction <= hi
    )
    oracle = eta_zeta_oracle(_sbox(3), ctx)
    assert enc.value.re.intersects(oracle.re)


def test_zeta3_default_params_width():
    enc = zeta_em(_sbox(3), EMParams(32, 6), ctx)
    assert enc.value.re.width_float() <= 1e-10
    oracle = eta_zeta_oracle(_sbox(3), ctx)
    assert enc.value.re.intersects(oracle.re)


def test_zeta_complex_point_consistent_with_oracle():
    s = _sbox(1, 1)
    enc = zeta_em(s, EMParams(20, 4), ctx)
    oracle = eta_zeta_oracle(s, ctx)
    assert enc.value.intersects(oracle)
    assert enc.value.re.width_float() <= 1e-8
    assert enc.value.im.width_float() <= 1e-8


def test_pole_rejection():
    with pytest.raises(PoleProximity):
        zeta_em(_sbox(1), EMParams(10, 2), ctx)
    with pytest.raises(DomainError):
        zeta_em(_sbox(Fraction(1, 2)), EMParams(10, 2), ctx)
    # boxes straddling 1 on the real axis are rejected, not split
    s = ComplexBox(ctx.interval(1, 2), ctx.interval(0))
    with pytest.raises(PoleProximity):
        zeta_em(s, EMParams(10, 2), ctx)


def test_zeta_auto_hits_width_targets():
    enc = zeta_auto(_sbox(2), "1e-12", ctx)
    assert enc.meets_target
    assert enc.value.re.width_fraction() <= Fraction(1, 10**12)
    exact = ctx.div(ctx.sq(fn.pi(ctx)), ctx.interval(6))
    assert enc.value.re.intersects(exact)

    enc15 = zeta_auto(_sbox(Fraction(3, 2)), "1e-8", ctx)
    assert enc15.meets_target
    oracle = eta_zeta_oracle(_sbox(Fraction(3, 2)), ctx)
    assert enc15.value.re.intersects(oracle.re)

    # a loose target takes the smallest cut and one correction
    loose = zeta_auto(_sbox(2), 10, ctx)
    assert loose.meets_target and loose.params == EMParams(2, 1)


def test_zeta_auto_rejects_nonpositive_width():
    # no enclosure has width <= 0, so these used to double N for all rounds
    for width in (0, "0", -1, "-1e-12"):
        with pytest.raises(DomainError):
            zeta_auto(_sbox(2), width, ctx)


def test_remainder_soundness_sweep():
    points = [
        _sbox(Fraction(11, 10)),
        _sbox(Fraction(3, 2)),
        _sbox(2),
        _sbox(3),
        _sbox(2, 1),
        _sbox(1, 3),
    ]
    for s in points:
        oracle = eta_zeta_oracle(s, ctx)
        for N, k in ((10, 2), (20, 4), (40, 6)):
            enc = zeta_em(s, EMParams(N, k), ctx)
            # widening by zero is exact: this is the truncated sum itself
            partial = _em_enclosure(s, EMParams(N, k), rd.ZERO, ctx).value
            assert ctx.cwiden(partial, enc.remainder_radius) == enc.value
            assert box_separation(oracle, partial) <= enc.remainder_float()
            assert enc.value.intersects(oracle)


def test_enclosure_consistency_refinement():
    for s in (_sbox(2), _sbox(Fraction(3, 2)), _sbox(1, 1)):
        coarse = zeta_em(s, EMParams(12, 3), ctx)
        fine = zeta_em(s, EMParams(24, 4), ctx)
        assert coarse.value.intersects(fine.value)


def test_width_monotonicity_regression():
    for s in (_sbox(2), _sbox(3), _sbox(1, 1)):
        for N, k in ((10, 3), (16, 4)):
            w1 = zeta_em(s, EMParams(N, k), ctx).value.max_width_float()
            w2 = zeta_em(s, EMParams(2 * N, k + 1), ctx).value.max_width_float()
            assert w2 <= w1


def test_exact_even_values_inside_em_enclosures():
    for k in (1, 2, 3):
        enc = zeta_em(_sbox(2 * k), EMParams(16, 4), ctx)
        exact = zeta_even(k).enclosure(ctx)
        mid = (exact.lo_fraction + exact.hi_fraction) / 2
        assert enc.value.re.contains(mid)


def test_zeta_even_coefficients():
    assert zeta_even(1).coefficient == Fraction(1, 6)
    assert zeta_even(2).coefficient == Fraction(1, 90)
    assert zeta_even(3).coefficient == Fraction(1, 945)
    assert zeta_even(1).pi_power == 2


def test_zeta_neg_values():
    assert zeta_neg(-1) == Fraction(-1, 12)
    assert zeta_neg(-2) == 0
    assert zeta_neg(-3) == Fraction(1, 120)
    assert zeta_neg(0) == Fraction(-1, 2)
    assert zeta_neg(-4) == 0
    assert zeta_neg(-5) == Fraction(-1, 252)
    with pytest.raises(DomainError):
        zeta_neg(2)


def test_moduli_volume_values():
    assert moduli_volume(2, ctx)[0] == Fraction(1, 12)
    assert moduli_volume(3, ctx)[0] == Fraction(7, 1440)
    assert moduli_volume(4, ctx)[0] == Fraction(31, 120960)
    vol, enc = moduli_volume(2, ctx)
    assert enc.contains(vol)
    with pytest.raises(DomainError):
        moduli_volume(1, ctx)


def test_functional_equation_closed_forms():
    for m in (1, 2, 3, 4, 5):
        assert functional_eq_check(m)


def test_certify_nonzero_on_zeta_values():
    for re in (Fraction(3, 2), 2, 3):
        enc = zeta_em(_sbox(re), EMParams(16, 4), ctx)
        assert certify_nonzero(enc.value.re) is CertifiedSign.POSITIVE


def test_wide_argument_box_covers_pointwise_values():
    s = ComplexBox(ctx.interval(2, 3), ctx.interval(0))
    enc = zeta_em(s, EMParams(16, 4), ctx)
    for point in (_sbox(2), _sbox(Fraction(5, 2)), _sbox(3)):
        oracle = eta_zeta_oracle(point, ctx)
        assert enc.value.re.contains_interval(oracle.re) or enc.value.re.intersects(oracle.re)
        mid = (oracle.re.lo_fraction + oracle.re.hi_fraction) / 2
        assert enc.value.re.contains(mid)


def test_enclosure_widened_widens_outward_at_the_context_precision():
    wide = PrecisionContext(200)
    real = wide.interval(Fraction(1, 3))
    box = ComplexBox(real, wide.interval(Fraction(-2, 7)))
    radius = rd.from_fraction(Fraction(1, 10**20), 64, rd.CEIL)
    enc = Enclosure.widened(real, radius, "params", wide)
    assert enc.value.im.lo == rd.ZERO and enc.value.im.hi == rd.ZERO
    assert enc.value.re.lo == rd.sub(real.lo, radius, 200, rd.FLOOR)
    assert enc.value.re.hi == rd.add(real.hi, radius, 200, rd.CEIL)
    assert (enc.params, enc.remainder_radius, enc.prec) == ("params", radius, 200)
    enc = Enclosure.widened(box, radius, None, wide)
    assert enc.value.im.lo == rd.sub(box.im.lo, radius, 200, rd.FLOOR)
    assert enc.value.im.hi == rd.add(box.im.hi, radius, 200, rd.CEIL)
    # widening by zero at the working precision keeps every bit
    assert Enclosure.widened(real, rd.ZERO, None, wide).value == ComplexBox(real, wide.zero())
    enc = Enclosure.widened(box, rd.ZERO, None, wide)
    assert enc.value == box and enc.prec == 200


def test_chunked_partial_sum_still_contains():
    # interval addition is containment-associative: summing n^-s in chunks
    # must still enclose the same value
    s = _sbox(2)
    table = fn.neg_power_table(32, s, ctx)
    left = ctx.box(0)
    for n in range(1, 17):
        left = ctx.cadd(left, table[n])
    right = ctx.box(0)
    for n in range(17, 33):
        right = ctx.cadd(right, table[n])
    chunked = ctx.cadd(left, right)
    straight = ctx.box(0)
    for n in range(1, 33):
        straight = ctx.cadd(straight, table[n])
    exact = sum(Fraction(1, n * n) for n in range(1, 33))
    assert chunked.re.contains(exact)
    assert straight.re.contains(exact)


def test_zeta_auto_rejects_unreachable_width():
    # far below the working precision: once ran for minutes before giving up
    t0 = time.monotonic()
    with pytest.raises(DomainError, match="cannot reach"):
        zeta_auto(_sbox(2), "1e-1000", ctx)
    assert time.monotonic() - t0 < 1
    bits = ctx.prec + 384
    with pytest.raises(DomainError, match=f"2\\*\\*-{bits}$"):
        zeta_auto(_sbox(2), Fraction(1, 2**bits + 1), ctx)
    assert zeta_auto(_sbox(2), Fraction(1, 2**bits), ctx).meets_target


def test_table_cap_refused_before_allocation():
    t0 = time.monotonic()
    with pytest.raises(DomainError, match="cap"):
        zeta_em(_sbox(2), EMParams(10**8, 2), ctx)
    with pytest.raises(DomainError, match="cap"):
        fn.neg_power_table(fn._TABLE_CAP + 1, _sbox(2), ctx)
    assert time.monotonic() - t0 < 1


def test_zeta_auto_checks_domain_before_skipping_rounds():
    # the refusal comes before any remainder bound or table
    below = ComplexBox(ctx.interval(Fraction(999, 1000), 2), ctx.interval(0))
    with pytest.raises(DomainError):
        zeta_auto(below, "1e-40", ctx)
    pole = ComplexBox(ctx.interval(1, 2), ctx.interval(Fraction(-1, 10), Fraction(1, 10)))
    with pytest.raises(PoleProximity):
        zeta_auto(pole, "1e-40", ctx)
    with pytest.raises(PoleProximity):
        zeta_auto(_sbox(1), "1e-40", ctx)


def _mp_fraction(x: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(1020, 50000),
    st.integers(-100000, 100000),
    st.integers(3, 28),
    st.integers(1, 9),
    st.sampled_from((128, 256)),
)
def test_zeta_auto_meets_reachable_targets_with_one_table(tables, sigma_milli, t_centi, digits, lead, prec):
    c = PrecisionContext(prec)
    sigma, t = Fraction(sigma_milli, 1000), Fraction(t_centi, 100)
    target = Fraction(lead, 10**digits)
    tables.clear()
    enc = zeta_auto(ComplexBox(c.interval(sigma), c.interval(t)), target, c)
    assert enc.meets_target
    assert max(enc.value.re.width_fraction(), enc.value.im.width_fraction()) <= target
    with mpmath.workprec(2 * prec + 32):
        z = mpmath.zeta(mpmath.mpc(mpmath.mpf(sigma_milli) / 1000, mpmath.mpf(t_centi) / 100))
    assert enc.value.contains_complex(_mp_fraction(z.real), _mp_fraction(z.imag))
    assert tables == [enc.params.N]
