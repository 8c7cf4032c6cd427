"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``-rA``) to see the
per-criterion PASS/FAIL lines.
"""

import random
from fractions import Fraction

from oracles import box_separation, class_number_oracle, decimal_bracket, eta_zeta_oracle
from zetaval import functions as fn
from zetaval import rounding as rd
from zetaval.characters import gauss_sum, make_elementary, make_kronecker
from zetaval.dedekind import (
    DedekindParams,
    RealQuadraticField,
    dedekind_enclosure,
    hilbert_volume,
    siegel_zeta_minus1,
)
from zetaval.dirichlet import l_one_quadratic, l_truncated
from zetaval.elliptic import (
    ReductionKind,
    derive_quantities,
    hasse_weil_partial,
    local_zeta,
    trace,
)
from zetaval.exact import QuadraticDiscriminant, primes_up_to
from zetaval.interval import CertifiedSign, ComplexBox, PrecisionContext, certify_nonzero
from zetaval.zeta import (
    EMParams,
    _em_enclosure,
    functional_eq_check,
    moduli_volume,
    zeta_auto,
    zeta_em,
    zeta_even,
    zeta_neg,
)

ctx = PrecisionContext(128)


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _sbox(re, im=0):
    return ComplexBox(ctx.interval(re), ctx.interval(im))


def test_criterion_01_zeta2_adaptive():
    enc = zeta_auto(_sbox(2), "1e-12", ctx)
    exact = ctx.div(ctx.sq(fn.pi(ctx)), ctx.interval(6))
    mid = (exact.lo_fraction + exact.hi_fraction) / 2
    ok = (
        bool(enc.meets_target)
        and enc.value.re.width_fraction() <= Fraction(1, 10**12)
        and enc.value.re.intersects(exact)
        and enc.value.re.contains(mid)
    )
    _report(1, "zeta(2) adaptive width <= 1e-12 and consistent with pi^2/6", ok)


def test_criterion_02_zeta3():
    enc = zeta_em(_sbox(3), EMParams(32, 6), ctx)
    lo, hi = decimal_bracket("1.20205690315959428")
    oracle = eta_zeta_oracle(_sbox(3), ctx)
    ok = (
        enc.value.re.lo_fraction >= lo
        and enc.value.re.hi_fraction <= hi
        and enc.value.re.intersects(oracle.re)
        and enc.value.re.width_float() <= 1e-10
    )
    _report(2, "zeta(3) at N=32,k=6 matches the eta oracle, width <= 1e-10", ok)


def test_criterion_03_zeta_1_plus_i():
    s = _sbox(1, 1)
    backlund = zeta_em(s, EMParams(32, 6), ctx)
    oracle = eta_zeta_oracle(s, ctx)
    ok = (
        backlund.value.intersects(oracle)
        and backlund.value.re.width_float() <= 1e-8
        and backlund.value.im.width_float() <= 1e-8
        and oracle.re.width_float() <= 1e-8
        and oracle.im.width_float() <= 1e-8
    )
    _report(3, "zeta(1+i): Backlund and eta-series enclosures intersect at 1e-8", ok)


def test_criterion_04_remainder_soundness_sweep():
    points = [
        _sbox(Fraction(11, 10)),
        _sbox(Fraction(3, 2)),
        _sbox(2),
        _sbox(3),
        _sbox(2, 1),
        _sbox(1, 3),
    ]
    passed = 0
    for s in points:
        oracle = eta_zeta_oracle(s, ctx)
        for N, k in ((10, 2), (20, 4), (40, 6)):
            enc = zeta_em(s, EMParams(N, k), ctx)
            # widening by zero is exact: this is the truncated sum itself
            partial = _em_enclosure(s, EMParams(N, k), rd.ZERO, ctx).value
            if (
                ctx.cwiden(partial, enc.remainder_radius) == enc.value
                and box_separation(oracle, partial) <= enc.remainder_float()
            ):
                passed += 1
    _report(4, f"remainder bound sound on sweep ({passed}/18)", passed == 18)


def test_criterion_05_exact_special_values():
    ok = (
        zeta_neg(-1) == Fraction(-1, 12)
        and zeta_neg(-2) == 0
        and zeta_neg(-3) == Fraction(1, 120)
        and zeta_even(1).coefficient == Fraction(1, 6)
        and zeta_even(2).coefficient == Fraction(1, 90)
    )
    _report(5, "exact zeta values at -1, -2, -3 and even coefficients", ok)


def test_criterion_06_functional_equation():
    ok = all(functional_eq_check(m) for m in (1, 2, 3))
    _report(6, "functional equation holds exactly at s = -1, -3, -5", ok)


def test_criterion_07_l_one_quadratic():
    ok = True
    for delta in (5, 8, 13):
        D = QuadraticDiscriminant.from_discriminant(delta).D
        oracle = class_number_oracle(D, ctx)
        e20 = l_one_quadratic(D, 20, ctx)
        e40 = l_one_quadratic(D, 40, ctx)
        ok = ok and e20.value.re.intersects(oracle)
        ok = ok and e40.value.re.intersects(oracle)
        ok = ok and e20.value.re.intersects(e40.value.re)
        ok = ok and e20.value.re.width_float() <= 1e-8
    _report(7, "L(1, chi) encloses the class-number value for Delta in {5,8,13}", ok)


def test_criterion_08_gauss_sums():
    ok = True
    for q, chi in ((3, make_elementary(3, 1)), (5, make_kronecker(5)),
                   (13, make_kronecker(13)), (17, make_kronecker(17))):
        tau = gauss_sum(chi, ctx)
        ok = ok and ctx.cabs_sq(tau).contains(q)
        if q % 4 == 1:
            ok = ok and tau.im.contains(0)
            ok = ok and certify_nonzero(tau.re) is CertifiedSign.POSITIVE
    _report(8, "|tau(chi)|^2 encloses q; tau real-positive for q = 1 mod 4", ok)


def test_criterion_09_siegel_and_hilbert():
    ok = (
        siegel_zeta_minus1(5) == Fraction(1, 30)
        and siegel_zeta_minus1(13) == Fraction(1, 6)
        and siegel_zeta_minus1(17) == Fraction(1, 3)
        and hilbert_volume(5) == Fraction(1, 15)
        and hilbert_volume(13) == Fraction(1, 3)
        and hilbert_volume(17) == Fraction(2, 3)
    )
    _report(9, "Siegel zeta_K(-1) and Hilbert volumes exact for p = 5, 13, 17", ok)


def test_criterion_10_moduli_volume():
    ok = moduli_volume(2, ctx)[0] == Fraction(1, 12) and moduli_volume(3, ctx)[0] == Fraction(7, 1440)
    _report(10, "moduli volumes exact: g=2 -> 1/12, g=3 -> 7/1440", ok)


def test_criterion_11_curve_invariants():
    e = derive_quantities(0, -1, 1, 0, 0)
    ok = e.disc == -11 and e.j == Fraction(-4096, 11)
    rng = random.Random(2718)
    for _ in range(500):
        c = derive_quantities(*(rng.randint(-50, 50) for _ in range(5)))
        ok = ok and 4 * c.b8 == c.b2 * c.b6 - c.b4**2 and 1728 * c.disc == c.c4**3 - c.c6**2
    _report(11, "curve invariants and identities on 500 random models", ok)


def test_criterion_12_traces_and_hasse_bound():
    e = derive_quantities(0, -1, 1, 0, 0)
    info11 = trace(e, 11)
    ok = (
        trace(e, 2).t_p == -2
        and trace(e, 3).t_p == -1
        and info11.kind is ReductionKind.SPLIT_NODE
        and info11.t_p == 1
    )
    fixtures = [
        (0, -1, 1, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, -1, 0), (0, 0, 1, -1, 0),
        (1, 0, 0, 0, 1), (1, 1, 1, 0, 0), (0, 1, 0, 0, 4), (0, 0, 0, 2, 3),
        (1, -1, 0, -4, 4), (0, 0, 0, -7, 10),
    ]
    for coeffs in fixtures:
        c = derive_quantities(*coeffs)
        for p in primes_up_to(200):
            if c.disc % p:
                t = trace(c, p).t_p
                ok = ok and t * t <= 4 * p
    _report(12, "traces of 11a-type curve and Hasse bound over the fixture set", ok)


def test_criterion_13_local_zeta_exactness():
    enc = local_zeta(derive_quantities(0, 0, 0, 0, 1), 5, _sbox(2), ctx)
    ok = enc.value.re.contains(Fraction(21, 16)) and enc.value.re.width_float() <= 1e-20
    _report(13, "local zeta at (y^2=x^3+1, p=5, s=2) encloses 21/16 within 1e-20", ok)


def test_criterion_14_hasse_weil_partial():
    e = derive_quantities(0, -1, 1, 0, 0)
    n100 = hasse_weil_partial(e, ctx.interval(2), 100, ctx)
    n1000 = hasse_weil_partial(e, ctx.interval(2), 1000, ctx)
    ok = (
        n100.value.re.intersects(n1000.value.re)
        and n1000.value.re.width_float() < n100.value.re.width_float()
        and n100.remainder_float() <= 0.62
    )
    _report(14, "Hasse-Weil partial products consistent; tail bound <= 0.62", ok)


def test_criterion_15_dedekind_oracle_equivalence():
    ok = True
    for delta in (5, 8):
        D = QuadraticDiscriminant.from_discriminant(delta).D
        K = RealQuadraticField.of(D)
        params = DedekindParams(em=EMParams(24, 5), l_terms=1500, direct_terms=4000)
        prod = dedekind_enclosure(K, ctx.interval(2), "product", params, ctx)
        direct = dedekind_enclosure(K, ctx.interval(2), "direct", params, ctx)
        ok = ok and prod.value.re.intersects(direct.value.re)
    _report(15, "dedekind product and direct modes intersect for Delta in {5,8}", ok)


def test_criterion_16_nonzero_certification():
    ok = True
    for sigma in (Fraction(3, 2), 2, 3):
        enc = zeta_em(_sbox(sigma), EMParams(16, 4), ctx)
        ok = ok and certify_nonzero(enc.value.re) is CertifiedSign.POSITIVE
    l_val = l_truncated(make_kronecker(5), _sbox(2), 2000, ctx)
    ok = ok and certify_nonzero(l_val.value).is_certified
    ok = ok and certify_nonzero(ctx.interval(-1, 1)) is CertifiedSign.UNCERTIFIED
    _report(16, "nonzero certification on zeta, L(2, chi_5), and [-1,1]", ok)
