"""Curve invariants, reduction data, local factors, and the partial product."""

import bisect
import itertools
import random
from fractions import Fraction

import mpmath
import pytest

from zetaval import elliptic, kernels
from zetaval import functions as fn
from zetaval import rounding as rd
from zetaval.elliptic import (
    ReductionKind,
    count_points,
    derive_quantities,
    hasse_weil_partial,
    local_zeta,
    trace,
)
from zetaval.errors import DomainError, SingularModel, UncertifiedDivisor
from zetaval.exact import primes_up_to
from zetaval.interval import PrecisionContext

from oracles import brute_point_count

ctx = PrecisionContext(128)

CURVE_11A3 = (0, -1, 1, 0, 0)

# ten nonsingular fixtures with small coefficients
FIXTURES = [
    CURVE_11A3,
    (0, 0, 0, 0, 1),
    (0, 0, 0, -1, 0),
    (0, 0, 1, -1, 0),
    (1, 0, 0, 0, 1),
    (1, 1, 1, 0, 0),
    (0, 1, 0, 0, 4),
    (0, 0, 0, 2, 3),
    (1, -1, 0, -4, 4),
    (0, 0, 0, -7, 10),
]


def _brute_count(coeffs, p: int) -> int:
    a1, a2, a3, a4, a6 = (c % p for c in coeffs)
    total = 1
    for x in range(p):
        for y in range(p):
            lhs = (y * y + a1 * x * y + a3 * y) % p
            rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
            if lhs == rhs:
                total += 1
    return total


def test_invariants_11a3():
    e = derive_quantities(*CURVE_11A3)
    assert (e.b2, e.b4, e.b6, e.b8) == (-4, 0, 1, -1)
    assert (e.c4, e.c6, e.disc) == (16, -152, -11)
    assert e.j == Fraction(-4096, 11)


def test_invariants_x3_plus_1():
    e = derive_quantities(0, 0, 0, 0, 1)
    assert e.disc == -432 and e.c4 == 0 and e.j == 0


def test_invariants_x3_minus_x():
    e = derive_quantities(0, 0, 0, -1, 0)
    assert e.disc == 64 and e.j == 1728


def test_singular_model_flagged():
    e = derive_quantities(0, 0, 0, 0, 0)
    assert e.is_singular and e.j is None


def test_identity_invariants_on_random_curves():
    rng = random.Random(11)
    seen = 0
    while seen < 500:
        coeffs = tuple(rng.randint(-50, 50) for _ in range(5))
        e = derive_quantities(*coeffs)  # raises if identities fail
        assert 4 * e.b8 == e.b2 * e.b6 - e.b4 * e.b4
        assert 1728 * e.disc == e.c4**3 - e.c6**2
        seen += 1


def test_count_points_examples():
    assert count_points(derive_quantities(0, 0, 0, 0, 1), 5) == 6
    e = derive_quantities(*CURVE_11A3)
    assert count_points(e, 2) == 5
    assert count_points(e, 3) == 5


@pytest.mark.parametrize("coeffs", FIXTURES[:5])
def test_count_points_against_brute_force(coeffs):
    e = derive_quantities(*coeffs)
    for p in (2, 3, 5, 7, 11, 13, 17):
        assert count_points(e, p) == _brute_count(coeffs, p)


def test_trace_good_primes():
    e = derive_quantities(*CURVE_11A3)
    t2 = trace(e, 2)
    assert t2.kind is ReductionKind.GOOD and t2.t_p == -2
    t3 = trace(e, 3)
    assert t3.kind is ReductionKind.GOOD and t3.t_p == -1


def test_trace_split_node_at_11():
    info = trace(derive_quantities(*CURVE_11A3), 11)
    assert info.kind is ReductionKind.SPLIT_NODE and info.t_p == 1


def test_trace_cusp():
    info = trace(derive_quantities(0, 0, 0, 0, 0), 5)
    assert info.kind is ReductionKind.CUSP and info.t_p == 0


def test_trace_node_split_vs_nonsplit():
    # y^2 = x^3 - x^2 has a node at the origin with tangent slopes +-i
    e = derive_quantities(0, -1, 0, 0, 0)
    assert trace(e, 3).kind is ReductionKind.NONSPLIT_NODE  # -1 not a QR mod 3
    assert trace(e, 3).t_p == -1
    assert trace(e, 5).kind is ReductionKind.SPLIT_NODE  # -1 is a QR mod 5
    # y^2 = x^3 + x^2 has rational slopes +-1 at every odd p
    e2 = derive_quantities(0, 1, 0, 0, 0)
    assert trace(e2, 7).kind is ReductionKind.SPLIT_NODE


def test_trace_nonsplit_at_two():
    # y^2 + xy = x^3 + a2 x^2 + 1 type with q20 = 1 mod 2: lambda^2+lambda+1
    e = derive_quantities(1, 0, 0, 0, -1)
    bad = [p for p in primes_up_to(50) if e.disc % p == 0]
    for p in bad:
        info = trace(e, p)
        assert info.kind is not ReductionKind.GOOD


def test_bad_reduction_classification_is_exhaustive():
    for coeffs in FIXTURES:
        e = derive_quantities(*coeffs)
        for p in primes_up_to(200):
            info = trace(e, p)
            if e.disc % p == 0:
                assert info.kind in (
                    ReductionKind.CUSP,
                    ReductionKind.SPLIT_NODE,
                    ReductionKind.NONSPLIT_NODE,
                )
                assert info.t_p in (-1, 0, 1)
            else:
                assert info.kind is ReductionKind.GOOD


def test_bad_prime_counts_match_brute_force():
    # bad primes 2 and 3 (x^3 + 1), 2 and 223, a nonsplit and a split node at
    # 1193 and 2819, cusps at 347 and 739, and three models singular everywhere;
    # then every model with coefficients in {-1, 0, 1}, at its bad primes <= 50
    curves = [(0, 0, 0, 0, 1), (1, -1, 0, -4, 4), (6, 5, 6, 3, -3), (-6, 6, -9, 3, 4),
              (7, 1, -4, -7, -6), (5, 5, -2, 1, -6), (0, -1, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 0)]
    curves += itertools.product((-1, 0, 1), repeat=5)
    primes = sorted({*primes_up_to(50), 223, 347, 739, 1193, 2819})
    kinds = set()
    for coeffs in curves:
        e = derive_quantities(*coeffs)
        for p in primes:
            if e.disc % p == 0:
                info = trace(e, p)
                assert info.A_p == brute_point_count(coeffs, p) == p + 1 - info.t_p, (coeffs, p)
                assert count_points(e, p) == info.A_p
                kinds.add((info.kind, p > 3))
    assert len(kinds) == 6  # every kind, at p <= 3 and at larger p


def test_prime_limit_refused_up_front():
    e = derive_quantities(0, -1, 1, -10, -20)
    for call in (lambda: count_points(e, 2147483659), lambda: trace(e, 2147483659),
                 lambda: local_zeta(e, 2147483659, ctx.box(2, 0), ctx)):
        with pytest.raises(DomainError):
            call()
    info = trace(e, 2**31 - 1)  # the largest prime below the limit
    assert info.kind is ReductionKind.GOOD and info.t_p**2 <= 4 * info.p


def test_hasse_weil_primes_to_cap():
    e = derive_quantities(*CURVE_11A3)
    with pytest.raises(DomainError):
        hasse_weil_partial(e, ctx.interval(2), 10**6 + 1, ctx)


def test_hasse_bound_on_fixture_set():
    for coeffs in FIXTURES:
        e = derive_quantities(*coeffs)
        for p in primes_up_to(200):
            if e.disc % p:
                info = trace(e, p)
                assert info.t_p * info.t_p <= 4 * p
                assert info.A_p == 1 + p - info.t_p


def test_local_zeta_exact_rational_values():
    enc = local_zeta(derive_quantities(0, 0, 0, 0, 1), 5, ctx.box(2, 0), ctx)
    assert enc.value.re.contains(Fraction(21, 16))
    assert enc.value.im.contains(0)
    assert enc.value.re.width_float() <= 1e-20
    enc2 = local_zeta(derive_quantities(*CURVE_11A3), 2, ctx.box(2, 0), ctx)
    assert enc2.value.re.contains(Fraction(13, 3))


def test_local_zeta_matches_exact_formula_at_integer_s():
    rng = random.Random(5)
    for coeffs in FIXTURES[:6]:
        e = derive_quantities(*coeffs)
        for p in (5, 7, 13):
            if e.disc % p == 0:
                continue
            info = trace(e, p)
            for s in (2, 3):
                q = Fraction(1, p**s)
                exact = (1 - info.t_p * q + p * q * q) / ((1 - q) * (1 - p * q))
                enc = local_zeta(e, p, ctx.box(s, 0), ctx)
                assert enc.value.re.contains(exact)


def test_local_zeta_rejects_bad_prime():
    with pytest.raises(DomainError):
        local_zeta(derive_quantities(*CURVE_11A3), 11, ctx.box(2, 0), ctx)


def test_local_zeta_uncertified_at_zero():
    with pytest.raises(UncertifiedDivisor):
        local_zeta(derive_quantities(0, 0, 0, 0, 1), 5, ctx.box(0, 0), ctx)


def test_hasse_weil_refinement():
    e = derive_quantities(*CURVE_11A3)
    n100 = hasse_weil_partial(e, ctx.interval(2), 100, ctx)
    n1000 = hasse_weil_partial(e, ctx.interval(2), 1000, ctx)
    assert n100.value.re.intersects(n1000.value.re)
    assert n1000.value.re.width_float() < n100.value.re.width_float()
    n3 = hasse_weil_partial(e, ctx.interval(2), 3, ctx)
    assert n3.value.re.intersects(n1000.value.re)


def test_hasse_weil_tail_bound_value():
    e = derive_quantities(*CURVE_11A3)
    enc = hasse_weil_partial(e, ctx.interval(2), 100, ctx)
    assert enc.remainder_float() <= 0.62


def test_hasse_weil_tail_sums_over_primes_only():
    # the integer tail gave B = 0.1957 here; the box must still meet a far
    # longer product's
    e = derive_quantities(*CURVE_11A3)
    enc = hasse_weil_partial(e, ctx.interval(2), 1000, ctx)
    assert enc.remainder_float() <= 0.025
    assert enc.value.re.intersects(hasse_weil_partial(e, ctx.interval(2), 30000, ctx).value.re)


@pytest.mark.parametrize("sigma", (Fraction(31, 20), Fraction(2), Fraction(5, 2), Fraction(3)))
def test_prime_tail_bounds_the_sum_over_primes(sigma):
    primes = primes_up_to(10**6)
    sigma_lo = ctx.interval(sigma).lo
    with mpmath.workprec(80):
        sig = rd.to_fraction(sigma_lo)
        a = mpmath.mpf(sig.numerator) / sig.denominator - mpmath.mpf(1) / 2
        terms = [mpmath.mpf(p) ** -a for p in primes]
        for n in (3, 10, 100, 1000):
            pi_n = bisect.bisect_right(primes, n)
            tail, _ = elliptic._prime_tail(sigma_lo, n, pi_n, ctx)
            s_up = rd.to_fraction(tail.hi)
            # S bounds the sum over n < p <= 1e6, rounded down by 2^-40
            assert s_up >= rd.to_fraction(mpmath.fsum(terms[pi_n:]).man_exp) * (1 - Fraction(1, 2**40))
            # S is the smaller of the integer bound and the prime bound
            integers = mpmath.mpf(n) ** (1 - a) / (a - 1)
            prime_bound = (mpmath.mpf(125506) / 100000 * a * mpmath.mpf(n) ** (1 - a)
                           / ((a - 1) * mpmath.log(n)) - pi_n * mpmath.mpf(n) ** -a)
            best = rd.to_fraction(min(integers, prime_bound).man_exp)
            assert abs(s_up - best) <= best / 2**60
            if n == 3:
                assert integers < prime_bound


def test_hasse_weil_preconditions():
    e = derive_quantities(*CURVE_11A3)
    with pytest.raises(DomainError):
        hasse_weil_partial(e, ctx.interval(Fraction(3, 2)), 100, ctx)
    with pytest.raises(DomainError):
        hasse_weil_partial(e, ctx.interval(2), 2, ctx)
    with pytest.raises(SingularModel):
        hasse_weil_partial(derive_quantities(0, 0, 0, 0, 0), ctx.interval(2), 100, ctx)


def test_hasse_weil_noninteger_sigma():
    e = derive_quantities(0, 0, 0, -1, 0)
    enc = hasse_weil_partial(e, ctx.interval(Fraction(7, 4)), 50, ctx)
    assert enc.value.re.to_floats()[0] > 0


def test_hasse_weil_endpoints_reproducible():
    # the ascending-prime combination order is pinned, so reported endpoints
    # are bit-identical across runs
    e = derive_quantities(*CURVE_11A3)
    a = hasse_weil_partial(e, ctx.interval(2), 200, ctx)
    b = hasse_weil_partial(e, ctx.interval(2), 200, ctx)
    assert a.value.re.lo == b.value.re.lo and a.value.re.hi == b.value.re.hi


# 11a3, 37a1, and a curve with bad primes 2 and 223
HW_CURVES = (CURVE_11A3, (0, 0, 1, -1, 0), (1, -1, 0, -4, 4))


def _local_traces(coeffs, primes_to):
    """(p, t_p, good) for p <= primes_to: a brute-force count at good primes,
    ``trace`` at bad ones."""
    e = derive_quantities(*coeffs)
    out = []
    for p in primes_up_to(primes_to):
        if e.disc % p:
            out.append((p, p + 1 - brute_point_count(coeffs, p), True))
        else:
            out.append((p, trace(e, p).t_p, False))
    return out


def _partial_product(e, s, primes_to):
    """The product of the Euler factors before the tail factor, formed in
    ascending prime order as ``hasse_weil_partial`` forms it."""
    primes = primes_up_to(primes_to)
    acc = ctx.one()
    for p, a_p in zip(primes, kernels.count_points_batch(e.coeffs(), primes)):
        acc = ctx.mul(acc, elliptic._euler_factor(elliptic._reduction(e, p, a_p), s, ctx))
    return acc


def _tree_product(xs: list[int]) -> int:
    """Product of xs by halves: big-integer products of balanced sizes."""
    if len(xs) == 1:
        return xs[0]
    return _tree_product(xs[: len(xs) // 2]) * _tree_product(xs[len(xs) // 2 :])


@pytest.mark.parametrize("primes_to", (100, 1000))
@pytest.mark.parametrize("coeffs", HW_CURVES)
def test_hasse_weil_product_encloses_the_exact_rational(coeffs, primes_to):
    e = derive_quantities(*coeffs)
    local = _local_traces(coeffs, primes_to)
    # 65 and 200 are past the old fixed exact range of s <= 64
    for s in (2, 3, 65, 200):
        nums, dens = [], []
        for p, t_p, good in local:
            q = p**s
            nums.append(q * q if good else q)
            dens.append(q * q - t_p * q + p if good else q - t_p)
        # the exact product is num/den; compare by cross-multiplying, since
        # reducing it costs more than the product at s = 200
        num, den = _tree_product(nums), _tree_product(dens)
        value = hasse_weil_partial(e, ctx.interval(s), primes_to, ctx).value
        product = _partial_product(e, ctx.interval(s), primes_to)
        assert value.re.contains_interval(product)
        lo, hi = product.lo_fraction, product.hi_fraction
        assert lo * den <= num <= hi * den, (coeffs, s, primes_to)
        assert value.im.lo == value.im.hi == rd.ZERO
        # one outward rounding per factor and per product: about 2 ulp each
        assert (hi - lo) * den * 2**ctx.prec <= 4 * len(local) * num, (coeffs, s, primes_to)


def _mp_partial_product(local, s):
    prod = mpmath.mpf(1)
    for p, t_p, good in local:
        x = mpmath.power(p, -s)
        prod /= 1 - t_p * x + (p * x * x if good else 0)
    return prod


def _mp_fraction(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("coeffs", HW_CURVES)
def test_hasse_weil_at_real_noninteger_s_matches_mpmath(coeffs):
    e = derive_quantities(*coeffs)
    local = _local_traces(coeffs, 300)
    point = ctx.interval(Fraction(5, 2))
    box = ctx.interval(Fraction(12, 5), Fraction(13, 5))
    with mpmath.workprec(2 * ctx.prec + 32):
        for s, samples in ((point, [Fraction(5, 2)]),
                           (box, [rd.to_fraction(box.lo), Fraction(5, 2), rd.to_fraction(box.hi)])):
            value = hasse_weil_partial(e, s, 300, ctx).value
            product = _partial_product(e, s, 300)
            assert value.re.contains_interval(product)
            assert value.im.lo == value.im.hi == rd.ZERO
            for sample in samples:
                want = _mp_partial_product(local, mpmath.mpf(sample.numerator) / sample.denominator)
                assert product.contains(_mp_fraction(want)), (coeffs, sample)


def test_hasse_weil_leaves_the_log_cache_alone():
    before = dict(fn._log_cache)
    hasse_weil_partial(derive_quantities(*CURVE_11A3), ctx.interval(Fraction(5, 2)), 2000, ctx)
    assert fn._log_cache == before
