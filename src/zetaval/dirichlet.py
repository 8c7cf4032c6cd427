"""Dirichlet L-values: the fast series for L(1, chi_Delta) and truncated sums.

The L(1) evaluator follows the incomplete-gamma split

    L(1, chi) = (1/sqrt(Delta)) sum_{n<=m} chi(n) E1(A n^2)
              + sum_{n<=m} (chi(n)/n) erfc(n sqrt(A)) + R_m,
    |R_m| < Delta^(3/2)/pi^2 * exp(-A m^2)/m^3,      A = pi/Delta,

with chi the Kronecker symbol of the fundamental discriminant.  erfc here is
the standard complementary error function (2/sqrt(pi)) int_x^inf e^(-t^2) dt;
the 2/pi prefactor sometimes seen for this formula fails the class-number
cross-check, which the test suite demonstrates explicitly.

E1 and erfc both use their (convergent) power series wherever the series is
usable at all, summed on integers by the fixed-point kernel of ``functions``
(``_fixed_series``) with its alternating tail rule once the terms decrease
(k > x for E1, k > x^2 for erfc).  The fixed-point scale 2**-w takes
~1.44x (resp. ~1.44x^2) bits past the output precision to absorb the
cancellation.  Both switch to two-sided exponential sandwiches only
far out, where the sandwich gap is negligible against e^(-x).  Cutting over at
x = 1, as the plain formulas suggest, would leave enclosures about 1e-3 wide
and could never certify 8 digits; the series region therefore extends to
x <= 34 (E1) and x <= 6 (erfc).

E1 enclosures bottom out near 1e-50 width: the Euler-Mascheroni constant is a
stored 50-digit bracket.

``l_truncated`` sums chi(n) n^-s over n <= N and widens the sum by the smaller
of two tail bounds, with sigma = Re(s).lo.  The trivial one takes every
|chi(n)| as 1: sum_{n>N} n^-sigma <= N^(1-sigma)/(sigma-1).  When q <= N, the
sum has read chi over a full period, which says whether chi is principal and
counts its phi(q) nonzero values.  For nonprincipal chi the values sum to 0
over each period, so A(t) = sum_{n<=t} chi(n) is the sum over a partial period
and minus the sum over the rest of it: |A(t)| <= phi(q)/2.  Abel summation
(Apostol, *Introduction to Analytic Number Theory*, Thm 4.2) then gives

    sum_{n>N} chi(n) n^-s = -A(N) N^-s + s int_N^oo A(t) t^(-s-1) dt,
    |sum_{n>N} chi(n) n^-s| <= (phi(q)/2) N^-sigma (1 + |s|/sigma),

with N^-sigma = N^(1-sigma)/N from the trivial bound's one exp and log.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import functions as fn
from . import rounding as rd
from .characters import DirichletCharacter, char_value, make_kronecker
from .errors import DomainError
from .interval import ComplexBox, PrecisionContext, RealInterval
from .zeta import Enclosure

# E1 and erfc sum their series up to these arguments and use sandwich bounds above
_E1_SERIES_MAX: rd.MPF = rd.from_int(34)
_ERFC_SERIES_MAX: rd.MPF = rd.from_int(6)


@dataclass(frozen=True)
class L1Params:
    """Series length m actually summed."""

    m: int


def _e1_series_point(v: rd.MPF, out_prec: int) -> RealInterval:
    """-gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k/(k k!), alternating tail.

    The sum runs on the fixed-point kernel at w = out_prec + boost, from floor
    and ceil of x 2**w (each term grows with x): p_k = p_{k-1} x/k, and
    term_k = p_k/k shrinks once k > x.
    """
    xf = rd.to_float(v, rd.CEIL)
    boost = int(1.45 * xf) + 48
    ctx = PrecisionContext(out_prec + boost)
    w = ctx.prec
    xs = fn._fixed(v, w)
    lo, hi = fn._fixed_series(xs, xs, w, ((k, k) for k in itertools.count(2)), min_terms=xf)
    total = fn._from_fixed(lo, hi, w, ctx.prec)
    return ctx.sub(ctx.sub(total, fn.euler_gamma(ctx)), fn.log(RealInterval(v, v), ctx))


def _e1_sandwich_point(v: rd.MPF, ctx: PrecisionContext) -> RealInterval:
    """e^-x (1/2) ln(1 + 2/x) <= E1(x) <= e^-x ln(1 + 1/x) for x > 0."""
    x = RealInterval(v, v)
    decay = fn.exp(ctx.neg(x), ctx)
    upper = ctx.mul(decay, fn.log(ctx.add(ctx.one(), ctx.div(ctx.one(), x)), ctx))
    two_over = ctx.div(ctx.interval(2), x)
    lower = ctx.mul(decay, ctx.scale_2exp(fn.log(ctx.add(ctx.one(), two_over), ctx), -1))
    return RealInterval(lower.lo, upper.hi)


def _e1_point(v: rd.MPF, out_prec: int) -> RealInterval:
    if rd.cmp(v, _E1_SERIES_MAX) <= 0:
        return _e1_series_point(v, out_prec)
    return _e1_sandwich_point(v, PrecisionContext(out_prec + 16))


def exp_integral(x: RealInterval, ctx: PrecisionContext) -> RealInterval:
    """Enclosure of E1(x) = int_x^inf e^-t / t dt; needs x.lo > 0.

    E1 is strictly decreasing, so the interval image is taken at endpoints.
    """
    if rd.sign(x.lo) <= 0:
        raise DomainError("exp_integral needs x > 0")
    return fn._monotone_hull(x, ctx, lambda v: _e1_point(v, ctx.prec + 16), decreasing=True)


def _two_over_sqrt_pi(ctx: PrecisionContext) -> RealInterval:
    return ctx.div(ctx.interval(2), ctx.sqrt(fn.pi(ctx)))


def _erfc_series_point(v: rd.MPF, out_prec: int) -> RealInterval:
    """1 - (2/sqrt(pi)) sum (-1)^k x^(2k+1)/(k! (2k+1)), alternating tail.

    The sum runs on the fixed-point kernel at w = out_prec + boost, from floor
    and ceil of x 2**w: p_k = p_{k-1} x^2/k, and term_k = p_k/(2k+1) shrinks
    once k > x^2.
    """
    xf = rd.to_float(v, rd.CEIL)
    boost = int(1.45 * xf * xf) + 48
    ctx = PrecisionContext(out_prec + boost)
    w = ctx.prec
    xl, xh = fn._fixed(v, w)
    steps = ((k, 2 * k + 1) for k in itertools.count(1))
    lo, hi = fn._fixed_series((xl, xh), (xl * xl, xh * xh), 2 * w, steps, min_terms=xf * xf)
    total = fn._from_fixed(lo, hi, w, ctx.prec)
    return ctx.sub(ctx.one(), ctx.mul(_two_over_sqrt_pi(ctx), total))


def _erfc_sandwich_point(v: rd.MPF, ctx: PrecisionContext) -> RealInterval:
    """(2/sqrt(pi)) e^(-x^2)/(x + sqrt(x^2 + 2)) <= erfc(x) <=
    (2/sqrt(pi)) e^(-x^2)/(x + sqrt(x^2 + 4/pi)) for x > 0."""
    x = RealInterval(v, v)
    x2 = ctx.sq(x)
    front = ctx.mul(_two_over_sqrt_pi(ctx), fn.exp(ctx.neg(x2), ctx))
    lo_den = ctx.add(x, ctx.sqrt(ctx.add(x2, ctx.interval(2))))
    hi_den = ctx.add(x, ctx.sqrt(ctx.add(x2, ctx.div(ctx.interval(4), fn.pi(ctx)))))
    lower = ctx.div(front, lo_den)
    upper = ctx.div(front, hi_den)
    return RealInterval(lower.lo, upper.hi)


def _erfc_point(v: rd.MPF, out_prec: int) -> RealInterval:
    if rd.cmp(v, _ERFC_SERIES_MAX) <= 0:
        return _erfc_series_point(v, out_prec)
    return _erfc_sandwich_point(v, PrecisionContext(out_prec + 16))


def erfc_enclosure(x: RealInterval, ctx: PrecisionContext) -> RealInterval:
    """Enclosure of erfc(x) = (2/sqrt(pi)) int_x^inf e^(-t^2) dt; x.lo >= 0."""
    if rd.sign(x.lo) < 0:
        raise DomainError("erfc_enclosure needs x >= 0")
    return fn._monotone_hull(x, ctx, lambda v: _erfc_point(v, ctx.prec + 16), decreasing=True)


# the largest m l_one_quadratic sums: its clamp _l1_terms grows as sqrt(Delta)
# and passes this near Delta = 2.1e5 at 128 bits (1.3e5 at 256), where the
# 3000 terms take about 7 s on a 2-core VM
_L1_TERMS_CAP = 3000


def _l1_terms(delta: int, prec: int) -> int:
    """ceil(sqrt((prec + 64) ln 2 Delta/pi)): from this m on e^(-A m^2) is at
    most 2^-(prec+64), so R_m is far below the working ulp."""
    return math.ceil(math.sqrt((prec + 64) * math.log(2) * delta / math.pi))


def l_one_quadratic(D: int, m: int, ctx: PrecisionContext) -> Enclosure:
    """Enclosure of L(1, chi_Delta) for the real quadratic field Q(sqrt(D)).

    At most ``_l1_terms(Delta, prec)`` of the m terms are summed: further
    terms cannot narrow the box.  ``params.m`` is the m used; DomainError if
    it passes _L1_TERMS_CAP.
    """
    if m < 1:
        raise DomainError("need at least one series term")
    chi = make_kronecker(D)
    delta = chi.modulus
    m = min(m, _l1_terms(delta, ctx.prec))
    if m > _L1_TERMS_CAP:
        raise DomainError(
            f"Delta={delta} would sum m = {m} terms, past the cap of {_L1_TERMS_CAP};"
            f" give at most {_L1_TERMS_CAP} terms for a wider box"
        )
    A = ctx.div(fn.pi(ctx), ctx.interval(delta))
    sqrt_delta = ctx.sqrt(ctx.interval(delta))
    sqrt_a = ctx.sqrt(A)

    sum_e = ctx.zero()
    sum_erfc = ctx.zero()
    for n in range(1, m + 1):
        s = chi.sign(n)
        if s == 0:
            continue
        e_term = exp_integral(ctx.mul(A, ctx.interval(n * n)), ctx)
        f_term = ctx.div(
            erfc_enclosure(ctx.mul(ctx.interval(n), sqrt_a), ctx), ctx.interval(n)
        )
        if s == 1:
            sum_e = ctx.add(sum_e, e_term)
            sum_erfc = ctx.add(sum_erfc, f_term)
        else:
            sum_e = ctx.sub(sum_e, e_term)
            sum_erfc = ctx.sub(sum_erfc, f_term)
    raw = ctx.add(ctx.div(sum_e, sqrt_delta), sum_erfc)

    # |R_m| < Delta^(3/2)/pi^2 * e^(-A m^2) / m^3, every factor outward
    damp = fn.exp(ctx.neg(ctx.mul(A, ctx.interval(m * m))), ctx)
    d32 = ctx.sqrt(ctx.pow_int(ctx.interval(delta), 3))
    bound = ctx.div(
        ctx.mul(d32, damp),
        ctx.mul(ctx.sq(fn.pi(ctx)), ctx.interval(m**3)),
    )
    return Enclosure.widened(raw, bound.hi, L1Params(m=m), ctx)


def _power_tail(
    N: int, c: int | Fraction, sigma: RealInterval, ctx: PrecisionContext
) -> tuple[RealInterval, RealInterval, RealInterval]:
    """T = N^(c-sigma)/(sigma-c) >= sum_{n>N} n^(c-1-sigma) at a point sigma > c,
    with the power N^(c-sigma) and log N that partial-summation bounds reuse."""
    c_iv = ctx.interval(c)
    log_n = fn.log(ctx.interval(N), ctx)
    power = fn.exp(ctx.mul(ctx.sub(c_iv, sigma), log_n), ctx)
    return ctx.div(power, ctx.sub(sigma, c_iv)), power, log_n


def _times_chi(
    chi: DirichletCharacter, n: int, e: int, z: ComplexBox, cache: dict[int, ComplexBox],
    ctx: PrecisionContext,
) -> ComplexBox:
    """chi(n) z for chi(n) = exp(2 pi i e/order), with enclosures of chi(n) cached by e.

    At a quarter turn ``char_value`` is the exact unit box, so the product is exact.
    """
    cv = cache.get(e)
    if cv is None:
        cv = cache[e] = char_value(chi, n, ctx)
    return ctx.cmul(cv, z)


def l_truncated(
    chi: DirichletCharacter, s: ComplexBox, N: int, ctx: PrecisionContext
) -> Enclosure:
    """First N terms of L(s, chi) plus a tail disc, for Re(s) > 1: the smaller
    of the trivial and, for nonprincipal chi mod q <= N, the Abel bound."""
    if N < 2:
        raise DomainError("need N >= 2")
    if rd.cmp(s.re.lo, rd.ONE) <= 0:
        raise DomainError("l_truncated requires Re(s) > 1")
    table = fn.neg_power_table(N, s, ctx)
    total = ctx.box(0)
    value_cache: dict[int, ComplexBox] = {}
    q = chi.modulus
    period: list[int | None] = []  # exponents on 1..min(q, N)
    for n in range(1, N + 1):
        e = chi.exponent(n)
        if n <= q:
            period.append(e)
        if e is not None:
            total = ctx.cadd(total, _times_chi(chi, n, e, table[n], value_cache, ctx))

    # |sum_{n>N} chi(n) n^-s| <= sum_{n>N} n^-sigma <= N^(1-sigma)/(sigma-1)
    sigma = RealInterval(s.re.lo, s.re.lo)
    trivial, power, _ = _power_tail(N, 1, sigma, ctx)
    radius = trivial.hi
    if q <= N and any(period):  # some exponent is nonzero: chi is nonprincipal
        # |A(t)| <= phi(q)/2, so the tail is at most phi(q)/2 N^-sigma (1 + |s|/sigma)
        units = sum(e is not None for e in period)
        abs_s = ctx.cabs_upper(s)
        abel = ctx.mul(
            ctx.mul(ctx.interval(Fraction(units, 2)), ctx.div(power, ctx.interval(N))),
            ctx.add(ctx.one(), ctx.div(RealInterval(abs_s, abs_s), sigma)),
        )
        if rd.cmp(abel.hi, radius) < 0:
            radius = abel.hi
    return Enclosure.widened(total, radius, {"N": N, "modulus": q}, ctx)
