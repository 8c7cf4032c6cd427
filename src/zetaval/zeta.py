"""Validated zeta(s) on Re(s) >= 1, exact special values, and applications.

The workhorse is the Euler-Maclaurin split

    zeta(s) = S(N-1, s) + B(N, k, s) + remainder,

    S(N-1, s) = sum_{n<N} n**-s + N**(1-s)/(s-1),
    B(N, k, s) = N**-s / 2
               + sum_{j=1..k} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N**(-s-2j+1),

with the classical remainder bound

    |R| <= |(s+2k+1)/(sigma+2k+1)| * |first omitted Bernoulli term|
         = F(s, k) * N**(-sigma-2k-1),
    F(s, k) = |B_{2k+2}|/(2k+2)! * prod_{i<=2k+1} |s+i| / (sigma+2k+1).

S and B are evaluated in complex rectangular interval arithmetic.  B is
summed by Horner's rule, one complex product per Bernoulli term:

    B(N, k, s) = N**-s * (1/2 + s * acc / N),
    acc = c_1 + q_1 (c_2 + q_2 (... + q_{k-1} c_k)),
    c_j = B_{2j}/(2j)!,  q_j = (s**2 + (4j-1) s + (2j-1) 2j) / N**2.

The remainder bound is an upper bound in 64-bit directed arithmetic, whatever
the working precision: it is only added outward, so its relative slack of
about 2**-60 moves no enclosure that matters.  F takes sigma_hi in the
numerator and sigma_lo in the denominator (Re(s) >= 1, so
|s+i| <= sqrt((sigma_hi+i)**2 + T**2) with T >= |Im s|), and its product is
one square root.  ``zeta_auto`` computes F once and tries each N at the cost
of one 64-bit exp for N**-sigma_lo times the exact N**-(2k+1); no log or exp
runs at the working precision.  The bound is added outward to both
components, so the reported box contains zeta(s) for every point s of the
input box.  Exact values at nonpositive integers and at even positive
integers come from the Bernoulli closed forms and are returned as rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import functions as fn
from . import rounding as rd
from .exact import bernoulli
from .errors import DomainError, PoleProximity
from .interval import ComplexBox, PrecisionContext, RealInterval, _as_fraction, certify_nonzero


@dataclass(frozen=True)
class EMParams:
    """Cut point N >= 2 and Bernoulli correction count k >= 1."""

    N: int = 32
    k: int = 6

    def __post_init__(self) -> None:
        if self.N < 2 or self.k < 1:
            raise DomainError("EMParams needs N >= 2 and k >= 1")


@dataclass(frozen=True, slots=True)
class Enclosure:
    """A certified box, the parameters and precision that produced it, and its
    error budget.

    ``value`` already includes the outward remainder widening by
    ``remainder_radius`` (upward only in direct-mode Dedekind zeta, whose
    omitted terms are >= 0).  ``prec`` is the working precision of the sum,
    which ``zeta_auto`` chooses itself.
    """

    value: ComplexBox
    params: object
    remainder_radius: rd.MPF
    prec: int
    meets_target: bool | None = None

    @classmethod
    def widened(cls, raw: ComplexBox | RealInterval, radius: rd.MPF, params: object,
                ctx: PrecisionContext) -> "Enclosure":
        """``raw`` widened outward by ``radius`` at ``ctx.prec``; a real ``raw``
        gets the imaginary part [0, 0].  Widening by zero is exact."""
        if isinstance(raw, RealInterval):
            return cls(ComplexBox(ctx.widen(raw, radius), ctx.zero()), params, radius, ctx.prec)
        return cls(ctx.cwiden(raw, radius), params, radius, ctx.prec)

    def remainder_float(self) -> float:
        return rd.to_float(self.remainder_radius, rd.CEIL)


def _shifted(s: ComplexBox, i: int, ctx: PrecisionContext) -> ComplexBox:
    return ComplexBox(ctx.add(s.re, ctx.interval(i)), s.im)


def _scale_real(z: ComplexBox, c: RealInterval, ctx: PrecisionContext) -> ComplexBox:
    return ComplexBox(ctx.mul(z.re, c), ctx.mul(z.im, c))


def _plus_real(z: ComplexBox, c: RealInterval, ctx: PrecisionContext) -> ComplexBox:
    return ComplexBox(ctx.add(z.re, c), z.im)


def _check_domain(s: ComplexBox) -> None:
    if rd.cmp(s.re.lo, rd.ONE) < 0:
        raise DomainError("zeta_em requires Re(s) >= 1 over the whole box")
    if s.re.contains(1) and s.im.contains(0):
        raise PoleProximity("the box contains the pole at s = 1")


# the remainder bound is rounded up at _BOUND_PREC bits whatever the working
# precision; the 2k+2 factors of F's product run at twice that, and log N
# with exp's 32 guard bits, so their roundings stay far below the final ones
_BOUND_PREC = 64
_BOUND_CTX = PrecisionContext(_BOUND_PREC)
_LOG_CTX = PrecisionContext(_BOUND_PREC + fn._GUARD)


def _em_factor(s: ComplexBox, k: int) -> rd.MPF:
    """Upper bound on F(s, k) = |B_{2k+2}|/(2k+2)! * prod_{i<=2k+1} |s+i| / (sigma_lo+2k+1)
    over the box: one square root of prod ((sigma_hi+i)**2 + T**2), T >= |Im s|."""
    p, wide = _BOUND_PREC, 2 * _BOUND_PREC
    coef = rd.from_fraction(abs(bernoulli(2 * k + 2)) / math.factorial(2 * k + 2), p, rd.CEIL)
    t = fn._magnitude(s.im)
    t2 = rd.mul(t, t, wide, rd.CEIL)
    prod = rd.ONE
    for i in range(2 * k + 2):
        a = rd.add(s.re.hi, rd.from_int(i), wide, rd.CEIL)
        prod = rd.mul(prod, rd.add(rd.mul(a, a, wide, rd.CEIL), t2, wide, rd.CEIL), wide, rd.CEIL)
    den = rd.add(s.re.lo, rd.from_int(2 * k + 1), p, rd.FLOOR)
    return rd.div(rd.mul(coef, rd.sqrt(prod, p, rd.CEIL), p, rd.CEIL), den, p, rd.CEIL)


def _em_bound(factor: rd.MPF, s: ComplexBox, N: int, k: int) -> rd.MPF:
    """Upper bound on the remainder at cut N: F(s, k) * N**-sigma_lo * N**-(2k+1).

    N**-sigma_lo <= exp(-sigma_lo * L) for a lower bound L on log N, one exp
    at _BOUND_PREC bits; N**-(2k+1) is exact.
    """
    p = _BOUND_PREC
    log_lo = fn._log_point(rd.from_int(N), _LOG_CTX).lo
    x = rd.neg(rd.mul(s.re.lo, log_lo, _LOG_CTX.prec, rd.FLOOR))
    npow = fn.exp(RealInterval(x, x), _BOUND_CTX).hi
    return rd.div(rd.mul(factor, npow, p, rd.CEIL), rd.from_int(N ** (2 * k + 1)), p, rd.CEIL)


def _em_enclosure(
    s: ComplexBox, params: EMParams, radius: rd.MPF, ctx: PrecisionContext
) -> Enclosure:
    """S(N-1, s) + B(N, k, s), widened by the remainder bound ``radius``; a
    zero ``radius`` leaves the truncated sum itself, since widening by zero is
    exact."""
    N, k = params.N, params.k
    table = fn.neg_power_table(N, s, ctx)
    partial = ctx.box(0)
    for n in range(1, N):
        partial = ctx.cadd(partial, table[n])
    n_pow = table[N]  # N**-s
    n_pow1 = _scale_real(n_pow, ctx.interval(N), ctx)  # N**(1-s)
    s_minus_1 = _shifted(s, -1, ctx)
    if not certify_nonzero(s_minus_1).is_certified:
        raise PoleProximity("s - 1 could not be certified nonzero")
    big_s = ctx.cadd(partial, ctx.cdiv(n_pow1, s_minus_1))
    raw = ctx.cadd(big_s, _em_correction(s, N, k, n_pow, ctx))
    return Enclosure.widened(raw, radius, params, ctx)


def _bernoulli_coef(j: int, ctx: PrecisionContext) -> RealInterval:
    """c_j = B_2j/(2j)!"""
    return ctx.interval(bernoulli(2 * j) / math.factorial(2 * j))


def _em_correction(
    s: ComplexBox, N: int, k: int, n_pow: ComplexBox, ctx: PrecisionContext
) -> ComplexBox:
    """B(N, k, s) = N**-s (1/2 + s acc/N) by Horner's rule, n_pow = N**-s:
    acc = c_k, then acc = c_j + q_j acc for j = k-1, ..., 1."""
    inv_n2 = ctx.interval(Fraction(1, N * N))
    s_n2 = _scale_real(s, inv_n2, ctx)
    sq = ComplexBox(ctx.sub(ctx.sq(s.re), ctx.sq(s.im)), ctx.scale_2exp(ctx.mul(s.re, s.im), 1))
    sq_n2 = _scale_real(sq, inv_n2, ctx)
    acc = ctx.box(_bernoulli_coef(k, ctx))
    for j in range(k - 1, 0, -1):
        # q_j = (s**2 + (4j-1) s + (2j-1) 2j)/N**2
        q = ctx.cadd(sq_n2, _scale_real(s_n2, ctx.interval(4 * j - 1), ctx))
        q = _plus_real(q, ctx.interval(Fraction((2 * j - 1) * 2 * j, N * N)), ctx)
        acc = _plus_real(ctx.cmul(q, acc), _bernoulli_coef(j, ctx), ctx)
    inner = _scale_real(ctx.cmul(s, acc), ctx.interval(Fraction(1, N)), ctx)
    return ctx.cmul(n_pow, _plus_real(inner, ctx.interval(Fraction(1, 2)), ctx))


def em_k_past_best(s: ComplexBox, params: EMParams, prec: int) -> bool:
    """True when k is past the best for N at s: the k-th Bernoulli correction
    widens zeta_em's remainder bound, and that bound is at least 2**-prec.
    bound(k) / bound(k-1) = F(s, k) / (N**2 F(s, k-1)), as the N**-sigma
    factor is shared; k = 1 has no k - 1 and is never past."""
    _check_domain(s)
    N, k = params.N, params.k
    if k == 1:
        return False
    factor = _em_factor(s, k)
    if rd.cmp(_em_bound(factor, s, N, k), rd.mul_2exp(rd.ONE, -prec)) < 0:
        return False
    widened = rd.mul(rd.from_int(N * N), _em_factor(s, k - 1), _BOUND_PREC, rd.FLOOR)
    return rd.cmp(factor, widened) >= 0


def zeta_em(s: ComplexBox, params: EMParams, ctx: PrecisionContext) -> Enclosure:
    """Euler-Maclaurin enclosure of zeta over the box s."""
    _check_domain(s)
    # the bound first, so a k past the Bernoulli cap fails before any sum
    radius = _em_bound(_em_factor(s, params.k), s, params.N, params.k)
    return _em_enclosure(s, params, radius, ctx)


# the finest target zeta_auto accepts is 2**-(prec + _TARGET_BITS_PAST_PREC)
_TARGET_BITS_PAST_PREC = 384


def zeta_auto(s: ComplexBox, target_width, ctx: PrecisionContext) -> Enclosure:
    """One Euler-Maclaurin sum with (N, k, precision) chosen to meet target_width.

    With 2**b about 4/target, k = ceil(b/3), and N starts near
    2(T + 2k + 3)/(3 pi), T >= |Im s|, so each factor |s+i|/(2 pi N) of the
    remainder is near 3/4 or below.  The N-free factor of the remainder bound
    is computed once; N doubles until four times the bound is within the
    target, so the widening takes at most half of it; the sum runs at
    b + log2(N) + 32 bits, so its rounding stays far below the other half.
    ``meets_target`` is False when the box is still wider, as
    when the input box alone is; it is still a certified enclosure.  After
    the domain check, DomainError comes up front for a target that is not
    positive or below 2**-(prec + 384), and for an N past the table cap.
    """
    _check_domain(s)
    target = _as_fraction(target_width)
    if target <= 0:
        raise DomainError("zeta_auto needs a positive target width")
    bits = ctx.prec + _TARGET_BITS_PAST_PREC
    if target < Fraction(1, 2**bits):
        raise DomainError(f"zeta_auto cannot reach a target width below 2**-{bits}")
    b = target.denominator.bit_length() - target.numerator.bit_length() + 2
    k = max(1, -(-b // 3))
    T = math.ceil(rd.to_fraction(ctx.abs(s.im).hi))
    N = max(2, math.ceil(2 * (T + 2 * k + 3) / (3 * Fraction(355, 113))))  # 355/113 ~ pi
    target_lo = rd.from_fraction(target, ctx.prec, rd.FLOOR)
    factor = _em_factor(s, k)
    while N <= fn._TABLE_CAP:
        radius = _em_bound(factor, s, N, k)
        if rd.cmp(rd.mul_2exp(radius, 2), target_lo) <= 0:
            break
        N *= 2
    else:
        raise DomainError(f"zeta_auto would need N = {N}, past the cap of {fn._TABLE_CAP}")
    wp = max(ctx.prec, b + N.bit_length() + 32)
    enc = _em_enclosure(s, EMParams(N, k), radius, PrecisionContext(wp))
    widths = (rd.sub(c.hi, c.lo, wp, rd.CEIL) for c in (enc.value.re, enc.value.im))
    return replace(enc, meets_target=all(rd.cmp(w, target_lo) <= 0 for w in widths))


@dataclass(frozen=True)
class ZetaEvenValue:
    """zeta(2n) = coefficient * pi**(2n), with the coefficient exact."""

    n: int
    coefficient: Fraction

    @property
    def pi_power(self) -> int:
        return 2 * self.n

    def enclosure(self, ctx: PrecisionContext) -> RealInterval:
        return ctx.mul(ctx.interval(self.coefficient), ctx.pow_int(fn.pi(ctx), self.pi_power))


def zeta_even(n: int) -> ZetaEvenValue:
    """Euler's closed form zeta(2n) = (2 pi)^(2n) (-1)^(n+1) B_{2n} / (2 (2n)!)."""
    if n < 1:
        raise DomainError("zeta_even needs n >= 1")
    coef = (
        Fraction(2 ** (2 * n) * (-1) ** (n + 1), 2 * math.factorial(2 * n))
        * bernoulli(2 * n)
    )
    return ZetaEvenValue(n=n, coefficient=coef)


def zeta_neg(a: int) -> Fraction:
    """Exact zeta at an integer a <= 0.

    zeta(0) = -1/2 (the even closed form at n = 0), zeta(-2n) = 0 for n >= 1,
    and zeta(1-2m) = -B_{2m}/(2m).
    """
    if a > 0:
        raise DomainError("zeta_neg handles only arguments <= 0")
    if a == 0:
        return Fraction(-1, 2)
    if a % 2 == 0:
        return Fraction(0)
    m = (1 - a) // 2
    return -bernoulli(2 * m) / (2 * m)


def moduli_volume(g: int, ctx: PrecisionContext) -> tuple[Fraction, RealInterval]:
    """Symplectic volume of the rank-2 degree-1 bundle moduli space, genus g.

    (1 - 2**(3-2g)) * zeta(2g-2) / (2**(g-2) pi**(2g-2)); the pi powers cancel
    against the even zeta value, leaving an exact rational.
    """
    if g < 2:
        raise DomainError("genus must be >= 2")
    r = zeta_even(g - 1).coefficient
    vol = (1 - Fraction(1, 2 ** (2 * g - 3))) * r / 2 ** (g - 2)
    return vol, ctx.interval(vol)


def functional_eq_check(m: int) -> bool:
    """Exact check of the functional equation at s = 1 - 2m.

    Both sides reduce to rationals: the left side is zeta(1-2m) and the right
    side is (2m-1)! * (2 pi)**(-2m) * 2 * sin((1-2m) pi/2) * zeta(2m), whose
    pi powers cancel and whose sine is exactly (-1)**m.
    """
    if m < 1:
        raise DomainError("need m >= 1")
    lhs = zeta_neg(1 - 2 * m)
    r = zeta_even(m).coefficient
    rhs = math.factorial(2 * m - 1) * Fraction(2, 2 ** (2 * m)) * (-1) ** m * r
    return lhs == rhs
