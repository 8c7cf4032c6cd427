"""Validated zeta(s) on Re(s) >= 1, exact special values, and applications.

The workhorse is the Euler-Maclaurin split

    zeta(s) = S(N-1, s) + B(N, k, s) + remainder,

    S(N-1, s) = sum_{n<N} n**-s + N**(1-s)/(s-1),
    B(N, k, s) = N**-s / 2
               + sum_{j=1..k} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N**(-s-2j+1),

with the classical remainder bound

    |R| <= |(s+2k+1)/(sigma+2k+1)| * |first omitted Bernoulli term|.

S and B are evaluated in complex rectangular interval arithmetic and the
remainder bound, taken at its enclosure-maximizing endpoints, is added outward
to both components, so the reported box contains zeta(s) for every point s of
the input box.  Exact values at nonpositive integers and at even positive
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
    """A certified box, the parameters that produced it, and its error budget.

    ``value`` already includes the outward remainder widening; ``raw_value``
    is the bare truncation (used by the remainder-soundness tests).
    """

    value: ComplexBox
    params: object
    remainder_radius: rd.MPF
    raw_value: ComplexBox
    meets_target: bool | None = None

    def remainder_float(self) -> float:
        return rd.to_float(self.remainder_radius, rd.CEIL)


def _shifted(s: ComplexBox, i: int, ctx: PrecisionContext) -> ComplexBox:
    return ComplexBox(ctx.add(s.re, ctx.interval(i)), s.im)


def _scale_real(z: ComplexBox, c: RealInterval, ctx: PrecisionContext) -> ComplexBox:
    return ComplexBox(ctx.mul(z.re, c), ctx.mul(z.im, c))


def _check_domain(s: ComplexBox) -> None:
    if rd.cmp(s.re.lo, rd.ONE) < 0:
        raise DomainError("zeta_em requires Re(s) >= 1 over the whole box")
    if s.re.contains(1) and s.im.contains(0):
        raise PoleProximity("the box contains the pole at s = 1")


def _em_remainder(s: ComplexBox, N: int, k: int, ctx: PrecisionContext) -> rd.MPF:
    """Upper bound on the Euler-Maclaurin remainder at cut N with k corrections:

    |(s+2k+1)/(sigma+2k+1)| * |B_{2k+2}/(2k+2)! * prod(s+i) * N^(-s-2k-1)|.
    """
    p = ctx.prec
    coef_up = rd.from_fraction(abs(bernoulli(2 * k + 2)) / math.factorial(2 * k + 2), p, rd.CEIL)
    prod_up = rd.ONE
    for i in range(2 * k + 1):
        prod_up = rd.mul(prod_up, ctx.cabs_upper(_shifted(s, i, ctx)), p, rd.CEIL)
    sigma_lo = RealInterval(s.re.lo, s.re.lo)
    expo = ctx.neg(ctx.mul(ctx.add(sigma_lo, ctx.interval(2 * k + 1)), fn.log(ctx.interval(N), ctx)))
    npow_up = fn.exp(expo, ctx).hi
    ratio_up = rd.div(
        ctx.cabs_upper(_shifted(s, 2 * k + 1, ctx)),
        rd.add(s.re.lo, rd.from_int(2 * k + 1), p, rd.FLOOR),
        p,
        rd.CEIL,
    )
    return rd.mul(rd.mul(rd.mul(coef_up, prod_up, p, rd.CEIL), npow_up, p, rd.CEIL), ratio_up, p, rd.CEIL)


def zeta_em(s: ComplexBox, params: EMParams, ctx: PrecisionContext) -> Enclosure:
    """Euler-Maclaurin enclosure of zeta over the box s."""
    _check_domain(s)
    N, k = params.N, params.k
    radius = _em_remainder(s, N, k, ctx)  # first, so a k past the Bernoulli cap fails at once

    table = fn.NegPowerTable(N, s, ctx)
    partial = ctx.box(0)
    for n in range(1, N):
        partial = ctx.cadd(partial, table[n])
    n_pow = table[N]  # N**-s
    n_pow1 = _scale_real(n_pow, ctx.interval(N), ctx)  # N**(1-s)
    s_minus_1 = _shifted(s, -1, ctx)
    if not certify_nonzero(s_minus_1).is_certified:
        raise PoleProximity("s - 1 could not be certified nonzero")
    big_s = ctx.cadd(partial, ctx.cdiv(n_pow1, s_minus_1))

    big_b = _scale_real(n_pow, ctx.interval(Fraction(1, 2)), ctx)
    poly = s  # s(s+1)...(s+2j-2), starting at j = 1
    n_shift = _scale_real(n_pow, ctx.interval(Fraction(1, N)), ctx)  # N**(-s-2j+1)
    inv_n2 = ctx.interval(Fraction(1, N * N))
    for j in range(1, k + 1):
        coef = ctx.interval(bernoulli(2 * j) / math.factorial(2 * j))
        term = _scale_real(ctx.cmul(poly, n_shift), coef, ctx)
        big_b = ctx.cadd(big_b, term)
        if j < k:
            poly = ctx.cmul(poly, ctx.cmul(_shifted(s, 2 * j - 1, ctx), _shifted(s, 2 * j, ctx)))
            n_shift = _scale_real(n_shift, inv_n2, ctx)

    raw = ctx.cadd(big_s, big_b)
    return Enclosure(
        value=ctx.cwiden(raw, radius),
        params=params,
        remainder_radius=radius,
        raw_value=raw,
    )


# the finest target zeta_auto accepts is 2**-(prec + _TARGET_BITS_PAST_PREC)
_TARGET_BITS_PAST_PREC = 384


def zeta_auto(s: ComplexBox, target_width, ctx: PrecisionContext) -> Enclosure:
    """One zeta_em call with (N, k, precision) chosen to meet target_width.

    With 2**b about 4/target, k = ceil(b/3), and N starts near
    2(T + 2k + 3)/(3 pi), T >= |Im s|, so each factor |s+i|/(2 pi N) of the
    remainder is near 3/4 or below.  N doubles until four times the remainder
    bound is within the target, so the widening takes at most half of it; the
    sum runs at b + log2(N) + 32 bits, so its rounding stays far below the
    other half.  ``meets_target`` is False when the box is still wider, as
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
    while N <= fn._TABLE_CAP and rd.cmp(rd.mul_2exp(_em_remainder(s, N, k, ctx), 2), target_lo) > 0:
        N *= 2
    if N > fn._TABLE_CAP:
        raise DomainError(f"zeta_auto would need N = {N}, past the cap of {fn._TABLE_CAP}")
    wp = max(ctx.prec, b + N.bit_length() + 32)
    enc = zeta_em(s, EMParams(N, k), PrecisionContext(wp))
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
