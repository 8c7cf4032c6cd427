"""Real interval and complex rectangular arithmetic with outward rounding.

``RealInterval`` is a pair of directed-rounded bigfloat endpoints; every
operation returns an interval containing the exact set-image of its inputs
(lower endpoints rounded toward -inf, upper toward +inf).  ``ComplexBox``
applies the usual rectangle formulas componentwise.  All values are immutable;
every operation is a pure function of its operands and a ``PrecisionContext``,
so results are reproducible and safe to share across threads.

``mul``, ``div`` and ``sq`` dispatch on the endpoint signs, as Arb does: the
signs say which endpoint pair gives the extreme product or quotient, so each
side rounds that one candidate.  Only a ``mul`` with both operands straddling
zero compares two candidates per side.  The result is bit-identical to
rounding all four candidates and taking the min/max: FLOOR and CEIL are
monotone, so the rounded extreme is the extreme of the rounded values, and
``rd.round_to`` returns one canonical ``(man, exp)`` pair per value.  An
``int`` point skips the ``Fraction`` path and is rounded directly.

Nonzero certification follows the disjunctive reading of ``f(z) != 0``: a real
interval is certified by sign, a complex box by the sign of its real or
imaginary part, and an enclosure straddling zero is honestly ``UNCERTIFIED``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

from . import rounding as rd
from .errors import DivisionByZeroInterval, DomainError, UncertifiedDivisor

_Exact = int | Fraction | str | float | Decimal


def _as_fraction(v: _Exact) -> Fraction:
    if isinstance(v, str):
        return Fraction(Decimal(v))
    if isinstance(v, (Rational, Decimal, float)):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as an exact number")


def _mpf_min(first: rd.MPF, *rest: rd.MPF) -> rd.MPF:
    best = first
    for x in rest:
        if rd.cmp(x, best) < 0:
            best = x
    return best


def _mpf_max(first: rd.MPF, *rest: rd.MPF) -> rd.MPF:
    best = first
    for x in rest:
        if rd.cmp(x, best) > 0:
            best = x
    return best


@dataclass(frozen=True, slots=True)
class RealInterval:
    """Closed interval [lo, hi] with bigfloat endpoints, lo <= hi."""

    lo: rd.MPF
    hi: rd.MPF

    def __post_init__(self) -> None:
        if rd.cmp(self.lo, self.hi) > 0:
            raise ValueError("interval endpoints out of order")

    # -- inspection -------------------------------------------------------

    @property
    def lo_fraction(self) -> Fraction:
        return rd.to_fraction(self.lo)

    @property
    def hi_fraction(self) -> Fraction:
        return rd.to_fraction(self.hi)

    def to_floats(self) -> tuple[float, float]:
        """Outward double endpoints (still an enclosure)."""
        return rd.to_float(self.lo, rd.FLOOR), rd.to_float(self.hi, rd.CEIL)

    def width_fraction(self) -> Fraction:
        return self.hi_fraction - self.lo_fraction

    def width_float(self) -> float:
        w = rd.sub(self.hi, self.lo, 64, rd.CEIL)
        return rd.to_float(w, rd.CEIL)

    def contains(self, v: _Exact) -> bool:
        fv = _as_fraction(v)
        return self.lo_fraction <= fv <= self.hi_fraction

    def contains_interval(self, other: "RealInterval") -> bool:
        return rd.cmp(self.lo, other.lo) <= 0 and rd.cmp(other.hi, self.hi) <= 0

    def intersects(self, other: "RealInterval") -> bool:
        return rd.cmp(self.lo, other.hi) <= 0 and rd.cmp(other.lo, self.hi) <= 0

    def is_point(self) -> bool:
        return rd.cmp(self.lo, self.hi) == 0

    def strictly_positive(self) -> bool:
        return rd.sign(self.lo) > 0

    def strictly_negative(self) -> bool:
        return rd.sign(self.hi) < 0

    def contains_zero(self) -> bool:
        return rd.sign(self.lo) <= 0 <= rd.sign(self.hi)

    def to_decimal(self, digits: int) -> tuple[str, str]:
        """Decimal endpoint strings, lo rounded down and hi up."""
        return rd.to_decimal(self.lo, digits, rd.FLOOR), rd.to_decimal(self.hi, digits, rd.CEIL)

    def __repr__(self) -> str:
        lo, hi = self.to_floats()
        return f"RealInterval({lo!r}, {hi!r})"


@dataclass(frozen=True, slots=True)
class ComplexBox:
    """Axis-aligned rectangle re + i*im in the complex plane."""

    re: RealInterval
    im: RealInterval

    def contains_complex(self, re: _Exact, im: _Exact = 0) -> bool:
        return self.re.contains(re) and self.im.contains(im)

    def intersects(self, other: "ComplexBox") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)

    def max_width_float(self) -> float:
        return max(self.re.width_float(), self.im.width_float())

    def __repr__(self) -> str:
        return f"ComplexBox(re={self.re!r}, im={self.im!r})"


class CertifiedSign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    RE_POSITIVE = "re-positive"
    RE_NEGATIVE = "re-negative"
    IM_POSITIVE = "im-positive"
    IM_NEGATIVE = "im-negative"
    UNCERTIFIED = "uncertified"

    @property
    def is_certified(self) -> bool:
        return self is not CertifiedSign.UNCERTIFIED


def certify_nonzero(v: RealInterval | ComplexBox) -> CertifiedSign:
    """Which disjunct of the interval reading of ``v != 0`` holds, if any."""
    if isinstance(v, RealInterval):
        if v.strictly_positive():
            return CertifiedSign.POSITIVE
        if v.strictly_negative():
            return CertifiedSign.NEGATIVE
        return CertifiedSign.UNCERTIFIED
    if v.re.strictly_positive():
        return CertifiedSign.RE_POSITIVE
    if v.re.strictly_negative():
        return CertifiedSign.RE_NEGATIVE
    if v.im.strictly_positive():
        return CertifiedSign.IM_POSITIVE
    if v.im.strictly_negative():
        return CertifiedSign.IM_NEGATIVE
    return CertifiedSign.UNCERTIFIED


@dataclass(frozen=True)
class PrecisionContext:
    """Carrier of the working precision; all interval operations live here.

    Methods never mutate state: a context is just the endpoint precision in
    bits plus the operation set, so any number of threads may share one.
    """

    prec: int = 128

    def __post_init__(self) -> None:
        if self.prec < 53:
            raise ValueError("prec must be >= 53 bits")

    # -- construction -----------------------------------------------------

    def interval(self, lo: _Exact, hi: _Exact | None = None) -> RealInterval:
        """Enclosure of [lo, hi] (or the point lo), endpoints rounded outward."""
        if hi is None and type(lo) is int:
            return RealInterval(
                rd.round_to(lo, 0, self.prec, rd.FLOOR), rd.round_to(lo, 0, self.prec, rd.CEIL)
            )
        flo = _as_fraction(lo)
        fhi = flo if hi is None else _as_fraction(hi)
        if flo > fhi:
            raise ValueError("interval endpoints out of order")
        return RealInterval(
            rd.from_fraction(flo, self.prec, rd.FLOOR),
            rd.from_fraction(fhi, self.prec, rd.CEIL),
        )

    def zero(self) -> RealInterval:
        return RealInterval(rd.ZERO, rd.ZERO)

    def one(self) -> RealInterval:
        return RealInterval(rd.ONE, rd.ONE)

    def box(self, re: RealInterval | _Exact, im: RealInterval | _Exact = 0) -> ComplexBox:
        if not isinstance(re, RealInterval):
            re = self.interval(re)
        if not isinstance(im, RealInterval):
            im = self.interval(im)
        return ComplexBox(re, im)

    # -- real interval arithmetic ------------------------------------------

    def add(self, a: RealInterval, b: RealInterval) -> RealInterval:
        p = self.prec
        return RealInterval(rd.add(a.lo, b.lo, p, rd.FLOOR), rd.add(a.hi, b.hi, p, rd.CEIL))

    def sub(self, a: RealInterval, b: RealInterval) -> RealInterval:
        p = self.prec
        return RealInterval(rd.sub(a.lo, b.hi, p, rd.FLOOR), rd.sub(a.hi, b.lo, p, rd.CEIL))

    def neg(self, a: RealInterval) -> RealInterval:
        return RealInterval(rd.neg(a.hi), rd.neg(a.lo))

    def mul(self, a: RealInterval, b: RealInterval) -> RealInterval:
        p = self.prec
        if b.lo[0] < 0 < b.hi[0]:
            if a.lo[0] < 0 < a.hi[0]:
                # both straddle 0: lo is a negative cross product, hi a positive one
                return RealInterval(
                    _mpf_min(rd.mul(a.lo, b.hi, p, rd.FLOOR), rd.mul(a.hi, b.lo, p, rd.FLOOR)),
                    _mpf_max(rd.mul(a.lo, b.lo, p, rd.CEIL), rd.mul(a.hi, b.hi, p, rd.CEIL)),
                )
            a, b = b, a  # now b has a fixed sign
        if b.lo[0] >= 0:  # x*y grows with x
            lo = rd.mul(a.lo, b.hi if a.lo[0] < 0 else b.lo, p, rd.FLOOR)
            hi = rd.mul(a.hi, b.hi if a.hi[0] >= 0 else b.lo, p, rd.CEIL)
        else:  # b <= 0: x*y falls as x grows
            lo = rd.mul(a.hi, b.lo if a.hi[0] >= 0 else b.hi, p, rd.FLOOR)
            hi = rd.mul(a.lo, b.hi if a.lo[0] >= 0 else b.lo, p, rd.CEIL)
        return RealInterval(lo, hi)

    def div(self, a: RealInterval, b: RealInterval) -> RealInterval:
        if b.contains_zero():
            raise DivisionByZeroInterval("interval divisor contains zero")
        p = self.prec
        if b.lo[0] > 0:  # x/y grows with x
            lo = rd.div(a.lo, b.hi if a.lo[0] >= 0 else b.lo, p, rd.FLOOR)
            hi = rd.div(a.hi, b.lo if a.hi[0] >= 0 else b.hi, p, rd.CEIL)
        else:  # b < 0: x/y falls as x grows
            lo = rd.div(a.hi, b.hi if a.hi[0] >= 0 else b.lo, p, rd.FLOOR)
            hi = rd.div(a.lo, b.lo if a.lo[0] >= 0 else b.hi, p, rd.CEIL)
        return RealInterval(lo, hi)

    def sq(self, a: RealInterval) -> RealInterval:
        """a*a with the dependency handled: image of x**2 over x in a."""
        p = self.prec
        if a.lo[0] >= 0:
            return RealInterval(rd.mul(a.lo, a.lo, p, rd.FLOOR), rd.mul(a.hi, a.hi, p, rd.CEIL))
        if a.hi[0] <= 0:
            return RealInterval(rd.mul(a.hi, a.hi, p, rd.FLOOR), rd.mul(a.lo, a.lo, p, rd.CEIL))
        return RealInterval(
            rd.ZERO, _mpf_max(rd.mul(a.lo, a.lo, p, rd.CEIL), rd.mul(a.hi, a.hi, p, rd.CEIL))
        )

    def pow_int(self, a: RealInterval, n: int) -> RealInterval:
        """Image of x**n over x in a; negative n via 1/a**(-n)."""
        if n < 0:
            return self.div(self.one(), self.pow_int(a, -n))
        if n == 0:
            return self.one()
        if n == 1:
            return a
        if n % 2 == 0:
            half = self.pow_int(a, n // 2)
            return self.sq(half)
        return self.mul(a, self.pow_int(a, n - 1))

    def abs(self, a: RealInterval) -> RealInterval:
        if rd.sign(a.lo) >= 0:
            return a
        if rd.sign(a.hi) <= 0:
            return self.neg(a)
        hi = _mpf_max(rd.neg(a.lo), a.hi)
        return RealInterval(rd.ZERO, hi)

    def sqrt(self, a: RealInterval) -> RealInterval:
        if rd.sign(a.lo) < 0:
            raise DomainError("sqrt needs a nonnegative interval")
        p = self.prec
        return RealInterval(rd.sqrt(a.lo, p, rd.FLOOR), rd.sqrt(a.hi, p, rd.CEIL))

    def hull(self, a: RealInterval, b: RealInterval) -> RealInterval:
        lo = a.lo if rd.cmp(a.lo, b.lo) <= 0 else b.lo
        hi = a.hi if rd.cmp(a.hi, b.hi) >= 0 else b.hi
        return RealInterval(lo, hi)

    def widen(self, a: RealInterval, radius: rd.MPF) -> RealInterval:
        """Add an outward margin of the given nonnegative scalar radius."""
        if rd.sign(radius) < 0:
            raise ValueError("widening radius must be nonnegative")
        p = self.prec
        return RealInterval(
            rd.sub(a.lo, radius, p, rd.FLOOR),
            rd.add(a.hi, radius, p, rd.CEIL),
        )

    def scale_2exp(self, a: RealInterval, k: int) -> RealInterval:
        return RealInterval(rd.mul_2exp(a.lo, k), rd.mul_2exp(a.hi, k))

    # -- complex rectangle arithmetic ---------------------------------------

    def cadd(self, a: ComplexBox, b: ComplexBox) -> ComplexBox:
        return ComplexBox(self.add(a.re, b.re), self.add(a.im, b.im))

    def csub(self, a: ComplexBox, b: ComplexBox) -> ComplexBox:
        return ComplexBox(self.sub(a.re, b.re), self.sub(a.im, b.im))

    def cneg(self, a: ComplexBox) -> ComplexBox:
        return ComplexBox(self.neg(a.re), self.neg(a.im))

    def cmul(self, a: ComplexBox, b: ComplexBox) -> ComplexBox:
        re = self.sub(self.mul(a.re, b.re), self.mul(a.im, b.im))
        im = self.add(self.mul(a.re, b.im), self.mul(a.im, b.re))
        return ComplexBox(re, im)

    def cdiv(self, a: ComplexBox, b: ComplexBox) -> ComplexBox:
        if not certify_nonzero(b).is_certified:
            raise UncertifiedDivisor("complex divisor box may contain zero")
        den = self.add(self.sq(b.re), self.sq(b.im))
        re = self.div(self.add(self.mul(a.re, b.re), self.mul(a.im, b.im)), den)
        im = self.div(self.sub(self.mul(a.im, b.re), self.mul(a.re, b.im)), den)
        return ComplexBox(re, im)

    def cwiden(self, a: ComplexBox, radius: rd.MPF) -> ComplexBox:
        return ComplexBox(self.widen(a.re, radius), self.widen(a.im, radius))

    def cabs_upper(self, a: ComplexBox) -> rd.MPF:
        """Scalar upper bound for |z| over the box."""
        p = self.prec
        mre = _mpf_max(rd.abs_(a.re.lo), rd.abs_(a.re.hi))
        mim = _mpf_max(rd.abs_(a.im.lo), rd.abs_(a.im.hi))
        s = rd.add(rd.mul(mre, mre, p, rd.CEIL), rd.mul(mim, mim, p, rd.CEIL), p, rd.CEIL)
        return rd.sqrt(s, p, rd.CEIL)

    def cabs_sq(self, a: ComplexBox) -> RealInterval:
        """Interval enclosure of |z|**2 over the box."""
        return self.add(self.sq(a.re), self.sq(a.im))
