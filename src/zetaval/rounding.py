"""Arbitrary-precision binary floats with directed rounding.

A scalar is a pair ``(man, exp)`` of Python integers meaning ``man * 2**exp``;
zero is canonically ``(0, 0)``.  Every operation takes an explicit precision
(significand bits) and rounding direction, so there is no ambient rounding
state anywhere.  ``FLOOR`` rounds toward -inf, ``CEIL`` toward +inf; these are
the only two directions the interval layer needs.

All routines are exact-then-round: the mathematically exact result is formed
in integer arithmetic (or bracketed by integer quotients / isqrt) and then
rounded onto the precision-``prec`` grid in the requested direction, so
``FLOOR`` results never exceed the true value and ``CEIL`` results never fall
below it.  Composing two roundings in the same direction preserves this.
"""

from __future__ import annotations

import math
from fractions import Fraction

MPF = tuple[int, int]

FLOOR = "floor"
CEIL = "ceil"

ZERO: MPF = (0, 0)
ONE: MPF = (1, 0)

# exponent-gap threshold beyond which a tiny addend is replaced by a sticky
# bound instead of an exact (and potentially enormous) shift
_STICKY_GUARD = 64


def normalize(man: int, exp: int) -> MPF:
    """Canonical form: strip trailing zero bits; zero is (0, 0)."""
    if man == 0:
        return ZERO
    tz = (man & -man).bit_length() - 1
    if tz:
        man >>= tz
        exp += tz
    return (man, exp)


def round_to(man: int, exp: int, prec: int, rnd: str) -> MPF:
    """Round man*2**exp onto the prec-bit grid in direction rnd."""
    if man == 0:
        return ZERO
    nb = man.bit_length()
    if nb <= prec:
        return normalize(man, exp)
    shift = nb - prec
    q, r = divmod(man, 1 << shift)
    if r and rnd == CEIL:
        q += 1
    return normalize(q, exp + shift)


def from_int(n: int) -> MPF:
    return normalize(n, 0)


def sign(x: MPF) -> int:
    m = x[0]
    return (m > 0) - (m < 0)


def neg(x: MPF) -> MPF:
    return (-x[0], x[1])


def abs_(x: MPF) -> MPF:
    return (abs(x[0]), x[1])


def cmp(x: MPF, y: MPF) -> int:
    """Exact three-way comparison of x and y."""
    mx, ex = x
    my, ey = y
    if mx == 0 or my == 0 or (mx > 0) != (my > 0):
        return (sign(x) > sign(y)) - (sign(x) < sign(y))
    # same sign, both nonzero: a higher msb decides, so the aligning shift
    # below is at most one mantissa length
    if ex != ey:
        d = ex + abs(mx).bit_length() - ey - abs(my).bit_length()
        if d:
            return 1 if (d > 0) == (mx > 0) else -1
    if ex >= ey:
        mx <<= ex - ey
    else:
        my <<= ey - ex
    return (mx > my) - (mx < my)


def _top(x: MPF) -> int:
    """Exponent of the most significant bit: 2**(_top-1) <= |x| < 2**_top."""
    return x[1] + abs(x[0]).bit_length()


def add(x: MPF, y: MPF, prec: int, rnd: str) -> MPF:
    mx, ex = x
    my, ey = y
    if mx == 0:
        return round_to(my, ey, prec, rnd)
    if my == 0:
        return round_to(mx, ex, prec, rnd)
    # keep x the operand with the higher msb
    tx, ty = _top(x), _top(y)
    if ty > tx:
        mx, ex, my, ey, tx, ty = my, ey, mx, ex, ty, tx
    if tx - ty > prec + _STICKY_GUARD:
        # |y| < ulp(x)/2**_STICKY_GUARD: replace y by a directed sticky bound
        es = tx - prec - _STICKY_GUARD // 2
        if rnd == CEIL:
            my, ey = (1, es) if my > 0 else (0, 0)
        else:
            my, ey = (0, 0) if my > 0 else (-1, es)
        if my == 0:
            return round_to(mx, ex, prec, rnd)
    e = min(ex, ey)
    m = (mx << (ex - e)) + (my << (ey - e))
    return round_to(m, e, prec, rnd)


def sub(x: MPF, y: MPF, prec: int, rnd: str) -> MPF:
    return add(x, neg(y), prec, rnd)


def mul(x: MPF, y: MPF, prec: int, rnd: str) -> MPF:
    return round_to(x[0] * y[0], x[1] + y[1], prec, rnd)


def mul_2exp(x: MPF, k: int) -> MPF:
    """Exact scaling by 2**k."""
    if x[0] == 0:
        return ZERO
    return (x[0], x[1] + k)


def div(x: MPF, y: MPF, prec: int, rnd: str) -> MPF:
    mx, ex = x
    my, ey = y
    if my == 0:
        raise ZeroDivisionError("bigfloat division by zero")
    if mx == 0:
        return ZERO
    if my < 0:
        mx, my = -mx, -my
    n = prec + 2 + my.bit_length() - abs(mx).bit_length()
    if n < 0:
        n = 0
    q, r = divmod(mx << n, my)
    if r and rnd == CEIL:
        q += 1
    return round_to(q, ex - ey - n, prec, rnd)


def sqrt(x: MPF, prec: int, rnd: str) -> MPF:
    m, e = x
    if m < 0:
        raise ValueError("bigfloat sqrt of negative value")
    if m == 0:
        return ZERO
    if e & 1:
        m <<= 1
        e -= 1
    k = 2 * (prec + 2) - m.bit_length()
    if k < 0:
        k = 0
    k += k & 1
    m <<= k
    r = math.isqrt(m)
    if rnd == CEIL and r * r != m:
        r += 1
    return round_to(r, (e - k) // 2, prec, rnd)


def from_fraction(fr: Fraction, prec: int, rnd: str) -> MPF:
    return div(from_int(fr.numerator), from_int(fr.denominator), prec, rnd)


def to_fraction(x: MPF) -> Fraction:
    m, e = x
    if e >= 0:
        return Fraction(m << e)
    return Fraction(m, 1 << -e)


def exact_int(x: MPF) -> int | None:
    """The exact integer value of x, or None if x is not an integer."""
    m, e = x
    if e >= 0:
        return m << e
    if m & ((1 << -e) - 1):
        return None
    return m >> -e


_MAX_DOUBLE = math.nextafter(math.inf, 0.0)


def to_float(x: MPF, rnd: str) -> float:
    """Directed conversion to an IEEE double (saturates at 0.0 or +-max)."""
    m, e = x
    if m == 0:
        return 0.0
    if _top(x) < -1080:
        # below the subnormal range: smallest step in the right direction
        if m > 0:
            return math.nextafter(0.0, 1.0) if rnd == CEIL else 0.0
        return 0.0 if rnd == CEIL else math.nextafter(0.0, -1.0)
    rm, re = round_to(m, e, 53, rnd)
    try:
        f = math.ldexp(rm, re)
    except OverflowError:
        f = math.inf if rm > 0 else -math.inf
    if math.isinf(f):
        if rm > 0:
            return math.inf if rnd == CEIL else _MAX_DOUBLE
        return -_MAX_DOUBLE if rnd == CEIL else -math.inf
    # ldexp re-rounds to nearest in the subnormal range; nudge if it overshot
    exact = to_fraction((rm, re))
    for _ in range(3):
        if Fraction(f) == exact:
            break
        if rnd == FLOOR and Fraction(f) > exact:
            f = math.nextafter(f, -math.inf)
        elif rnd == CEIL and Fraction(f) < exact:
            f = math.nextafter(f, math.inf)
        else:
            break
    return f


def _cmp_pow10(m: int, e: int, k: int) -> int:
    """Compare man*2**exp against 10**k (man > 0)."""
    # man*2**e ? 5**k * 2**k
    p5 = 5 ** k if k >= 0 else 1
    q5 = 1 if k >= 0 else 5 ** -k
    lhs = m * q5
    rhs = p5
    shift = e - k
    if shift >= 0:
        lhs <<= shift
    else:
        rhs <<= -shift
    return (lhs > rhs) - (lhs < rhs)


# decimal exponents beyond +-_DEC_EXPONENT_CAP print as a bare power of ten:
# the exact rendering costs time growing with the exponent (5**|E|)
_DEC_EXPONENT_CAP = 10_000
# a decimal exponent this large would not print (int to str stops at 4300
# digits; |Re s| near 1e40000 gets there), so such a bound becomes 0,
# infinity, or 1e+-_DEC_EXPONENT_FALLBACK, the end of Decimal's exponent range
_DEC_EXPONENT_UNPRINTABLE = 10**4000
_DEC_EXPONENT_FALLBACK = 10**18 - 1
# log10(2) lies strictly between _LOG10_2_LO and _LOG10_2_LO + 1, over 10**40
_LOG10_2_LO, _LOG10_2_DEN = 3010299956639811952137388947244930267681, 10**40


def _dec_exponent_bounds(b: int) -> tuple[int, int]:
    """(k, K) with 10**k <= 2**(b-1) and 2**b <= 10**K, from integer arithmetic only."""
    lo = min((b - 1) * _LOG10_2_LO, (b - 1) * (_LOG10_2_LO + 1)) // _LOG10_2_DEN
    hi = -(min(-b * _LOG10_2_LO, -b * (_LOG10_2_LO + 1)) // _LOG10_2_DEN)
    return lo, hi


def to_decimal(x: MPF, digits: int, rnd: str) -> str:
    """Directed decimal rendering with the given significant digit count.

    FLOOR output is <= x, CEIL output is >= x, as exact decimals.  Beyond a
    decimal exponent of +-_DEC_EXPONENT_CAP the output is the power of ten
    ``[-]1e+-K`` that bounds x in the requested direction; past
    _DEC_EXPONENT_UNPRINTABLE the bound is 0, inf or 1e+-_DEC_EXPONENT_FALLBACK.
    """
    m, e = x
    if m == 0:
        return "0"
    neg_sign = m < 0
    a = abs(m)
    k_lo, k_hi = _dec_exponent_bounds(e + a.bit_length())  # 10**k_lo <= |x| < 10**k_hi
    if max(-k_lo, k_hi) > _DEC_EXPONENT_CAP:
        toward_zero = (rnd == FLOOR) != neg_sign
        sign = "-" if neg_sign else ""
        k = k_lo if toward_zero else k_hi
        if abs(k) >= _DEC_EXPONENT_UNPRINTABLE:
            if toward_zero == (k < 0):
                return "0" if k < 0 else sign + "inf"
            k = _DEC_EXPONENT_FALLBACK if k > 0 else -_DEC_EXPONENT_FALLBACK
        return sign + f"1e{k:+d}"
    E = k_hi - 1  # k_hi - k_lo <= 2, so this steps down at most once
    while _cmp_pow10(a, e, E) < 0:
        E -= 1
    t = digits - 1 - E
    # signed scaled value m * 2**e * 10**t, rounded to an integer toward rnd
    num = m * (5 ** t if t >= 0 else 1)
    den = 5 ** -t if t < 0 else 1
    shift = e + t
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    q, r = divmod(num, den)
    if r and rnd == CEIL:
        q += 1
    mag = abs(q)
    if mag >= 10 ** digits:
        # carry rippled all the way up (e.g. 999... -> 1000...)
        mag //= 10
        E += 1
    s = str(mag).rjust(digits, "0")
    body = s[0] + ("." + s[1:] if digits > 1 else "")
    return ("-" if neg_sign else "") + f"{body}e{E:+03d}"
