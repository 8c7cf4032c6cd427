"""Validated enclosures of elementary functions and fundamental constants.

Everything here is built from the interval ring operations plus explicit
truncation-error bounds, so the enclosures are rigorous end to end.

Every truncated series but exp's runs on one fixed-point kernel,
``_fixed_series``.  The point series of pi, ln2, atan, sin/cos, log and (in
``dirichlet``) E1 and erfc take their argument as an exact dyadic X 2**-w, an
exact rational such as 1/q on that grid, or a floor/ceil pair of it: every
term is a pair of Python integers [l, h] at the scale 2**-w, the lower end
rounded down and the upper end up, so containment follows from the rounding
directions alone; one ``RealInterval`` is formed at the end.  The kernel stops
at a term of at most one unit of 2**-w and adds one of two tails:

* alternating: between 0 and the first omitted term, valid once the terms
  decrease in magnitude (the caller's ``min_terms`` says from where), by
  Leibniz;
* geometric: between 0 and the first omitted term times c, with
  c >= 1/(1 - q) for a term ratio q (9/8 for ln2, 33/32 for log); the terms
  are positive, so only the upper end widens.

exp keeps its own loop over ``RealInterval`` terms, stopped below
2**-(prec+8) and widened by the ratio tail |last term| / (n+1) after n terms,
its Taylor remainder for |r| <= 1/2.  It moves to the kernel once the
benchmark checks a fixed number of cycles: today a faster exp makes the
benchmark keep and check more outputs, which reads as more memory.

The series:

* ``pi``/``ln2``: Machin's 16 atan(1/5) - 4 atan(1/239) and 2 atanh(1/3),
  from floor and ceil of 2**w/q.
* ``exp``: argument halved until |r| <= 1/2, Taylor series, then repeated
  interval squaring.  A point or a box of radius r < 2**-(prec/2) is evaluated
  once, at its midpoint m, as [e**m (1 - r), e**m (1 + r + r**2)]; wider
  boxes are evaluated at both ends.
* ``log``: mantissa reduction to u in [~0.70, ~1.42), atanh series in the
  exact rational z = (u-1)/(u+1), plus n*ln2.
* ``sin``/``cos``: reduction v = k pi/2 + r with k an exact integer and pi
  enclosed log2|v| bits past the working precision, alternating Taylor series
  for |r| < 0.8 at a point next to mid(r), widened by a Lipschitz bound over
  r.  One point evaluation yields both sin and cos, so ``sin_cos`` encloses
  both over a point or a box of radius r < 2**-(prec/2) from one evaluation at
  its midpoint m, as f(m) +- (r |f'(m)| + r**2/2 |f''|); a wider box hulls its
  two end values with +-1 at each multiple of pi/2 it may contain.  ``sin``
  and ``cos`` take one half of it, ``cexp`` all of it.
* ``atan``: reflection atan v = pi/2 - atan(1/v) for v > 1, halving transform
  t = x/(1+sqrt(1+x^2)) until x <= 1/4, then the alternating Maclaurin series
  from floor and ceil of x 2**w.
* ``euler_gamma``: no series; 50 truncated decimal digits as an exact
  rational bracket, widened one ulp outward per side.

Every function evaluates internally with guard bits and rounds outward into
the caller's working precision, so point arguments come back with widths of a
few ulp.  Constants are derived from cached high-precision references computed
at quantized precision levels; requests at or below the same level therefore
nest under refinement.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable
from fractions import Fraction

from . import rounding as rd
from .errors import DomainError
from .interval import ComplexBox, PrecisionContext, RealInterval

_GUARD = 32
_REF_STEP = 512
# bits kept below the top of a fixed-point series' value (see _fixed_series)
_FIXED_GUARD = 16

# truncated (not rounded) leading decimals of the Euler-Mascheroni constant,
# so gamma lies in [digits, digits + 10**-50]
_GAMMA_DIGITS = "0.57721566490153286060651209008240243104215933593992"

_ref_cache: dict[tuple[str, int], RealInterval] = {}


def _ref_level(prec: int) -> int:
    return _REF_STEP * ((prec + 128 + _REF_STEP - 1) // _REF_STEP)


def _final(ctx: PrecisionContext, x: RealInterval) -> RealInterval:
    """Outward round an internally computed interval to the caller precision."""
    p = ctx.prec
    return RealInterval(
        rd.round_to(x.lo[0], x.lo[1], p, rd.FLOOR),
        rd.round_to(x.hi[0], x.hi[1], p, rd.CEIL),
    )


def _monotone_hull(
    x: RealInterval, ctx: PrecisionContext, point: Callable[[rd.MPF], RealInterval],
    decreasing: bool = False,
) -> RealInterval:
    """Image of x under a monotone function from its point enclosures at the ends.

    ``point`` runs at x.lo, then at x.hi unless x is a point; the hull of the
    two is rounded outward to the caller precision.
    """
    at_lo = point(x.lo)
    at_hi = at_lo if x.is_point() else point(x.hi)
    if decreasing:
        at_lo, at_hi = at_hi, at_lo
    return _final(ctx, RealInterval(at_lo.lo, at_hi.hi))


def _mid_rad(x: RealInterval, prec: int) -> tuple[rd.MPF, rd.MPF]:
    """Midpoint m of x and a radius r >= max |y - m| over y in x, for a ball model.

    m is the exact dyadic midpoint whenever it fits in prec bits, else rounded
    down onto that grid; either way m <= mid(x), so hi - m, rounded up to
    prec bits, bounds the distance from m to every point of x.
    """
    m = rd.mul_2exp(rd.add(x.lo, x.hi, prec, rd.FLOOR), -1)
    return m, rd.sub(x.hi, m, prec, rd.CEIL)


def _narrow(r: rd.MPF, ctx: PrecisionContext) -> bool:
    """True for a radius below 2**-(prec/2), zero included: one point evaluation suffices."""
    return _term_small(r, -(ctx.prec // 2))


def _magnitude(t: RealInterval) -> rd.MPF:
    """Upper bound for |x| over x in t: the larger of |lo| and |hi|."""
    a, b = rd.abs_(t.lo), rd.abs_(t.hi)
    return a if rd.cmp(a, b) >= 0 else b


def _term_small(mag: rd.MPF, cut_exp: int) -> bool:
    """True once a term of magnitude at most mag is below 2**cut_exp."""
    return mag[0] == 0 or rd._top(mag) <= cut_exp


def _fixed(x: rd.MPF, w: int) -> tuple[int, int]:
    """floor(x 2**w) and ceil(x 2**w): x on the fixed-point grid of step 2**-w."""
    m, e = x
    s = e + w
    if s >= 0:
        return m << s, m << s
    return m >> -s, -(-m >> -s)


def _from_fixed(lo: int, hi: int, w: int, prec: int) -> RealInterval:
    """[lo 2**-w, hi 2**-w] rounded outward to prec bits."""
    return RealInterval(rd.round_to(lo, -w, prec, rd.FLOOR), rd.round_to(hi, -w, prec, rd.CEIL))


def _fixed_series(
    lead: tuple[int, int],
    y: tuple[int, int],
    shift: int,
    steps: Iterable[tuple[int, int]],
    *,
    min_terms: float = 0,
    geometric: Fraction | None = None,
) -> tuple[int, int]:
    """Sum t_0 - t_1 + t_2 - ... (t_0 + t_1 + ... with geometric) on integers at a scale 2**-w.

    Every term is a nonnegative t_j = p_j / e_j, with p_0 = t_0 and
    p_j = p_{j-1} u / d_j for the j-th pair (d_j, e_j) of steps; ``lead``
    brackets t_0 2**w and ``y`` brackets u 2**shift, each as a pair (l, h) of
    nonnegative integers.  Each p_j and t_j is carried as integers
    l <= 2**w t_j <= h, the lower end by floor shifts and divisions and the
    upper end by ceiling ones, so the sum of the brackets contains the sum of
    the terms; no error is counted.  The sum stops at the first term with
    h <= 1 (at most one unit of 2**-w) once more than min_terms terms are in,
    and adds the tail:

    * alternating (default): between 0 and the first omitted term (Leibniz),
      valid once the terms decrease in magnitude, which min_terms must ensure;
    * geometric = c: the terms are all added, and the tail lies between 0 and
      the first omitted term times c, for a term ratio q with 1/(1 - q) <= c.

    Returns (lo, hi) with lo 2**-w <= sum <= hi 2**-w.
    """
    lo, hi = pl, ph = lead
    yl, yh = y
    alternating = geometric is None
    n = 1
    for d, e in steps:
        pl = (pl * yl >> shift) // d
        ph = -((-ph * yh >> shift) // d)
        tl, th = (pl // e, -(-ph // e)) if e > 1 else (pl, ph)
        if th <= 1 and n > min_terms:
            break
        if alternating and n & 1:
            lo, hi = lo - th, hi - tl
        else:
            lo, hi = lo + tl, hi + th
        n += 1
    if not alternating:
        return lo, hi - (-th * geometric.numerator // geometric.denominator)
    if n & 1:
        return lo - th, hi
    return lo, hi + th


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _atan_inv_int(q: int, ctx: PrecisionContext) -> RealInterval:
    """Enclosure of atan(1/q) for integer q >= 2: sum_j (-1)**j / ((2j+1) q**(2j+1)).

    The alternating series runs on the fixed-point kernel at w = prec + 16
    bits below the top of 1/q, from floor and ceil of 2**w/q, with
    p_j = p_{j-1}/q**2 and term_j = p_j/(2j+1).
    """
    w = ctx.prec + _FIXED_GUARD + q.bit_length() - 1
    lo, rem = divmod(1 << w, q)
    steps = ((q * q, 2 * j + 1) for j in itertools.count(1))
    return _from_fixed(*_fixed_series((lo, lo + (rem > 0)), (1, 1), 0, steps), w, ctx.prec)


def pi(ctx: PrecisionContext) -> RealInterval:
    """Enclosure of pi, width a few ulp at the working precision."""
    level = _ref_level(ctx.prec)
    key = ("pi", level)
    ref = _ref_cache.get(key)
    if ref is None:
        rctx = PrecisionContext(level + 16)
        a = _atan_inv_int(5, rctx)
        b = _atan_inv_int(239, rctx)
        ref = rctx.sub(rctx.scale_2exp(a, 4), rctx.scale_2exp(b, 2))
        _ref_cache[key] = ref
    return _final(ctx, ref)


def ln2(ctx: PrecisionContext) -> RealInterval:
    """Enclosure of log(2) = 2*atanh(1/3)."""
    level = _ref_level(ctx.prec)
    key = ("ln2", level)
    ref = _ref_cache.get(key)
    if ref is None:
        # positive terms of ratio below 1/9: geometric tail 9/8 >= 1/(1 - 1/9)
        p = level + 16
        w = p + _FIXED_GUARD + 1
        lo, rem = divmod(1 << w, 3)
        steps = ((9, 2 * j + 1) for j in itertools.count(1))
        lo, hi = _fixed_series((lo, lo + (rem > 0)), (1, 1), 0, steps, geometric=Fraction(9, 8))
        ref = _ref_cache[key] = _from_fixed(lo, hi, w - 1, p)
    return _final(ctx, ref)


def euler_gamma(ctx: PrecisionContext) -> RealInterval:
    """Enclosure of the Euler-Mascheroni constant from stored decimals.

    The stored digits are truncated, so gamma is bracketed by
    [digits, digits + 1e-50]; each endpoint is then pushed one ulp outward.
    Enclosures cannot get tighter than 1e-50 however high the precision.
    """
    lo = Fraction(int(_GAMMA_DIGITS[2:]), 10**50)
    hi = lo + Fraction(1, 10**50)
    raw = ctx.interval(lo, hi)
    ulp = (1, raw.hi[1])
    return ctx.widen(raw, ulp)


# ---------------------------------------------------------------------------
# exp and log
# ---------------------------------------------------------------------------


def _exp_point(v: rd.MPF, ctx: PrecisionContext) -> RealInterval:
    """Tiny enclosure of exp(v) at the (already guarded) context precision."""
    if v[0] == 0:
        return ctx.one()
    k = max(0, rd._top(v) + 1)  # after scaling by 2**-k, |r| <= 1/2
    rv = rd.mul_2exp(v, -k)
    r = RealInterval(rv, rv)
    cut = -(ctx.prec + 8)
    total = t = ctx.one()
    for n in range(1, 4 * ctx.prec + 64):
        t = ctx.div(ctx.mul(t, r), ctx.interval(n))
        total = ctx.add(total, t)
        mag = _magnitude(t)
        if _term_small(mag, cut):
            break
    else:
        raise RuntimeError(f"exp's Taylor series failed to converge after {n} terms")
    # |R_n| <= |t_{n+1}| / (1 - |r|) <= 2 |t_n| |r| / (n+1) <= |t_n| / (n+1)
    total = ctx.widen(total, rd.div(mag, rd.from_int(n + 1), 64, rd.CEIL))
    for _ in range(k):
        total = ctx.sq(total)
    return total


# below this, exp returns [0, 2**ceil(x.hi L)] instead of squaring its way down
_EXP_UNDERFLOW: rd.MPF = (-1, 32)
# L: log2(e) = 1.44269504088896340735..., rounded down
_LOG2_E_LO = Fraction(14426950408889634, 10**16)


def exp(x: RealInterval, ctx: PrecisionContext) -> RealInterval:
    """Enclosure of exp over x.

    A point, or a box of radius r below 2**-(prec/2) about its midpoint m,
    takes one point evaluation, widened to [e**m (1 - r), e**m (1 + r + r**2)]:
    for |d| <= r <= 1, 1 - r <= 1 + d <= e**d <= e**r <= 1 + r + r**2.  Wider
    boxes use exp's monotonicity and evaluate at both ends.

    For x.hi <= -2**32 the box is [0, 2**ceil(x.hi L)] with L a rational
    lower bound on log2(e), since e**y = 2**(y log2 e) <= 2**(y L) for y <= 0;
    the lower end is 0, not a certified positive bound.
    """
    if rd.cmp(x.hi, _EXP_UNDERFLOW) <= 0:
        return RealInterval(rd.ZERO, (1, math.ceil(rd.to_fraction(x.hi) * _LOG2_E_LO)))
    k_guess = max(0, rd._top(x.hi), rd._top(x.lo))
    inner = PrecisionContext(ctx.prec + _GUARD + k_guess + 8)
    m, r = _mid_rad(x, inner.prec)
    if not _narrow(r, ctx):
        return _monotone_hull(x, ctx, lambda v: _exp_point(v, inner))
    p = inner.prec
    up = rd.add(r, rd.mul(r, r, p, rd.CEIL), p, rd.CEIL)
    factor = RealInterval(rd.sub(rd.ONE, r, p, rd.FLOOR), rd.add(rd.ONE, up, p, rd.CEIL))
    return _final(ctx, inner.mul(_exp_point(m, inner), factor))


def _log_point(v: rd.MPF, ctx: PrecisionContext) -> RealInterval:
    """Tiny enclosure of log(v) for v > 0 at the guarded context precision.

    v = m 2**e with u = m 2**-b in [~0.707, ~1.414) for one b, so
    log v = 2 atanh(z) + (e + b) log 2 with z = (m - 2**b)/(m + 2**b) an exact
    rational of |z| <= 0.172.  The atanh series runs on the fixed-point kernel
    at floor and ceil of |z| 2**w (each term grows with |z|), w = prec + 16
    bits below the top of |z|; its terms have ratio below z**2 < 0.03, so the
    geometric tail factor 33/32 >= 1/(1 - z**2).
    """
    m, e = v
    b = m.bit_length()
    if m << 8 < 181 << b:  # u below 181/256 ~ 1/sqrt(2): double it
        b -= 1
    num, den = m - (1 << b), m + (1 << b)
    w = ctx.prec + _FIXED_GUARD + max(0, den.bit_length() - abs(num).bit_length())
    zl, rem = divmod(abs(num) << w, den)
    zh = zl + (rem > 0)
    steps = ((1, 2 * j + 1) for j in itertools.count(1))
    lo, hi = _fixed_series((zl, zh), (zl * zl, zh * zh), 2 * w, steps, geometric=Fraction(33, 32))
    if num < 0:
        lo, hi = -hi, -lo
    total = _from_fixed(lo, hi, w - 1, ctx.prec)  # 2 atanh z
    n = e + b
    if n:
        total = ctx.add(total, ctx.mul(ctx.interval(n), ln2(ctx)))
    return total


def log(x: RealInterval, ctx: PrecisionContext) -> RealInterval:
    """Enclosure of the natural logarithm over x; requires x.lo > 0."""
    if rd.sign(x.lo) <= 0:
        raise DomainError("log needs a strictly positive interval")
    inner = PrecisionContext(ctx.prec + _GUARD)
    return _monotone_hull(x, ctx, lambda v: _log_point(v, inner))


# ---------------------------------------------------------------------------
# trigonometric functions
# ---------------------------------------------------------------------------


def _fixed_arg(r: RealInterval, w: int) -> tuple[int, int]:
    """X = floor(mid(r) 2**w) and D with |y 2**w - X| <= D for every y in r."""
    lo, hi = _fixed(r.lo, w)[0], _fixed(r.hi, w)[1]
    x = (lo + hi) >> 1
    return x, hi - x


def _sin_cos_series(r: RealInterval, ctx: PrecisionContext) -> tuple[RealInterval, RealInterval]:
    """Enclosures of (sin r, cos r) for |r| <= 0.8 from the fixed-point kernel.

    Each series runs at the point X 2**-w next to the midpoint of r, with
    every y in r within D 2**-w of it (``_fixed_arg``).  sin is 1-Lipschitz,
    so its sum widens by D units; cos' = -sin and |sin t| <= |t|, so cos
    widens by ceil((|X| + D) D 2**-w) units.  sin runs at w = prec + 16 bits
    below the top of |r|, so a small r keeps its relative precision; cos,
    near 1 there, at w = prec + 16.  The terms r**(2j+1)/(2j+1)! and
    r**(2j)/(2j)! decrease from the first for |r| < 1, so the alternating
    tail applies.
    """
    p = ctx.prec
    w = p + _FIXED_GUARD - min(0, rd._top(_magnitude(r)))
    x, d = _fixed_arg(r, w)
    a = abs(x)
    lo, hi = _fixed_series((a, a), (a * a, a * a), 2 * w,
                           ((2 * j * (2 * j + 1), 1) for j in itertools.count(1)))
    if x < 0:
        lo, hi = -hi, -lo
    s = _from_fixed(lo - d, hi + d, w, p)
    w = p + _FIXED_GUARD
    x, d = _fixed_arg(r, w)
    a = abs(x)
    lo, hi = _fixed_series((1 << w, 1 << w), (a * a, a * a), 2 * w,
                           ((2 * j * (2 * j - 1), 1) for j in itertools.count(1)))
    spread = -(-(a + d) * d >> w)
    return s, _from_fixed(lo - spread, hi + spread, w, p)


def _reduce(v: rd.MPF, ctx: PrecisionContext) -> tuple[int, RealInterval]:
    """k = round(v / (pi/2)) as an exact integer, and an enclosure of r = v - k pi/2.

    pi/2 is enclosed, and r computed, at P = prec + max(0, t - _GUARD) bits for
    2**(t-1) <= |v| < 2**t, so the slack of k pi/2 is about 2**(t - P).  With
    v = num 2**e and the enclosure's lower end h = den 2**e,
    k = floor(num/den + 1/2): so |v/h - k| <= 1/2, and |r| is at most pi/4
    plus that slack, under 0.8.
    """
    rctx = PrecisionContext(ctx.prec + max(0, rd._top(v) - _GUARD))
    half_pi = rctx.scale_2exp(pi(rctx), -1)
    (num, ev), (den, eh) = v, half_pi.lo
    num <<= max(0, ev - eh)
    den <<= max(0, eh - ev)
    k = (2 * num + den) // (2 * den)
    return k, rctx.sub(RealInterval(v, v), rctx.mul(rctx.interval(k), half_pi))


def _rotate(k: int, r: RealInterval, ctx: PrecisionContext) -> tuple[RealInterval, RealInterval]:
    """(sin, cos) of k pi/2 + r from the Taylor series at r and k mod 4."""
    s, c = _sin_cos_series(r, ctx)
    for _ in range(k % 4):  # sin(y + pi/2) = cos y, cos(y + pi/2) = -sin y
        s, c = c, ctx.neg(s)
    return s, c


def _sin_cos_point(v: rd.MPF, ctx: PrecisionContext) -> tuple[RealInterval, RealInterval]:
    """Tiny enclosures of (sin v, cos v) via exact reduction mod pi/2."""
    if v[0] == 0:
        return ctx.zero(), ctx.one()
    return _rotate(*_reduce(v, ctx), ctx)


_TRIG_WIDE: rd.MPF = (7, 0)  # > 2 pi
_TRIG_TOP = 4096
_UNIT = RealInterval(rd.neg(rd.ONE), rd.ONE)


def _clip_unit(x: RealInterval) -> RealInterval:
    """x intersected with [-1, 1], for an x that meets it."""
    lo = _UNIT.lo if rd.cmp(x.lo, _UNIT.lo) < 0 else x.lo
    hi = _UNIT.hi if rd.cmp(x.hi, _UNIT.hi) > 0 else x.hi
    return RealInterval(lo, hi)


def _trig_ball(
    f: RealInterval, df: RealInterval, r: rd.MPF, ctx: PrecisionContext, inner: PrecisionContext,
) -> RealInterval:
    """f(m) widened by r |f'(m)| + r**2/2 max|f''|, which bounds |f(y) - f(m)| for |y - m| <= r.

    For f = sin or cos, |f''| = |f| <= min(1, |f(m)| + r) on the box.
    """
    p = inner.prec
    curv = rd.add(_magnitude(f), r, p, rd.CEIL)
    if rd.cmp(curv, rd.ONE) > 0:
        curv = rd.ONE
    second = rd.mul_2exp(rd.mul(rd.mul(r, r, p, rd.CEIL), curv, p, rd.CEIL), -1)
    rad = rd.add(rd.mul(r, _magnitude(df), p, rd.CEIL), second, p, rd.CEIL)
    return _clip_unit(_final(ctx, inner.widen(f, rad)))


def sin_cos(x: RealInterval, ctx: PrecisionContext) -> tuple[RealInterval, RealInterval]:
    """Enclosures of (sin, cos) over x.

    A point, or a box of radius r below 2**-(prec/2) about its midpoint m,
    takes one point evaluation: each of f = sin, cos lies within
    r |f'(m)| + r**2/2 |f''| of f(m), with f' = (cos, -sin) read from the same
    evaluation and |f''| <= 1.  A wider box reduces both ends exactly, to
    ka pi/2 + ra and kb pi/2 + rb, so each multiple j pi/2 inside it has
    ka + (ra > 0) <= j <= kb - (rb < 0).  Four or more such j give [-1, 1];
    otherwise each hulls in +-1, of cos for even j and of sin for odd j.  A
    box at least 7 wide, or with an end at 2**4096 or beyond (where reduction
    would need pi to that many bits), is [-1, 1] at once.
    """
    if max(rd._top(x.lo), rd._top(x.hi)) > _TRIG_TOP:
        return _UNIT, _UNIT
    inner = PrecisionContext(ctx.prec + _GUARD)
    m, r = _mid_rad(x, inner.prec)
    if _narrow(r, ctx):
        s, c = _sin_cos_point(m, inner)
        return _trig_ball(s, c, r, ctx, inner), _trig_ball(c, s, r, ctx, inner)
    if rd.cmp(rd.sub(x.hi, x.lo, 64, rd.FLOOR), _TRIG_WIDE) >= 0:
        return _UNIT, _UNIT
    (ka, ra), (kb, rb) = _reduce(x.lo, inner), _reduce(x.hi, inner)
    first, last = ka + (rd.sign(ra.lo) > 0), kb - (rd.sign(rb.hi) < 0)
    if last - first >= 3:
        return _UNIT, _UNIT
    (sa, ca), (sb, cb) = _rotate(ka, ra, inner), _rotate(kb, rb, inner)
    s, c = ctx.hull(_final(ctx, sa), _final(ctx, sb)), ctx.hull(_final(ctx, ca), _final(ctx, cb))
    for j in range(first, last + 1):  # a maximum for j = 0, 1 mod 4, a minimum for 2, 3
        peak = ctx.one() if j % 4 < 2 else ctx.neg(ctx.one())
        s, c = (ctx.hull(s, peak), c) if j % 2 else (s, ctx.hull(c, peak))
    return _clip_unit(s), _clip_unit(c)


def sin(x: RealInterval, ctx: PrecisionContext) -> RealInterval:
    return sin_cos(x, ctx)[0]


def cos(x: RealInterval, ctx: PrecisionContext) -> RealInterval:
    return sin_cos(x, ctx)[1]


# ---------------------------------------------------------------------------
# arctangent
# ---------------------------------------------------------------------------


_ATAN_SERIES_MAX: rd.MPF = (1, -2)  # atan's Maclaurin series runs at |x| <= 1/4


def _atan_point(v: rd.MPF, ctx: PrecisionContext) -> RealInterval:
    """Tiny enclosure of atan(v) at the guarded context precision.

    v > 1 reflects to pi/2 - atan(1/v), and each step x -> x/(1 + sqrt(1 + x**2))
    halves atan x, so at most two take x into (0, 1/4].  The alternating series
    then runs on the kernel from floor and ceil of x 2**w, w = prec + 16 bits
    below the top of x: every term grows with x, and the terms fall for x < 1,
    so the Leibniz tail holds over the box x.
    """
    if v[0] == 0:
        return ctx.zero()
    if v[0] < 0:
        return ctx.neg(_atan_point(rd.neg(v), ctx))
    x = RealInterval(v, v)
    add_half_pi = rd.cmp(v, rd.ONE) > 0
    if add_half_pi:
        x = ctx.div(ctx.one(), x)
    doublings = 0
    while rd.cmp(x.hi, _ATAN_SERIES_MAX) > 0:
        denom = ctx.add(ctx.one(), ctx.sqrt(ctx.add(ctx.one(), ctx.sq(x))))
        x = ctx.div(x, denom)
        doublings += 1
    w = ctx.prec + _FIXED_GUARD - rd._top(x.hi)
    xl, xh = _fixed(x.lo, w)[0], _fixed(x.hi, w)[1]
    steps = ((1, 2 * j + 1) for j in itertools.count(1))
    lo, hi = _fixed_series((xl, xh), (xl * xl, xh * xh), 2 * w, steps)
    total = _from_fixed(lo, hi, w - doublings, ctx.prec)
    if add_half_pi:
        total = ctx.sub(ctx.scale_2exp(pi(ctx), -1), total)
    return total


def atan(x: RealInterval, ctx: PrecisionContext) -> RealInterval:
    """Enclosure of arctan over x (monotone: endpoint evaluation)."""
    inner = PrecisionContext(ctx.prec + _GUARD)
    return _monotone_hull(x, ctx, lambda v: _atan_point(v, inner))


# ---------------------------------------------------------------------------
# complex helpers and integer powers
# ---------------------------------------------------------------------------


def cexp(z: ComplexBox, ctx: PrecisionContext) -> ComplexBox:
    """Enclosure of exp over a complex box: e^re * (cos im + i sin im)."""
    mag = exp(z.re, ctx)
    s, c = sin_cos(z.im, ctx)
    return ComplexBox(ctx.mul(mag, c), ctx.mul(mag, s))


def exact_point_int(x: RealInterval) -> int | None:
    """The integer a point interval represents exactly, else None."""
    if not x.is_point():
        return None
    return rd.exact_int(x.lo)


_EXACT_POWER_BITS = 4096


def real_exponent_of(s: ComplexBox | RealInterval, n: int) -> int | None:
    """s as an exact integer k >= 0, when the box or interval is that point and
    n**k has at most _EXACT_POWER_BITS bits; there n**-s is the exact rational
    1/n**k, and past that budget exp and log cost less than the big integers."""
    if isinstance(s, ComplexBox):
        if not (s.im.is_point() and s.im.lo == rd.ZERO):
            return None
        s = s.re
    k = exact_point_int(s)
    if k is None or k < 0 or k * n.bit_length() > _EXACT_POWER_BITS:
        return None
    return k


# largest neg_power_table: about 80 MB and a minute to build at 128 bits
_TABLE_CAP = 10**5

# log(n) enclosures by (n, prec), shared by every neg_power call; cleared past
# _TABLE_CAP entries
_log_cache: dict[tuple[int, int], RealInterval] = {}


def neg_power(n: int, s: ComplexBox, ctx: PrecisionContext) -> ComplexBox:
    """Enclosure of n**(-s) for an integer n >= 1 over the box s."""
    if n < 1:
        raise DomainError("neg_power needs n >= 1")
    if n == 1:
        return ctx.box(1)
    k = real_exponent_of(s, n)
    if k is not None:
        return ctx.box(ctx.interval(Fraction(1, n**k)))
    key = (n, ctx.prec)
    ln_n = _log_cache.get(key)
    if ln_n is None:
        if len(_log_cache) >= _TABLE_CAP:
            _log_cache.clear()
        ln_n = _log_cache[key] = log(ctx.interval(n), ctx)
    w = ComplexBox(ctx.neg(ctx.mul(s.re, ln_n)), ctx.neg(ctx.mul(s.im, ln_n)))
    return cexp(w, ctx)


def neg_power_table(limit: int, s: ComplexBox, ctx: PrecisionContext) -> list[ComplexBox | None]:
    """Enclosures t[n] of n**(-s) for 1 <= n <= limit; t[0] is None.

    A linear sieve (Gries and Misra, CACM 21, 1978) meets each composite
    n = p*m once, p its smallest prime factor, and sets t[n] = t[p] t[m], so
    exp and log run only at primes.  A limit above ``_TABLE_CAP`` raises
    DomainError before anything is built.
    """
    if limit > _TABLE_CAP:
        raise DomainError(f"table of {limit} powers n**-s exceeds the cap of {_TABLE_CAP}")
    boxes: list[ComplexBox | None] = [None] * (limit + 1)
    if limit >= 1:
        boxes[1] = ctx.box(1)
    primes: list[int] = []
    for m in range(2, limit + 1):
        if boxes[m] is None:
            primes.append(m)
            boxes[m] = neg_power(m, s, ctx)
        for p in primes:  # the primes p <= the smallest prime factor of m
            if p * m > limit:
                break
            boxes[p * m] = ctx.cmul(boxes[p], boxes[m])
            if m % p == 0:
                break
    return boxes
