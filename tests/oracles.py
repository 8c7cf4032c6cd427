"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: zeta comes from the
alternating (eta) series with an Euler-transform tail bound rather than
Euler-Maclaurin; L(1, chi) comes from the class-number formula; E1/erfc come
from brute-force midpoint quadrature; curve point counts come from a loop
over x with a table of how many square roots each element of F_p has.
"""

from __future__ import annotations

import math
from fractions import Fraction

from zetaval import functions as fn
from zetaval import rounding as rd
from zetaval.interval import ComplexBox, PrecisionContext, RealInterval


def eta_zeta_oracle(
    s: ComplexBox, ctx: PrecisionContext, terms: int = 64, depth: int = 14
) -> ComplexBox:
    """Enclosure of zeta(s) via eta(s)/(1 - 2^(1-s)), Re(s) >= 1.

    eta is summed to ``terms`` and the alternating tail is resummed by
    repeated averaging (Euler transform): with f(x) = x^-s and x0 = terms+1,

        tail = (+-) sum_{i<depth} 2^-(i+1) ((-Delta)^i f)(x0)  + R,
        |R| <= 2^-depth |s(s+1)...(s+depth-1)|
               * (x0^(-sigma-depth) + x0^(1-sigma-depth)/(sigma+depth-1)).
    """
    table = fn.neg_power_table(terms + depth + 1, s, ctx)
    eta = ctx.box(0)
    for n in range(1, terms + 1):
        eta = ctx.cadd(eta, table[n]) if n % 2 == 1 else ctx.csub(eta, table[n])

    x0 = terms + 1
    # corrections sum_i 2^-(i+1) sum_r (-1)^r C(i, r) f(x0 + r)
    corr = ctx.box(0)
    for i in range(depth):
        inner = ctx.box(0)
        for r in range(i + 1):
            term = table[x0 + r]
            coeff = math.comb(i, r)
            scaled = ComplexBox(
                ctx.mul(term.re, ctx.interval(coeff)), ctx.mul(term.im, ctx.interval(coeff))
            )
            inner = ctx.cadd(inner, scaled) if r % 2 == 0 else ctx.csub(inner, scaled)
        corr = ctx.cadd(corr, ComplexBox(ctx.scale_2exp(inner.re, -(i + 1)),
                                         ctx.scale_2exp(inner.im, -(i + 1))))
    if terms % 2 == 1:
        corr = ctx.cneg(corr)
    eta = ctx.cadd(eta, corr)

    p = ctx.prec
    prod_up = rd.ONE
    for i in range(depth):
        shifted = ComplexBox(ctx.add(s.re, ctx.interval(i)), s.im)
        prod_up = rd.mul(prod_up, ctx.cabs_upper(shifted), p, rd.CEIL)
    sigma_lo = RealInterval(s.re.lo, s.re.lo)
    ln_x0 = fn.log(ctx.interval(x0), ctx)
    pow_a = fn.exp(ctx.mul(ctx.neg(ctx.add(sigma_lo, ctx.interval(depth))), ln_x0), ctx).hi
    pow_b = fn.exp(
        ctx.mul(ctx.sub(ctx.one(), ctx.add(sigma_lo, ctx.interval(depth))), ln_x0), ctx
    ).hi
    denom = rd.add(s.re.lo, rd.from_int(depth - 1), p, rd.FLOOR)
    bound = rd.add(pow_a, rd.div(pow_b, denom, p, rd.CEIL), p, rd.CEIL)
    bound = rd.mul(bound, prod_up, p, rd.CEIL)
    bound = rd.mul_2exp(bound, -depth)
    eta = ctx.cwiden(eta, bound)

    # zeta = eta / (1 - 2^(1-s)) = eta / (1 - 2 * 2^-s)
    two_pow = fn.neg_power(2, s, ctx)
    den = ctx.csub(ctx.box(1), ComplexBox(ctx.scale_2exp(two_pow.re, 1),
                                          ctx.scale_2exp(two_pow.im, 1)))
    return ctx.cdiv(eta, den)


def class_number_oracle(D: int, ctx: PrecisionContext) -> RealInterval:
    """L(1, chi_Delta) = 2 h log(eps) / sqrt(Delta) for class-number-1 fields.

    Fundamental units hard-coded for the fixture fields (all have h = 1).
    """
    sqrt_d = ctx.sqrt(ctx.interval(D))
    if D == 5:
        eps = ctx.scale_2exp(ctx.add(ctx.one(), sqrt_d), -1)  # (1+sqrt 5)/2
        delta = 5
    elif D == 2:
        eps = ctx.add(ctx.one(), sqrt_d)  # 1 + sqrt 2
        delta = 8
    elif D == 13:
        eps = ctx.scale_2exp(ctx.add(ctx.interval(3), sqrt_d), -1)  # (3+sqrt 13)/2
        delta = 13
    else:
        raise ValueError(f"no fundamental unit on file for D={D}")
    num = ctx.scale_2exp(fn.log(eps, ctx), 1)
    return ctx.div(num, ctx.sqrt(ctx.interval(delta)))


def midpoint_quadrature_e1(x: float, panels: int = 400_000, cutoff: float = 50.0) -> tuple[float, float]:
    """Midpoint-rule estimate of E1(x) and a coarse error allowance."""
    width = cutoff
    h = width / panels
    val = math.fsum(math.exp(-t) / t for t in (x + (i + 0.5) * h for i in range(panels))) * h
    # truncated tail below e^-(x+width), midpoint error O(h^2)
    err = math.exp(-(x + width)) + 5.0 * h * h * math.exp(-x) + 1e-13
    return val, err


def midpoint_quadrature_erfc(x: float, panels: int = 400_000, cutoff: float = 10.0) -> tuple[float, float]:
    """Midpoint-rule estimate of erfc(x) and a coarse error allowance."""
    h = cutoff / panels
    total = math.fsum(math.exp(-t * t) for t in (x + (i + 0.5) * h for i in range(panels)))
    val = total * h * 2.0 / math.sqrt(math.pi)
    err = math.exp(-((x + cutoff) ** 2)) + 5.0 * h * h + 1e-13
    return val, err


def brute_point_count(coeffs: tuple[int, int, int, int, int], p: int) -> int:
    """Points of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F_p,
    including infinity, in O(p): over each x the y are the solutions of
    (2y + a1 x + a3)^2 = (a1 x + a3)^2 + 4 f(x) for odd p, and all of F_2 is
    tried at p = 2."""
    a1, a2, a3, a4, a6 = coeffs
    if p == 2:
        return 1 + sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
                       for x in (0, 1) for y in (0, 1))
    roots = [0] * p  # roots[d] = #{u in F_p : u^2 = d}
    for u in range(p):
        roots[u * u % p] += 1
    total = 1
    for x in range(p):
        h = a1 * x + a3
        total += roots[(h * h + 4 * (x**3 + a2 * x * x + a4 * x + a6)) % p]
    return total


def box_separation(a: ComplexBox, b: ComplexBox) -> float:
    """Largest componentwise gap between two boxes (0 when they intersect)."""
    gaps = []
    for pa, pb in ((a.re, b.re), (a.im, b.im)):
        lo_a, hi_a = pa.to_floats()
        lo_b, hi_b = pb.to_floats()
        gaps.append(max(lo_a - hi_b, lo_b - hi_a, 0.0))
    return max(gaps)


def decimal_bracket(text: str) -> tuple[Fraction, Fraction]:
    """[v, v + ulp] bracket for a truncated decimal literal like '1.2020569'."""
    frac = Fraction(text)
    digits = len(text.split(".")[1]) if "." in text else 0
    return frac, frac + Fraction(1, 10**digits)
