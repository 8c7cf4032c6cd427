"""Weierstrass curves over Q: invariants, reduction data, and L-functions.

``derive_quantities`` computes the standard b/c-coefficients, discriminant and
j-invariant exactly and asserts the two consistency identities
``4 b8 = b2 b6 - b4**2`` and ``1728 disc = c4**3 - c6**2``.

Reduction mod p is taken on the model as given: no minimal-model reduction is
performed, so bad-prime data describes the supplied equation, not an
isomorphism class.  At a good prime the trace comes from the exact point count
of ``kernels.count_points_batch`` (baby-step giant-step, about p**(1/4) group
operations).  At a bad prime the singular x-coordinate is the root of
``gcd(g, g')`` over F_p, with ``g = 4x**3 + b2 x**2 + 2 b4 x + b6`` (a scan of
the at most nine points at p = 2, 3), and the tangent cone
``lambda**2 + a1 lambda - (3 x0 + a2)`` decides cusp / split node / nonsplit
node, via Euler's criterion for odd p; the point count is then
``p + 1 - t_p`` with t_p = 0, 1, -1.  Primes are refused from 2**31 on.

The partial Hasse-Weil product at real s multiplies real-interval inverse local
factors over p <= N.  At an integer s = k >= 0 each factor is the exact
rational q^2 / (q^2 - t_p q + p), or q / (q - t_p) at a bad prime, with
q = p^k, rounded outward once, while q has at most 4096 bits; at any other s
it is 1 / (1 - t_p x + p x^2) with x = exp(-s log p).  A two-sided tail
factor [exp(-B), exp(B)] follows, with

    B = 2 N^(3/2-sigma) / ((sigma-3/2)(1-2^(1/2-sigma))),

which comes from |t_p| <= 2 sqrt(p): each log-factor is at most
-2 log(1 - p^(1/2-sigma)) <= 2 p^(1/2-sigma)/(1-2^(1/2-sigma)), summed by
integral comparison.  Bad-prime factors (|t_p| <= 1) obey the same bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import functions as fn
from . import kernels
from . import rounding as rd
from .errors import DomainError, SingularModel, UncertifiedDivisor
from .exact import is_prime, primes_up_to
from .interval import ComplexBox, PrecisionContext, RealInterval, certify_nonzero
from .zeta import Enclosure

# largest primes_to of hasse_weil_partial: at 10**6 (78 498 primes) a 128-bit
# call at s = 2 takes about 21 s on a 2-core VM, 17 s of it counting points,
# and 37 MB
_PRIMES_TO_CAP = 10**6


@dataclass(frozen=True)
class WeierstrassCurve:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    disc: int
    j: Fraction | None  # None when disc == 0

    @property
    def is_singular(self) -> bool:
        return self.disc == 0

    def coeffs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)


def derive_quantities(a1: int, a2: int, a3: int, a4: int, a6: int) -> WeierstrassCurve:
    """Exact invariants of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -(b2 * b2 * b8) - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if 4 * b8 != b2 * b6 - b4 * b4 or 1728 * disc != c4**3 - c6 * c6:
        raise AssertionError("internal invariant identities violated")
    j = Fraction(c4**3, disc) if disc else None
    return WeierstrassCurve(a1, a2, a3, a4, a6, b2, b4, b6, b8, c4, c6, disc, j)


class ReductionKind(enum.Enum):
    GOOD = "good"
    CUSP = "cusp"
    SPLIT_NODE = "split node"
    NONSPLIT_NODE = "nonsplit node"


@dataclass(frozen=True)
class ReductionInfo:
    p: int
    A_p: int  # F_p-points of the reduced curve, including infinity
    t_p: int
    kind: ReductionKind


def _require_prime(p: int) -> None:
    if p >= kernels.MAX_PRIME:
        raise DomainError(f"p={p} is not below the point-count limit 2**31")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def count_points(curve: WeierstrassCurve, p: int) -> int:
    """Points of the reduction mod p, including infinity (any prime p < 2**31)."""
    return trace(curve, p).A_p


def _poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd over F_p of two polynomials given constant term first."""

    def trim(h: list[int]) -> list[int]:
        h = [c % p for c in h]
        while h and h[-1] == 0:
            h.pop()
        return h

    f, g = trim(f), trim(g)
    while g:
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            q, shift = f[-1] * inv, len(f) - len(g)
            f = trim([c - q * g[i - shift] if i >= shift else c for i, c in enumerate(f)])
        f, g = g, f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _singular_x(curve: WeierstrassCurve, p: int) -> int:
    """x-coordinate of the singular point of the reduction at a bad prime p."""
    if p <= 3:
        a1, a2, a3, a4, a6 = curve.coeffs()
        hits = {
            x
            for x in range(p)
            for y in range(p)
            if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
            and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p == 0
            and (2 * y + a1 * x + a3) % p == 0
        }
        if len(hits) != 1:
            raise AssertionError(f"expected exactly one singular point mod {p}")
        return hits.pop()
    # completing the square, v^2 = g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6; the
    # singular x is the double root of g: gcd(g, g') is x - x0 at a node and
    # (x - x0)^2 at a cusp
    g = [curve.b6, 2 * curve.b4, curve.b2, 4]
    h = _poly_gcd(g, [2 * curve.b4, 2 * curve.b2, 12], p)
    if len(h) == 2:
        return -h[0] % p
    if len(h) == 3:
        return -h[1] * pow(2, -1, p) % p
    raise AssertionError("expected exactly one singular x-coordinate")


def trace(curve: WeierstrassCurve, p: int) -> ReductionInfo:
    """Trace of Frobenius at good p, or the singular-fiber value at bad p."""
    _require_prime(p)
    if curve.disc % p != 0:
        a_p = kernels.count_points_batch(curve.coeffs(), [p])[0]
        return ReductionInfo(p=p, A_p=a_p, t_p=1 + p - a_p, kind=ReductionKind.GOOD)
    x0 = _singular_x(curve, p)
    # tangent cone at the singular point: lambda^2 + q11 lambda + q20
    q11 = curve.a1 % p
    q20 = (-3 * x0 - curve.a2) % p
    if p == 2:
        if q11 == 0:
            kind = ReductionKind.CUSP
        elif q20 == 0:
            kind = ReductionKind.SPLIT_NODE
        else:
            kind = ReductionKind.NONSPLIT_NODE
    else:
        d = (q11 * q11 - 4 * q20) % p
        if d == 0:
            kind = ReductionKind.CUSP
        elif pow(d, (p - 1) // 2, p) == 1:
            kind = ReductionKind.SPLIT_NODE
        else:
            kind = ReductionKind.NONSPLIT_NODE
    t_p = {ReductionKind.CUSP: 0, ReductionKind.SPLIT_NODE: 1, ReductionKind.NONSPLIT_NODE: -1}[kind]
    return ReductionInfo(p=p, A_p=p + 1 - t_p, t_p=t_p, kind=kind)


def _euler_factor(info: ReductionInfo, s: RealInterval, ctx: PrecisionContext) -> RealInterval:
    """Euler factor 1 / (1 - t_p p^-s + p^(1-2s)) at a good prime, and
    1 / (1 - t_p p^-s) at a bad one, over a real interval s.

    At an integer s = k where q = p^k fits fn.real_exponent_of's bit budget,
    it is the rational q^2 / (q^2 - t_p q + p), or q / (q - t_p), rounded
    outward once.  Elsewhere x = p^-s = exp(-s log p) is a real interval and
    the factor is 1 / (1 - t_p x + p x^2), or 1 / (1 - t_p x).
    """
    p, t_p = info.p, info.t_p
    good = info.kind is ReductionKind.GOOD
    k = fn.real_exponent_of(s, p)
    if k is not None:
        q = p**k
        num, den = (q * q, q * q - t_p * q + p) if good else (q, q - t_p)
        if den == 0:
            raise UncertifiedDivisor(f"local factor at p={p} is zero")
        return ctx.interval(Fraction(num, den))
    # no neg_power here: its log cache would keep one single-use entry per prime
    x = fn.exp(ctx.neg(ctx.mul(s, fn.log(ctx.interval(p), ctx))), ctx)
    den = ctx.sub(ctx.one(), ctx.mul(ctx.interval(t_p), x))
    if good:
        den = ctx.add(den, ctx.mul(ctx.interval(p), ctx.sq(x)))
    if not certify_nonzero(den).is_certified:
        raise UncertifiedDivisor(f"local factor at p={p} not certified nonzero")
    return ctx.div(ctx.one(), den)


def local_zeta(
    curve: WeierstrassCurve, p: int, s: ComplexBox, ctx: PrecisionContext
) -> Enclosure:
    """Artin-Hasse local zeta (1 - t_p p^-s + p^(1-2s)) / ((1-p^-s)(1-p^(1-s)))."""
    if curve.disc == 0 or curve.disc % p == 0:
        raise DomainError(f"p={p} is not a good prime for this model")
    info = trace(curve, p)
    ps = fn.neg_power(p, s, ctx)  # p^-s
    one = ctx.box(1)
    p_one_2s = ctx.cmul(ctx.box(p), ctx.cmul(ps, ps))  # p^(1-2s)
    num = ctx.cadd(ctx.csub(one, ctx.cmul(ctx.box(info.t_p), ps)), p_one_2s)
    den1 = ctx.csub(one, ps)
    den2 = ctx.csub(one, ctx.cmul(ctx.box(p), ps))
    for d in (den1, den2):
        if not certify_nonzero(d).is_certified:
            raise UncertifiedDivisor("local zeta denominator not certified nonzero")
    value = ctx.cdiv(ctx.cdiv(num, den1), den2)
    return Enclosure(
        value=value,
        params={"p": p, "t_p": info.t_p},
        remainder_radius=rd.ZERO,
        raw_value=value,
    )


def hasse_weil_partial(
    curve: WeierstrassCurve,
    s: RealInterval,
    primes_to: int,
    ctx: PrecisionContext,
) -> Enclosure:
    """Partial product of inverse local factors over p <= primes_to, with a
    certified two-sided tail factor; needs s.lo > 3/2 + 1e-6 and
    3 <= primes_to <= _PRIMES_TO_CAP."""
    if curve.is_singular:
        raise SingularModel("the model has discriminant zero")
    min_sigma = Fraction(3, 2) + Fraction(1, 10**6)
    if rd.to_fraction(s.lo) <= min_sigma:
        raise DomainError("hasse_weil_partial needs s.lo > 3/2 + 1e-6")
    if primes_to < 3:
        raise DomainError("need primes_to >= 3")
    if primes_to > _PRIMES_TO_CAP:
        raise DomainError(f"primes_to={primes_to} exceeds the cap of {_PRIMES_TO_CAP}")

    primes = primes_up_to(primes_to)
    good = [p for p in primes if curve.disc % p != 0]
    counts = kernels.count_points_batch(curve.coeffs(), good)
    infos: dict[int, ReductionInfo] = {
        p: ReductionInfo(p=p, A_p=a, t_p=1 + p - a, kind=ReductionKind.GOOD)
        for p, a in zip(good, counts)
    }
    for p in primes:
        if p not in infos:
            infos[p] = trace(curve, p)

    acc = ctx.one()
    for p in primes:  # ascending, pinned for reproducible endpoints
        acc = ctx.mul(acc, _euler_factor(infos[p], s, ctx))

    # tail: log-product bound B, then the factor lies in [e^-B, e^B]
    sigma_lo = RealInterval(s.lo, s.lo)
    log_n = fn.log(ctx.interval(primes_to), ctx)
    n_pow = fn.exp(ctx.mul(ctx.sub(ctx.interval(Fraction(3, 2)), sigma_lo), log_n), ctx)
    two_pow = fn.exp(
        ctx.mul(ctx.sub(ctx.interval(Fraction(1, 2)), sigma_lo), fn.ln2(ctx)), ctx
    )
    b_bound = ctx.div(
        ctx.scale_2exp(n_pow, 1),
        ctx.mul(
            ctx.sub(sigma_lo, ctx.interval(Fraction(3, 2))),
            ctx.sub(ctx.one(), two_pow),
        ),
    )
    b_up = b_bound.hi
    tail = fn.exp(RealInterval(rd.neg(b_up), b_up), ctx)
    return Enclosure(
        value=ComplexBox(ctx.mul(acc, tail), ctx.zero()),
        params={"primes_to": primes_to, "log_tail_bound": rd.to_float(b_up, rd.CEIL)},
        remainder_radius=b_up,
        raw_value=ComplexBox(acc, ctx.zero()),
    )
