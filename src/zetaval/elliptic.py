"""Weierstrass curves over Q: invariants, reduction data, and L-functions.

``derive_quantities`` computes the standard b/c-coefficients, discriminant and
j-invariant exactly and asserts the two consistency identities
``4 b8 = b2 b6 - b4**2`` and ``1728 disc = c4**3 - c6**2``.

Reduction mod p is taken on the model as given: no minimal-model reduction is
performed, so bad-prime data describes the supplied equation, not an
isomorphism class.  At every prime, good or bad, A_p is the exact point count
of ``kernels.count_points_batch`` and t_p = p + 1 - A_p.  At a bad prime the
nonsingular points of the cubic form a group of order p, p - 1 or p + 1
(Silverman, *The Arithmetic of Elliptic Curves*, III.2.5), so the count alone
says cusp, split node or nonsplit node: t_p = 0, 1 or -1.  Primes are refused
from 2**31 on.

The partial Hasse-Weil product at real s multiplies real-interval inverse local
factors over p <= N.  At an integer s = k >= 0 each factor is the exact
rational q^2 / (q^2 - t_p q + p), or q / (q - t_p) at a bad prime, with
q = p^k, rounded outward once, while q has at most 4096 bits; at any other s
it is 1 / (1 - t_p x + p x^2) with x = exp(-s log p).  A two-sided tail
factor [exp(-B), exp(B)] follows, with sigma = s.lo, a = sigma - 1/2 and
u = N^(1/2-sigma):

    B = 2 S / (1 - u),
    S = min(N^(3/2-sigma) / (sigma-3/2),
            C a N^(3/2-sigma) / ((a-1) ln N) - pi(N) u),   C = 1.25506.

From |t_p| <= 2 sqrt(p), each log-factor at p > N is at most
-2 log(1 - p^(1/2-sigma)) <= 2 p^(1/2-sigma) / (1 - u), since
-log(1 - v) <= v / (1 - v) and p^(1/2-sigma) < u.  Bad-prime factors
(|t_p| <= 1) obey the same bound.  S bounds the sum of p^-a over p > N in two
ways: over every integer n > N by integral comparison, or over primes only by
partial summation, sum f(p) = -pi(N) f(N) + int_N^oo pi(t) (-f'(t)) dt, with
pi(t) < C t / ln t for t > 1 (Rosser and Schoenfeld, Illinois J. Math. 6
(1962), (3.6)) and 1 / ln t <= 1 / ln N on t >= N.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import functions as fn
from . import kernels
from . import rounding as rd
from .dirichlet import _power_tail
from .errors import DomainError, SingularModel, UncertifiedDivisor
from .exact import is_prime, primes_up_to
from .interval import ComplexBox, PrecisionContext, RealInterval, certify_nonzero
from .zeta import Enclosure

# largest primes_to of hasse_weil_partial: at 10**6 (78 498 primes) a 128-bit
# call at s = 2 takes about 21 s on a 2-core VM, 17 s of it counting points,
# and 37 MB
_PRIMES_TO_CAP = 10**6
# pi(t) < _PI_BOUND t / ln t for t > 1 (Rosser and Schoenfeld 1962, (3.6))
_PI_BOUND = Fraction(125506, 100000)


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


def _reduction(curve: WeierstrassCurve, p: int, a_p: int) -> ReductionInfo:
    """Reduction data from the exact count A_p; at a bad prime t_p = 0, 1, -1
    names a cusp, a split node or a nonsplit node."""
    t_p = p + 1 - a_p
    if curve.disc % p:
        kind = ReductionKind.GOOD
    else:
        kind = {0: ReductionKind.CUSP, 1: ReductionKind.SPLIT_NODE, -1: ReductionKind.NONSPLIT_NODE}[t_p]
    return ReductionInfo(p=p, A_p=a_p, t_p=t_p, kind=kind)


def trace(curve: WeierstrassCurve, p: int) -> ReductionInfo:
    """Trace of Frobenius at good p, or the singular-fiber value at bad p."""
    _require_prime(p)
    return _reduction(curve, p, kernels.count_points_batch(curve.coeffs(), [p])[0])


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
    return Enclosure.widened(value, rd.ZERO, {"p": p, "t_p": info.t_p}, ctx)


def _prime_tail(
    sigma: rd.MPF, n: int, pi_n: int, ctx: PrecisionContext
) -> tuple[RealInterval, RealInterval]:
    """S, whose upper end bounds the sum of p^(1/2-sigma) over primes p > n,
    and u = n^(1/2-sigma) (module docstring), given the count pi_n of primes
    p <= n; needs sigma > 3/2 and n >= 3."""
    sigma_i = RealInterval(sigma, sigma)
    integers, n_pow, log_n = _power_tail(n, Fraction(3, 2), sigma_i, ctx)
    u = ctx.div(n_pow, ctx.interval(n))
    a_1 = ctx.sub(sigma_i, ctx.interval(Fraction(3, 2)))
    a = ctx.sub(sigma_i, ctx.interval(Fraction(1, 2)))
    primes = ctx.sub(
        ctx.div(ctx.mul(ctx.mul(ctx.interval(_PI_BOUND), a), n_pow), ctx.mul(a_1, log_n)),
        ctx.mul(ctx.interval(pi_n), u),
    )
    return (integers if rd.cmp(integers.hi, primes.hi) <= 0 else primes), u


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
    counts = kernels.count_points_batch(curve.coeffs(), primes)
    acc = ctx.one()
    for p, a_p in zip(primes, counts):  # ascending, pinned for reproducible endpoints
        acc = ctx.mul(acc, _euler_factor(_reduction(curve, p, a_p), s, ctx))

    # tail: log-product bound B = 2 S / (1 - u), then the factor lies in [e^-B, e^B]
    tail_sum, u = _prime_tail(s.lo, primes_to, len(primes), ctx)
    b_up = ctx.div(ctx.scale_2exp(tail_sum, 1), ctx.sub(ctx.one(), u)).hi
    tail = fn.exp(RealInterval(rd.neg(b_up), b_up), ctx)
    return Enclosure(
        value=ComplexBox(ctx.mul(acc, tail), ctx.zero()),
        params={"primes_to": primes_to},
        remainder_radius=b_up,
        prec=ctx.prec,
    )
