"""Dedekind zeta of real quadratic fields and its exact value at -1.

For K = Q(sqrt(D)) the ideal-counting function is r_K(n) = sum_{d|n} chi(d)
with chi the Kronecker character of the field discriminant, and

    zeta_K(s) = sum_n r_K(n) n^-s = zeta(s) * L(s, chi).

Both routes are implemented: ``product`` multiplies the Euler-Maclaurin zeta
box by the truncated L-series box; ``direct`` sums r_K(n) n^-s over n <= N, at
real s > 3/2.  Since 0 <= r_K(n) <= d(n) = sigma_0(n), its tail at sigma =
s.lo is at most the smaller of

    2 N^(3/2-sigma)/(sigma-3/2),                        by d(n) <= 2 sqrt(n),
    sigma N^(1-sigma) [(ln N + 1)/(sigma-1) + 1/(sigma-1)^2] - D(N) N^-sigma.

The second is partial summation against D(t) = sum_{n<=t} d(n) <= t (ln t + 1):
sum_{n>N} d(n) n^-sigma = -D(N) N^-sigma + sigma int_N^oo D(t) t^(-sigma-1) dt,
with D(N) = 2 sum_{k<=sqrt(N)} floor(N/k) - floor(sqrt(N))^2 exact (Dirichlet's
hyperbola method).  Both powers of N come from the first bound's one exp and
log.  Every omitted term is >= 0, so the box is [sum, sum + radius].  The two
routes must intersect, and the tests use that as an oracle-equivalence check.

Siegel's formula gives the exact rational

    zeta_K(-1) = (1/30) sum_{b odd, b^2 < p} sigma_1((p - b^2)/4)

for prime p = 1 (mod 4); the Hilbert modular orbifold volume is twice that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import functions as fn
from . import rounding as rd
from .characters import make_kronecker
from .dirichlet import _power_tail, l_truncated
from .errors import DomainError
from .exact import QuadraticDiscriminant, _divisors, is_prime, kronecker, sigma1
from .interval import ComplexBox, PrecisionContext, RealInterval
from .zeta import EMParams, Enclosure, zeta_em


@dataclass(frozen=True)
class RealQuadraticField:
    D: int
    discriminant: QuadraticDiscriminant

    @classmethod
    def of(cls, D: int) -> "RealQuadraticField":
        return cls(D=D, discriminant=QuadraticDiscriminant.from_squarefree(D))


@dataclass(frozen=True)
class DedekindParams:
    em: EMParams = EMParams(32, 6)
    l_terms: int = 2000
    direct_terms: int = 10_000


# largest p of siegel_zeta_minus1: the sum takes about 1 s at 4*10**7 on a
# 2-core VM, and its cost grows like p
_SIEGEL_P_CAP = 4 * 10**7


def siegel_zeta_minus1(p: int) -> Fraction:
    """Exact zeta_K(-1) for K = Q(sqrt(p)), prime p = 1 (mod 4), p <= _SIEGEL_P_CAP."""
    if p > _SIEGEL_P_CAP:
        raise DomainError(f"p={p} exceeds the cap of {_SIEGEL_P_CAP}")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p % 4 != 1:
        raise DomainError("Siegel's formula here needs p = 1 (mod 4)")
    total = 0
    b = 1
    while b * b < p:
        total += sigma1((p - b * b) // 4)
        b += 2
    return Fraction(total, 30)


def hilbert_volume(p: int) -> Fraction:
    """Volume of the Hilbert modular orbifold for Q(sqrt(p)): 2 zeta_K(-1)."""
    return 2 * siegel_zeta_minus1(p)


def ideal_count(K: RealQuadraticField, n: int) -> int:
    """Number of ideals of norm n: r_K(n) = sum_{d | n} chi_Delta(d)."""
    if n < 1:
        raise DomainError("need n >= 1")
    delta = K.discriminant.delta
    return sum(kronecker(delta, d) for d in _divisors(n))


def _divisor_summatory(N: int) -> int:
    """D(N) = sum_{n<=N} sigma_0(n) = 2 sum_{k<=sqrt(N)} floor(N/k) - floor(sqrt(N))^2."""
    r = math.isqrt(N)
    return 2 * sum(N // k for k in range(1, r + 1)) - r * r


def dedekind_enclosure(
    K: RealQuadraticField,
    s: RealInterval,
    mode: str = "product",
    params: DedekindParams = DedekindParams(),
    ctx: PrecisionContext = PrecisionContext(),
) -> Enclosure:
    """Enclosure of zeta_K(s) for real s with s.lo > 1.

    ``product`` mode multiplies the zeta and L enclosures (valid for any
    sigma > 1 away from the pole); ``direct`` mode sums the ideal-count
    Dirichlet series and requires sigma > 3/2 for its tail bound.
    """
    if rd.cmp(s.lo, rd.ONE) <= 0:
        raise DomainError("dedekind_enclosure needs s > 1")
    s_box = ComplexBox(s, ctx.zero())
    if mode == "product":
        z = zeta_em(s_box, params.em, ctx)
        chi = make_kronecker(K.D)
        l_val = l_truncated(chi, s_box, params.l_terms, ctx)
        # at real s both factors are real and already widened: multiply the real parts
        return Enclosure.widened(ctx.mul(z.value.re, l_val.value.re), rd.ZERO, params, ctx)
    if mode != "direct":
        raise DomainError(f"unknown mode {mode!r}")
    three_halves = rd.from_fraction(Fraction(3, 2), 64, rd.CEIL)
    if rd.cmp(s.lo, three_halves) <= 0:
        raise DomainError("direct mode needs s > 3/2 for its divisor tail bound")

    N = params.direct_terms
    table = fn.neg_power_table(N, s_box, ctx)
    # at real s every n^-s is real, so the sum lies in the real parts
    total = ctx.zero()
    for n in range(1, N + 1):
        r = ideal_count(K, n)
        if r:
            total = ctx.add(total, ctx.mul(ctx.interval(r), table[n].re))

    sigma = RealInterval(s.lo, s.lo)
    trivial, power, log_n = _power_tail(N, Fraction(3, 2), sigma, ctx)
    # r_K(n) <= sigma_0(n) <= 2 sqrt(n): the tail is at most 2 N^(3/2-sigma)/(sigma-3/2)
    radius = rd.mul_2exp(trivial.hi, 1)
    # or, by partial summation against D(t) <= t (ln t + 1), at most
    # sigma N^(1-sigma) [(ln N + 1)/(sigma-1) + 1/(sigma-1)^2] - D(N) N^-sigma
    n_iv = ctx.interval(N)
    power_1 = ctx.div(power, ctx.sqrt(n_iv))  # N^(1-sigma)
    a = ctx.sub(sigma, ctx.one())
    bracket = ctx.add(ctx.div(ctx.add(log_n, ctx.one()), a), ctx.div(ctx.one(), ctx.sq(a)))
    abel = ctx.sub(
        ctx.mul(ctx.mul(sigma, power_1), bracket),
        ctx.mul(ctx.interval(_divisor_summatory(N)), ctx.div(power_1, n_iv)),
    )
    if rd.cmp(abel.hi, radius) < 0:
        radius = abel.hi
    # every omitted term r_K(n) n^-s is >= 0, so the value lies above the sum
    above = RealInterval(total.lo, rd.add(total.hi, radius, ctx.prec, rd.CEIL))
    return Enclosure(ComplexBox(above, ctx.zero()), params, radius, ctx.prec)
