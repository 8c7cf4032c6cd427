"""Dirichlet characters with exact symbolic values, and their Gauss sums.

Every character has one representation, as in Arb's Dirichlet module: a
modulus q, an order, and an exponent map with chi(n) = exp(2 pi i e(n)/order),
or e(n) = None where chi(n) = 0.  Two constructions feed it: characters of
prime modulus p built from a primitive root (order p-1, exponents read from a
table), and real quadratic characters given by the Kronecker symbol of a
positive fundamental discriminant (order 2, exponents computed from the symbol
on demand, so a large discriminant costs nothing up front).  Values stay
symbolic until they are converted to complex boxes, so multiplicativity and
orthogonality can be checked exactly, with no enclosure slack.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import functions as fn
from .exact import QuadraticDiscriminant, index_table, is_prime, kronecker
from .errors import DomainError, NotPrime
from .interval import ComplexBox, PrecisionContext

# Kronecker symbol value -> exponent of -1
_SIGN_EXPONENT = {1: 0, -1: 1, 0: None}
# largest prime modulus of make_elementary, whose index and exponent tables
# hold p entries: building them takes about 1.4 s near 10**6 on a 2-core VM
_MODULUS_CAP = 2**20


@dataclass(frozen=True)
class ParityFlag:
    alpha: int  # 0 for even characters (chi(-1) = 1), 1 for odd


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod ``modulus`` whose values are ``order``-th roots of unity."""

    modulus: int
    order: int
    # n -> e in [0, order) with chi(n) = exp(2 pi i e/order), or None if chi(n) = 0
    exponent: Callable[[int], int | None]

    def sign(self, n: int) -> int:
        """chi(n) in {-1, 0, 1}; only for characters with real values."""
        e = self.exponent(n)
        if e is None:
            return 0
        if e == 0:
            return 1
        if 2 * e == self.order:
            return -1
        raise DomainError("character value is not real")

    def is_principal(self) -> bool:
        return all(not self.exponent(n) for n in range(1, self.modulus))  # e is 0 or None


def _table_exponent(table: tuple[int | None, ...], n: int) -> int | None:
    return table[n % len(table)]


def _kronecker_exponent(delta: int, n: int) -> int | None:
    # the symbol is periodic mod delta and even, since delta > 0
    return _SIGN_EXPONENT[kronecker(delta, n % delta or delta)]


def make_elementary(p: int, m: int) -> DirichletCharacter:
    """Character mod prime p <= _MODULUS_CAP with chi(n) = exp(2 pi i * m * nu(n) / (p-1))."""
    if p > _MODULUS_CAP:
        raise DomainError(f"modulus {p} exceeds the cap of {_MODULUS_CAP}")
    if p == 2 or not is_prime(p):
        raise NotPrime(f"modulus {p} is not an odd prime")
    if not 1 <= m <= p - 1:
        raise DomainError("need 1 <= m <= p-1")
    nu = index_table(p)
    exps = (None,) + tuple((m * nu[n]) % (p - 1) for n in range(1, p))
    return DirichletCharacter(p, p - 1, partial(_table_exponent, exps))


def make_kronecker(D: int) -> DirichletCharacter:
    """Real quadratic character chi(n) = (delta/n) for squarefree D >= 2."""
    delta = QuadraticDiscriminant.from_squarefree(D).delta
    return DirichletCharacter(delta, 2, partial(_kronecker_exponent, delta))


def _root_of_unity(num: int, den: int, ctx: PrecisionContext) -> ComplexBox:
    """Enclosure of exp(2 pi i num/den), exact at quarter turns."""
    num %= den
    four = Fraction(4 * num, den)
    if four.denominator == 1:
        quarter = four.numerator % 4
        re, im = [(1, 0), (0, 1), (-1, 0), (0, -1)][quarter]
        return ctx.box(re, im)
    theta = ctx.mul(ctx.scale_2exp(fn.pi(ctx), 1), ctx.interval(Fraction(num, den)))
    s, c = fn.sin_cos(theta, ctx)
    return ComplexBox(c, s)


def char_value(chi: DirichletCharacter, n: int, ctx: PrecisionContext) -> ComplexBox:
    """Enclosure of chi(n); exact at quarter turns and at zeros."""
    e = chi.exponent(n)
    if e is None:
        return ctx.box(0)
    return _root_of_unity(e, chi.order, ctx)


def parity(chi: DirichletCharacter) -> ParityFlag:
    """alpha = 0 if chi(-1) = 1, alpha = 1 if chi(-1) = -1."""
    return ParityFlag(0 if chi.sign(-1) == 1 else 1)


def gauss_sum(chi: DirichletCharacter, ctx: PrecisionContext) -> ComplexBox:
    """Enclosure of tau(chi) = sum_m chi(m) exp(2 pi i m / q)."""
    q = chi.modulus
    total = ctx.box(0)
    for m in range(1, q + 1):
        e = chi.exponent(m)
        if e is None:
            continue
        # chi(m) e_q(m) = exp(2 pi i (e/order + m/q))
        frac = Fraction(e, chi.order) + Fraction(m, q)
        total = ctx.cadd(total, _root_of_unity(frac.numerator, frac.denominator, ctx))
    return total
