"""Exact integer and rational number theory used throughout the package.

Bernoulli numbers follow the even-numeration convention (B1 = -1/2) and are
produced from integer tangent numbers, memoized; indices past
``_BERNOULLI_CAP`` are refused.  Primality and squarefreeness are
deterministic trial division, which keeps the "validated" claim free of
probabilistic steps; the quadratic discriminant constructors refuse D past
``_SQUAREFREE_CAP`` so that the test stays well under a second.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import DomainError, NotPrime

# largest Bernoulli index: filling the cache to B_1000 takes about 0.2 s on a
# 2-core VM (B_890, which a 1024-bit zeta at width 1e-400 needs, 0.12 s)
_BERNOULLI_CAP = 1000
# largest squarefree part D of a quadratic discriminant: is_squarefree takes
# about 0.09 s at 10**12 and 0.8 s at 10**14 on a 2-core VM (primes, the worst case)
_SQUAREFREE_CAP = 10**12

_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, B1 = -1/2 convention, exact, for k <= _BERNOULLI_CAP."""
    if k < 0:
        raise DomainError("bernoulli index must be >= 0")
    if k > _BERNOULLI_CAP:
        raise DomainError(f"bernoulli index {k} exceeds the cap of {_BERNOULLI_CAP}")
    if k >= len(_bernoulli_cache):
        # at least double the cache, so ascending requests refill it O(log k) times
        _fill_bernoulli(min(_BERNOULLI_CAP, max(k, 2 * len(_bernoulli_cache))))
    return _bernoulli_cache[k]


def _fill_bernoulli(m: int) -> None:
    """Refill the cache through B_m from the tangent numbers T_1, ..., T_{m//2}.

    The T_j (1, 2, 16, 272, ...) come from the integer recurrence of Brent and
    Harvey (Brent & Zimmermann, Modern Computer Arithmetic, section 4.7.2), and
    B_2j = (-1)**(j-1) 2j T_j / (4**j (4**j - 1)); odd indices past 1 are 0.
    """
    n = m // 2
    t = [0, 1] + [0] * (n - 1)  # t[j] = T_j
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    del _bernoulli_cache[2:]
    for j in range(1, n + 1):
        q = 4**j
        b = Fraction(2 * j * t[j], q * (q - 1))
        _bernoulli_cache.extend((b if j % 2 else -b, Fraction(0)))


def _divisors(n: int) -> Iterator[int]:
    """Each divisor of n >= 1 once, in pairs d, n//d with d*d <= n."""
    d = 1
    while d * d <= n:
        if n % d == 0:
            yield d
            if d != n // d:
                yield n // d
        d += 1


def sigma1(n: int) -> int:
    """Sum of the divisors of n."""
    if n < 1:
        raise DomainError("sigma1 needs n >= 1")
    return sum(_divisors(n))


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(delta: int, n: int) -> int:
    """Kronecker symbol (delta/n) for n >= 1."""
    if n < 1:
        raise DomainError("kronecker here is defined for n >= 1")
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if delta % 2 == 0:
            return 0
        two = 1 if delta % 8 in (1, 7) else -1
        if e % 2 == 0:
            two = 1
    else:
        two = 1
    return two * _jacobi(delta, n)


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_squarefree(n: int) -> bool:
    return n >= 1 and math.prod(_factor_trial(n)) == n


@dataclass(frozen=True)
class QuadraticDiscriminant:
    """Fundamental discriminant of Q(sqrt(D)) for squarefree D >= 2."""

    D: int
    delta: int

    @classmethod
    def from_squarefree(cls, D: int) -> "QuadraticDiscriminant":
        if D > _SQUAREFREE_CAP:
            raise DomainError(f"D={D} exceeds the cap of {_SQUAREFREE_CAP}")
        if D < 2 or not is_squarefree(D):
            raise DomainError("D must be a squarefree integer >= 2")
        delta = D if D % 4 == 1 else 4 * D
        return cls(D=D, delta=delta)

    @classmethod
    def from_discriminant(cls, delta: int) -> "QuadraticDiscriminant":
        D = delta if delta % 4 == 1 else delta // 4
        if D > _SQUAREFREE_CAP:
            raise DomainError(f"discriminant {delta} exceeds the cap: D = {D} > {_SQUAREFREE_CAP}")
        if delta % 4 == 1 and delta > 1 and is_squarefree(delta):
            return cls(D=delta, delta=delta)
        if delta % 4 == 0:
            if D >= 2 and D % 4 in (2, 3) and is_squarefree(D):
                return cls(D=D, delta=delta)
        raise DomainError(f"{delta} is not a positive fundamental discriminant")


def _factor_trial(n: int) -> list[int]:
    """Distinct prime factors by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime p."""
    if p == 2 or not is_prime(p):
        raise NotPrime(f"{p} is not an odd prime")
    factors = _factor_trial(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
        g += 1


def index_table(p: int) -> dict[int, int]:
    """Discrete-log table nu with g**nu(n) == n (mod p) for 1 <= n <= p-1,
    g = primitive_root(p)."""
    g = primitive_root(p)
    table: dict[int, int] = {}
    acc = 1
    for i in range(p - 1):
        table[acc] = i
        acc = acc * g % p
    return table


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit, ascending."""
    if limit < 2:
        raise DomainError("primes_up_to needs limit >= 2")
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), flags))
