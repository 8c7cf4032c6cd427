"""Fixed-width hot loops: prime sieving and curve point counts over F_p.

These are the only parts of the package where machine integers suffice, so
they are the only parts vectorized with numpy.  Everything rigorous stays in
exact big-integer arithmetic elsewhere; the counts returned here are exact
integers.

The point-count kernel counts, for each odd prime p, the points of the
reduced Weierstrass curve via the quadratic-residue table of F_p: completing
the square in y turns the fiber over x into ``v**2 = h(x)**2 + 4 f(x)`` with
``h = a1 x + a3`` and ``f`` the cubic, so the fiber size is ``1 + chi(g(x))``
with chi the Legendre symbol.  Primes must stay below 2**31 so intermediates fit in int64.
"""

from __future__ import annotations

import numpy as np

_MAX_PRIME = 1 << 31


def sieve(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def _coeffs_mod(coeffs: tuple[int, int, int, int, int], p: int) -> tuple[int, ...]:
    return tuple(int(c % p) for c in coeffs)


def _count_one(a1: int, a2: int, a3: int, a4: int, a6: int, p: int) -> int:
    x = np.arange(p, dtype=np.int64)
    qr = np.full(p, -1, dtype=np.int64)
    qr[(x * x) % p] = 1
    qr[0] = 0
    x2 = (x * x) % p
    f = ((x2 * x) % p + (a2 * x2) % p + (a4 * x) % p + a6) % p
    h = (a1 * x + a3) % p
    g = ((h * h) % p + 4 * f) % p
    return int(1 + p + qr[g].sum())


def _count_two(coeffs: tuple[int, int, int, int, int]) -> int:
    a1, a2, a3, a4, a6 = (c % 2 for c in coeffs)
    total = 1
    for x in (0, 1):
        for y in (0, 1):
            lhs = (y * y + a1 * x * y + a3 * y) % 2
            rhs = (x * x * x + a2 * x * x + a4 * x + a6) % 2
            if lhs == rhs:
                total += 1
    return total


def count_points_batch(coeffs: tuple[int, int, int, int, int], primes) -> np.ndarray:
    """A_p (points including infinity) for each prime."""
    primes = np.asarray(primes, dtype=np.int64)
    if len(primes) and int(primes.max()) >= _MAX_PRIME:
        raise ValueError("point counting requires primes below 2**31")
    out = np.empty(len(primes), dtype=np.int64)
    for i, p in enumerate(primes):
        p = int(p)
        if p == 2:
            out[i] = _count_two(coeffs)
        else:
            out[i] = _count_one(*_coeffs_mod(coeffs, p), p)
    return out
