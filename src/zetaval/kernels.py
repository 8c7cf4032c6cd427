"""Exact point counts of Weierstrass curves over F_p, in pure Python.

Every reduction is counted here, singular ones included: the count is the
only source of A_p for ``elliptic``, which reads the kind of a bad fiber off
t_p = p + 1 - A_p.

For p above ``_NAIVE_MAX`` the count runs on the short model
``y**2 = x**3 + A x + B`` with ``A = -27 c4`` and ``B = -54 c6``, which is
isomorphic to the given model over F_p for p >= 5 (an affine change of
variables, so it has the same number of points).  A singular short model has
one singular point; the count is then ``p + 1 - (-2AB/p)``: a node at
``x0 = -3B/(2A)`` is split when its tangent slopes, square roots of
``3 x0``, lie in F_p, and a cusp (A = B = 0) has trace 0.  A nonsingular
count is the Shanks-Mestre method (Cohen, *A Course in Computational
Algebraic Number Theory*, 7.4.3):

* the candidates start as the Hasse interval
  ``[p + 1 - isqrt(4p), p + 1 + isqrt(4p)]``;
* for x = 0, 1, 2, ... with ``r = f(x) != 0``, the point ``(x r, r**2)`` lies
  on ``y**2 = X**3 + A r**2 X + B r**3``, which is E when r is a square and
  the quadratic twist E' otherwise (``#E + #E' = 2p + 2``), so no modular
  square root is needed;
* baby-step giant-step finds every M in the interval with ``M P = O``; the
  candidates keep only those M, or ``2p + 2 - M`` for a point on the twist.

The true count survives every step, so a unique survivor is exact.  Mestre's
theorem says that for p > 229 some point of E or E' leaves one candidate, so
the loop ends; it takes one or two points in practice, about p**(1/4) group
operations each.  For p <= 229, where uniqueness is not guaranteed, the count
is a plain loop over x with a table of the squares of F_p.
"""

from __future__ import annotations

from math import isqrt

# callers certify primality by trial division, which costs sqrt(p) steps
MAX_PRIME = 1 << 31
# Mestre's theorem guarantees a unique candidate only above this
_NAIVE_MAX = 229


def _count_naive(coeffs: tuple[int, int, int, int, int], p: int) -> int:
    """Points including infinity, by a loop over x: completing the square in
    y, the fiber over x has 1 + chi((a1 x + a3)**2 + 4 f(x)) points."""
    a1, a2, a3, a4, a6 = (c % p for c in coeffs)
    if p == 2:
        return 1 + sum(
            (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
            for x in (0, 1)
            for y in (0, 1)
        )
    square = bytearray(p)
    for y in range(p):
        square[y * y % p] = 1
    total = 1
    for x in range(p):
        h = a1 * x + a3
        d = (h * h + 4 * (((x + a2) * x + a4) * x + a6)) % p
        total += 1 if d == 0 else 2 * square[d]
    return total


def _legendre(v: int, p: int) -> int:
    e = pow(v, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


# points of y^2 = x^3 + a x + b are (x, y) tuples, None is the point at infinity


def _add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _mul(n: int, P, a: int, p: int):
    R = None
    for bit in bin(n)[2:]:
        R = _add(R, R, a, p)
        if bit == "1":
            R = _add(R, P, a, p)
    return R


def _killing_multiples(P, a: int, p: int, lo: int, hi: int) -> set[int]:
    """Every M in [lo, hi] with M P = O, by baby-step giant-step."""
    m = isqrt((hi - lo) // 2) + 1
    baby: dict[int, list[tuple[int, int]]] = {}  # x(jP) -> [(j, y(jP))], 1 <= j <= m
    Q = P
    for j in range(1, m + 1):
        if Q is None:  # Q = jP, so P has order j
            return set(range(-(-lo // j) * j, hi + 1, j))
        baby.setdefault(Q[0], []).append((j, Q[1]))
        jP = Q
        Q = _add(Q, P, a, p)
    step = _add(jP, Q, a, p)  # (2m + 1) P
    # each giant point G = c P covers the window c - m .. c + m
    found = set()
    c = lo + m
    G = _mul(c, P, a, p)
    while c - m <= hi:
        if G is None:
            found.add(c)
        else:
            for j, y in baby.get(G[0], ()):
                if y == G[1]:  # G = jP
                    found.add(c - j)
                if (y + G[1]) % p == 0:  # G = -jP
                    found.add(c + j)
        G = _add(G, step, a, p)
        c += 2 * m + 1
    return {M for M in found if lo <= M <= hi}


def _count_bsgs(c4: int, c6: int, p: int) -> int:
    """Points including infinity of y^2 = x^3 - 27 c4 x - 54 c6 over F_p, p > 229."""
    a, b = -27 * c4 % p, -54 * c6 % p
    if (4 * a**3 + 27 * b * b) % p == 0:
        # singular: a node at x0 = -3b/(2a) is split when 3 x0, a square
        # times -2ab, is a square; a cusp (a = b = 0) has trace 0
        return p + 1 - _legendre(-2 * a * b % p, p)
    half = isqrt(4 * p)
    lo, hi = p + 1 - half, p + 1 + half
    # None stands for the whole interval; building it as a set would cost about
    # a third of the count at p near 3e4
    candidates = None
    for x in range(p):
        r = ((x * x + a) * x + b) % p
        if r == 0:
            continue
        found = _killing_multiples((x * r % p, r * r % p), a * r * r % p, p, lo, hi)
        if _legendre(r, p) != 1:  # the point lies on the twist
            found = {2 * p + 2 - M for M in found}
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    raise AssertionError(f"no unique point count at p={p}")


def count_points_batch(coeffs: tuple[int, int, int, int, int], primes) -> list[int]:
    """A_p (points including infinity) for each prime below MAX_PRIME."""
    primes = [int(p) for p in primes]
    if any(p >= MAX_PRIME for p in primes):
        raise ValueError("point counting requires primes below 2**31")
    a1, a2, a3, a4, a6 = coeffs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    c4, c6 = b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6
    return [
        _count_naive(coeffs, p) if p <= _NAIVE_MAX else _count_bsgs(c4, c6, p)
        for p in primes
    ]
