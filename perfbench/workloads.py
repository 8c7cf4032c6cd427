"""Seeded inputs for the three workloads, how to run them, and how to check them.

A workload is an endless sequence of *cycles*.  Every cycle has the same
fixed list of slots (evaluator, precision, parameter band); the seed only
picks the values inside each band.  So every cycle costs about the same
whatever the seed, and a run that measures whole cycles reports a stable
throughput while still evaluating new inputs in every cycle.

Inputs are plain ints and Fractions, made without zetaval, so a change to
the program cannot change what it is asked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import reference as ref

WORKLOADS = ("zeta_complex", "lseries_real", "elliptic_lseries")
# Workloads whose times are rescaled by the yardstick.  Two thirds of an
# elliptic_lseries cycle is in numpy point counts, which host drift barely
# moves, so rescaling it by an interpreter loop would add noise, not remove it.
RESCALED = ("zeta_complex", "lseries_real")

EM_PARAMS = (32, 6)  # fixed (N, k) of the zeta_em share
L_TERMS = 100  # l_truncated length and dedekind product-mode l_terms
DIRECT_TERMS = 200  # dedekind direct-mode terms
# after a run's first cycle, naive point counts at primes of RECOUNT_ALL_BELOW or
# more (an O(p) pure-Python loop, 0.7 s near 1e6) cover a seeded share
RECOUNT_ALL_BELOW = 100_000
RECOUNT_SHARE = 1 / 3
# hasse_weil_partial: primes_to ladder; s alternates 2, 3 along it.  The
# tail, p90, falls inside the three 8000 rungs.
# The top rung takes about half of a cycle; at 50000 it would take three
# quarters, too long to repeat the cycle five times in a run.
HW_LADDER = (1000, 2300, 2300, 5000, 8000, 8000, 8000, 30000)
# trace / local_zeta: (kind, p low, p high), narrow bands up to about 1e6.
# The median evaluation falls among the five equal traces near 2e5.  The
# first of them runs a third slower, after a call on arrays of another size,
# so the median must sit among the four others.  The one prime near 1e6 sets
# peak_rss_mb.
PRIME_SLOTS = (("local_zeta", 10_000, 11_000), ("trace", 10_000, 11_000)) * 2 \
    + (("local_zeta", 50_000, 55_000), ("trace", 50_000, 55_000)) * 2 \
    + (("trace", 200_000, 201_000),) * 5 + (("local_zeta", 990_000, 1_000_000),)
# zeta_em slots: (|t| low, |t| high, sigma high).  The last slot always
# certifies the fewest digits of the batch.  Its band is narrow because
# both the remainder and |zeta| move with s, and digits_min should not
# depend on which corner of a wide band the seed hits.
EM_BANDS = ((1, 12, 3), (12, 24, 3), (24, 36, 3), (36, 48, 3), (59.5, 60, 1.05))
# zeta_auto slots: (|t| low, |t| high, digits low, digits high) of the target.
# The three equal two-round slots make 30% of the evaluations, and the tail,
# p75, falls in the middle of them.
AUTO_BANDS = ((1, 8, 15, 18), (22, 30, 16.6, 18.3), (22, 30, 16.6, 18.3), (22, 30, 16.6, 18.3),
              (15, 22, 25.7, 28))


@dataclass(frozen=True)
class Task:
    """One evaluation.  ``radius`` is the half-width of the input box around
    (s_re, s_im); 0 means a point."""

    kind: str
    prec: int = 128
    s_re: Fraction = Fraction(0)
    s_im: Fraction = Fraction(0)
    radius: Fraction = Fraction(0)
    target: Fraction | None = None
    D: int = 0
    modulus: int = 0
    char_index: int = 0
    terms: int = 0
    curve: tuple[int, ...] = ()
    primes_to: int = 0
    p: int = 0


@dataclass
class Outcome:
    ok: bool
    digits: float | None  # certified decimal digits, None for exact outputs
    reason: str = ""


# -- generation ---------------------------------------------------------------


def _dec(rng: random.Random, lo: float, hi: float, places: int = 6) -> Fraction:
    """Uniform exact decimal in [lo, hi] with the given number of places."""
    scale = 10**places
    return Fraction(rng.randint(math.ceil(lo * scale), math.floor(hi * scale)), scale)


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> Fraction:
    """10**e for e uniform in [lo_exp, hi_exp], as an exact 3-digit decimal."""
    e = rng.uniform(lo_exp, hi_exp)
    k = math.floor(e)
    mant = round(10 ** (e - k), 2)
    return Fraction(round(mant * 100), 100) * Fraction(10) ** k


def _squarefree_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        D = rng.randint(lo, hi)
        if ref.is_squarefree(D):
            return D


def _prime_in(rng: random.Random, lo: int, hi: int, avoid: int = 0) -> int:
    while True:
        p = rng.randint(lo, hi) | 1
        if p <= hi and ref.is_prime(p) and (avoid == 0 or avoid % p):
            return p


def _curve(rng: random.Random) -> tuple[int, ...]:
    while True:
        c = tuple(rng.randint(-12, 12) for _ in range(5))
        if discriminant(c):
            return c


def discriminant(c: tuple[int, ...]) -> int:
    a1, a2, a3, a4, a6 = c
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _zeta_cycle(rng: random.Random) -> list[Task]:
    tasks = []
    # zeta_em: one slot per band, two of the five on boxes
    boxes = set(rng.sample(range(5), 2))
    for i, (t_lo, t_hi, sigma_hi) in enumerate(EM_BANDS):
        t = _dec(rng, t_lo, t_hi) * rng.choice((1, -1))
        r = _log_uniform(rng, -26, -24) if i in boxes else Fraction(0)
        tasks.append(Task("zeta_em", s_re=_dec(rng, 1.02, sigma_hi), s_im=t, radius=r))
    # zeta_auto: each (|t| band, -log10 target band) pair needs the same
    # number of rounds (1, 2, 2, 2, 3) for every sigma in [1.02, 3], so a
    # cycle's cost does not depend on where in the bands the seed falls
    box = rng.randrange(5)
    for i, (t_lo, t_hi, d_lo, d_hi) in enumerate(AUTO_BANDS):
        target = _log_uniform(rng, -d_hi, -d_lo)
        t = _dec(rng, t_lo, t_hi) * rng.choice((1, -1))
        r = target * Fraction(1, 10**5) if i == box else Fraction(0)
        tasks.append(Task("zeta_auto", s_re=_dec(rng, 1.02, 3), s_im=t, radius=r, target=target))
    return [tasks[i] for i in (0, 5, 1, 6, 2, 7, 3, 8, 4, 9)]


def _lseries_cycle(rng: random.Random) -> list[Task]:
    # six of the fifteen real-s calls take boxes, chosen by the seed
    boxes = set(rng.sample(range(15), 6))
    slots = iter(range(15))

    def real_s(lo: float, hi: float) -> dict:
        box = next(slots) in boxes
        return dict(s_re=_dec(rng, lo, hi), radius=_log_uniform(rng, -14, -12) if box else Fraction(0))

    def l1(choices: tuple[int, ...], tail_digits: int) -> Task:
        # the choices of D cost about the same at this tail bound, so the
        # slot's cost does not depend on the pick
        D = rng.choice(choices)
        return Task("l_one_quadratic", D=D, terms=ref.l_one_terms(D, tail_digits))

    def ltr(prec: int, modulus: int, orders: tuple[int, ...]) -> Task:
        # a character's cost depends on its order, so each slot fixes it
        index = rng.choice([j for j in range(1, modulus - 1)
                            if (modulus - 1) // math.gcd(j, modulus - 1) in orders])
        return Task("l_truncated", prec=prec, modulus=modulus, char_index=index,
                    terms=L_TERMS, **real_s(3.25, 3.75))

    def ded(kind: str, prec: int, hi: int, s_lo: float = 3.25, s_hi: float = 3.75) -> Task:
        return Task(kind, prec=prec, D=_squarefree_in(rng, 2, hi), **real_s(s_lo, s_hi))

    # Seventeen light 128-bit calls, then three 512-bit ones.  The median
    # evaluation falls inside the light group.  The tail, p90, falls a third
    # of the way into the 512-bit group: the middle of its two l_truncated
    # calls, which cost less than the product-mode one.  The 512-bit
    # l_truncated calls take modulus 5, since their references cost one
    # 1056-bit Hurwitz zeta per residue class.
    light = [l1((5, 6, 10), 12)]
    for i in range(4):
        light += [
            l1((2, 3), 20),
            ltr(128, 11, (5,)),
            ded("dedekind_product", 128, 15),
            # the first direct-mode slot always certifies the fewest digits
            ded("dedekind_direct", 128, 15, *((3.25, 3.3) if i == 0 else (3.3, 3.75))),
        ]
    return light + [
        ltr(512, 5, (4,)),
        ltr(512, 5, (4,)),
        ded("dedekind_product", 512, 5),
    ]


def _elliptic_cycle(rng: random.Random) -> list[Task]:
    tasks = [
        Task("hasse_weil", s_re=Fraction(2 + i % 2), curve=_curve(rng), primes_to=x)
        for i, x in enumerate(HW_LADDER)
    ]
    for i, (kind, lo, hi) in enumerate(PRIME_SLOTS):
        c = _curve(rng)
        tasks.append(Task(kind, s_re=Fraction(2 + i // 2 % 2), curve=c,
                          p=_prime_in(rng, lo, hi, avoid=discriminant(c))))
    # interleave the ladder with the single-prime calls
    return [t for pair in zip(tasks[8:16], tasks[:8]) for t in pair] + tasks[16:]


_CYCLES = {
    "zeta_complex": _zeta_cycle,
    "lseries_real": _lseries_cycle,
    "elliptic_lseries": _elliptic_cycle,
}


def cycle(workload: str, seed: int, index: int) -> list[Task]:
    """The tasks of cycle ``index``; a pure function of its arguments."""
    return _CYCLES[workload](random.Random(f"{workload}/{seed}/{index}"))


def precisions(workload: str) -> tuple[int, ...]:
    return (128, 512) if workload == "lseries_real" else (128,)


# -- running ------------------------------------------------------------------


def _interval(ctx, c: Fraction, r: Fraction):
    return ctx.interval(c - r, c + r)


def evaluate(zv, task: Task):
    """Run one task through the library's public API."""
    ctx = zv.PrecisionContext(task.prec)
    k = task.kind
    s = _interval(ctx, task.s_re, task.radius)
    if k in ("zeta_em", "zeta_auto"):
        box = zv.ComplexBox(s, _interval(ctx, task.s_im, task.radius))
        if k == "zeta_em":
            return zv.zeta_em(box, zv.EMParams(*EM_PARAMS), ctx)
        return zv.zeta_auto(box, task.target, ctx)
    if k == "l_one_quadratic":
        return zv.l_one_quadratic(task.D, task.terms, ctx)
    if k == "l_truncated":
        chi = zv.make_elementary(task.modulus, task.char_index)
        return zv.l_truncated(chi, zv.ComplexBox(s, ctx.zero()), task.terms, ctx)
    if k.startswith("dedekind_"):
        params = zv.DedekindParams(l_terms=L_TERMS, direct_terms=DIRECT_TERMS)
        field_ = zv.RealQuadraticField.of(task.D)
        return zv.dedekind_enclosure(field_, s, k.split("_")[1], params, ctx)
    curve = zv.derive_quantities(*task.curve)
    if k == "hasse_weil":
        return zv.hasse_weil_partial(curve, s, task.primes_to, ctx)
    if k == "trace":
        return zv.trace(curve, task.p)
    if k == "local_zeta":
        return zv.local_zeta(curve, task.p, zv.ComplexBox(s, ctx.zero()), ctx)
    raise ValueError(f"unknown task kind {k!r}")


# -- checking -----------------------------------------------------------------


def _bounds(iv) -> tuple[Fraction, Fraction]:
    return iv.lo_fraction, iv.hi_fraction


def _mid_width(value) -> tuple[float, Fraction]:
    """|midpoint| and the larger side of a ComplexBox."""
    (rl, rh), (il, ih) = _bounds(value.re), _bounds(value.im)
    return math.hypot(float((rl + rh) / 2), float((il + ih) / 2)), max(rh - rl, ih - il)


def digits(value, target: Fraction | None = None) -> float | None:
    """Certified decimal digits, log10(|mid| / width), of a ComplexBox; for an
    adaptive call, no more than its target asks.  None for an exact point."""
    mid, width = _mid_width(value)
    if width == 0:
        return None
    d = math.log10(mid / float(width))
    return d if target is None else min(d, math.log10(mid / float(target)))


def contains(value, re: Fraction, im: Fraction = Fraction(0)) -> bool:
    (rl, rh), (il, ih) = _bounds(value.re), _bounds(value.im)
    return rl <= re <= rh and il <= im <= ih


def _checked(value, target, re, im=Fraction(0)) -> Outcome:
    if not contains(value, re, im):
        return Outcome(False, None, "box misses the reference")
    if target is not None and _mid_width(value)[1] > target:
        return Outcome(False, None, "box wider than the requested width")
    return Outcome(True, digits(value, target))


def check(zv, task: Task, out, rng: random.Random, sample: bool = False) -> Outcome:
    """Compare one output with its independent reference.

    ``zv`` is used only for the elliptic cross-checks that need the library
    itself (a box at a smaller ``primes_to``, point counts at sampled primes).
    With ``sample``, a point count at a prime of RECOUNT_ALL_BELOW or more is
    recounted naively for a seeded RECOUNT_SHARE of the calls; the others are
    held to the Hasse bound only.
    """
    k = task.kind
    if k in ("zeta_em", "zeta_auto"):
        if k == "zeta_auto" and not out.meets_target:
            return Outcome(False, None, "zeta_auto did not meet its target")
        return _checked(out.value, task.target, *ref.zeta_ref(task.s_re, task.s_im, task.prec))
    if k == "l_one_quadratic":
        return _checked(out.value, None, ref.l_one_ref(task.D, task.prec))
    if k == "l_truncated":
        return _checked(out.value, None,
                        *ref.l_elementary_ref(task.modulus, task.char_index, task.s_re, task.prec))
    if k.startswith("dedekind_"):
        return _checked(out.value, None, ref.dedekind_ref(task.D, task.s_re, task.prec))
    recount = not sample or task.p < RECOUNT_ALL_BELOW or rng.random() < RECOUNT_SHARE
    if k in ("trace", "local_zeta") and not recount:
        return _within_hasse(task, out)
    if k in ("trace", "local_zeta"):
        a_p = ref.naive_point_count(task.curve, task.p)
        t_p = task.p + 1 - a_p
        if k == "trace":
            if (out.A_p, out.t_p) != (a_p, t_p):
                return Outcome(False, None, f"trace at p={task.p} disagrees with a naive count")
            if t_p * t_p > 4 * task.p:
                return Outcome(False, None, "Hasse bound violated")
            return Outcome(True, None)
        exact = ref.local_zeta_exact(t_p, task.p, int(task.s_re))
        return _checked(out.value, None, exact)
    if k == "hasse_weil":
        curve = zv.derive_quantities(*task.curve)
        ctx = zv.PrecisionContext(task.prec)
        s = ctx.interval(task.s_re)
        coarse = zv.hasse_weil_partial(curve, s, task.primes_to // 8, ctx)
        if not out.value.intersects(coarse.value):
            return Outcome(False, None, "box misses the box from primes_to/8")
        disc = discriminant(task.curve)
        for p in rng.sample(_small_primes(task.primes_to), 2):
            a_p = ref.naive_point_count(task.curve, p)
            if disc % p and zv.count_points(curve, p) != a_p:
                return Outcome(False, None, f"a_p at p={p} disagrees with a naive count")
            if disc % p and (p + 1 - a_p) ** 2 > 4 * p:
                return Outcome(False, None, "Hasse bound violated")
        return Outcome(True, digits(out.value))
    raise ValueError(f"unknown task kind {k!r}")


def _within_hasse(task: Task, out) -> Outcome:
    """The output agrees with some trace t, |t| <= 2 sqrt(p)."""
    if task.kind == "trace":
        if out.A_p != task.p + 1 - out.t_p or out.t_p * out.t_p > 4 * task.p:
            return Outcome(False, None, "trace fails the Hasse bound")
        return Outcome(True, None)
    t_max = math.isqrt(4 * task.p)
    ends = [ref.local_zeta_exact(t, task.p, int(task.s_re)) for t in (-t_max, t_max)]
    lo, hi = _bounds(out.value.re)
    if hi < min(ends) or lo > max(ends):
        return Outcome(False, None, "local factor outside the Hasse range")
    return Outcome(True, digits(out.value))


def _small_primes(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if ref.is_prime(p)]
