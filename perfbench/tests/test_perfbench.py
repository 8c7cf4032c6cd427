"""Tests of the benchmark itself: seeding, input domains, checks, tracing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import zetaval  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
import yardstick as ys  # noqa: E402
from tracer import Tracer  # noqa: E402

SEEDS = range(6)


def _tasks(workload: str):
    for seed in SEEDS:
        for index in range(3):
            yield from wl.cycle(workload, seed, index)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert wl.cycle(workload, 7, 2) == wl.cycle(workload, 7, 2)
    assert wl.cycle(workload, 7, 2) != wl.cycle(workload, 8, 2)
    assert wl.cycle(workload, 7, 2) != wl.cycle(workload, 7, 3)


def _traced_counts(tasks):
    """Per-layer metrics that must repeat exactly: counts and ratios."""
    for task in tasks:  # warm the lazy constants, as the benchmark does
        wl.evaluate(zetaval, task)
    tr = Tracer(zetaval)
    tr.install()
    try:
        for task in tasks:
            wl.evaluate(zetaval, task)
    finally:
        tr.uninstall()
    setup = {"import_s": 0.0, "constants_s": 0.0}
    metrics = run.layer_metrics(tr, setup, 1.0, 1.0)
    return {k: v for k, v in metrics.items() if run.PER_LAYER[k] in ("count", "ratio", "fraction")
            and k != "trace.overhead_frac"}


def test_same_seed_gives_identical_counts():
    zeta = wl.cycle("zeta_complex", 3, 0)
    lser = wl.cycle("lseries_real", 3, 0)
    ell = wl.cycle("elliptic_lseries", 3, 0)
    tasks = [zeta[0], zeta[1], next(t for t in lser if t.kind == "l_truncated"),
             next(t for t in lser if t.kind == "dedekind_direct"), ell[0], ell[1]]
    first = _traced_counts(tasks)
    assert first == _traced_counts(tasks)
    assert first["interval.rd_per_mul"] > 0 and first["rounding.round_to.calls"] > 0
    assert first["kernels.primes_counted"] > 0 and first["exact.kronecker.calls"] > 0


def test_tracer_patches_every_binding_and_restores_them():
    originals = (zetaval.dirichlet.char_value, zetaval.dedekind.l_truncated,
                 zetaval.zeta_em, zetaval.PrecisionContext.mul)
    tr = Tracer(zetaval)
    tr.install()
    try:
        assert zetaval.dirichlet.char_value is zetaval.characters.char_value
        assert zetaval.dirichlet.char_value is not originals[0]
        assert zetaval.dedekind.l_truncated is zetaval.dirichlet.l_truncated
        assert zetaval.zeta_em is zetaval.zeta.zeta_em is zetaval.dedekind.zeta_em
        assert zetaval.PrecisionContext.mul is not originals[3]
    finally:
        tr.uninstall()
    assert (zetaval.dirichlet.char_value, zetaval.dedekind.l_truncated,
            zetaval.zeta_em, zetaval.PrecisionContext.mul) == originals


def _box_in(t: wl.Task, lo: Fraction, hi: Fraction) -> bool:
    return lo <= t.s_re - t.radius and t.s_re + t.radius <= hi


def _non_integer(t: wl.Task) -> bool:
    return math.floor(t.s_re - t.radius) == math.floor(t.s_re + t.radius) \
        and (t.s_re - t.radius).denominator != 1


def test_zeta_inputs_lie_in_the_documented_domain():
    for t in _tasks("zeta_complex"):
        assert t.kind in ("zeta_em", "zeta_auto") and t.prec == 128
        assert _box_in(t, Fraction(1), Fraction(3)) and t.s_re - t.radius > 1
        assert 1 <= abs(t.s_im) - t.radius and abs(t.s_im) + t.radius <= 60  # away from the pole
        if t.kind == "zeta_auto":
            assert Fraction(1, 10**30) <= t.target <= Fraction(1, 10**15)
            # an input box far narrower than the target keeps the target reachable
            assert t.radius <= t.target / 10**5
        else:
            assert t.target is None


def test_lseries_inputs_lie_in_the_documented_domain():
    kinds = set()
    for t in _tasks("lseries_real"):
        kinds.add((t.kind, t.prec))
        if t.kind == "l_one_quadratic":
            assert t.D >= 2 and ref.is_squarefree(t.D) and t.terms >= 1
            continue
        assert _non_integer(t), "integer s takes neg_power's exact shortcut"
        if t.kind == "l_truncated":
            assert ref.is_prime(t.modulus) and t.modulus > 2
            assert 1 <= t.char_index <= t.modulus - 2  # non-principal
            assert t.s_re - t.radius > 1 and t.terms >= 2
        else:
            assert t.D >= 2 and ref.is_squarefree(t.D)
            floor = Fraction(3, 2) if t.kind == "dedekind_direct" else Fraction(1)
            assert t.s_re - t.radius > floor
    assert {k for k, _ in kinds} == {"l_one_quadratic", "l_truncated", "dedekind_product",
                                     "dedekind_direct"}
    assert {p for _, p in kinds} == {128, 512}


def test_elliptic_inputs_lie_in_the_documented_domain():
    for t in _tasks("elliptic_lseries"):
        disc = wl.discriminant(t.curve)
        assert disc != 0
        assert zetaval.derive_quantities(*t.curve).disc == disc
        assert t.s_re in (2, 3) and t.radius == 0
        if t.kind == "hasse_weil":
            assert 1000 <= t.primes_to <= 50_000
        else:
            assert ref.is_prime(t.p) and 10_000 <= t.p <= 1_000_000
            assert disc % t.p, "local_zeta needs a good prime"


def test_reference_check_rejects_a_shifted_box():
    rng = random.Random(0)
    ctx = zetaval.PrecisionContext(128)
    for task in (wl.cycle("zeta_complex", 1, 0)[0],
                 next(t for t in wl.cycle("lseries_real", 1, 0) if t.kind == "dedekind_product")):
        out = wl.evaluate(zetaval, task)
        assert wl.check(zetaval, task, out, rng).ok
        re = out.value.re
        shift = 2 * (re.hi_fraction - re.lo_fraction)
        moved = ctx.interval(re.lo_fraction + shift, re.hi_fraction + shift)
        shifted = SimpleNamespace(value=zetaval.ComplexBox(moved, out.value.im))
        outcome = wl.check(zetaval, task, shifted, rng)
        assert not outcome.ok and "misses" in outcome.reason


def test_reference_check_rejects_a_wrong_point_count():
    task = next(t for t in wl.cycle("elliptic_lseries", 1, 0) if t.kind == "trace")
    out = wl.evaluate(zetaval, task)
    assert wl.check(zetaval, task, out, random.Random(0)).ok
    wrong = SimpleNamespace(A_p=out.A_p + 2, t_p=out.t_p - 2)
    assert not wl.check(zetaval, task, wrong, random.Random(0)).ok


def test_adaptive_digits_are_capped_at_the_target():
    ctx = zetaval.PrecisionContext(128)
    one = Fraction(1)
    box = zetaval.ComplexBox(ctx.interval(one - Fraction(1, 10**25), one + Fraction(1, 10**25)),
                             ctx.zero())
    assert wl.digits(box) == pytest.approx(25 - math.log10(2), abs=1e-6)
    assert wl.digits(box, Fraction(1, 10**15)) == pytest.approx(15, abs=1e-9)
    # a box that misses its target is not capped upward
    assert wl.digits(box, Fraction(1, 10**30)) == wl.digits(box)
    assert wl.digits(zetaval.ComplexBox(ctx.one(), ctx.zero())) is None


def test_adaptive_call_that_misses_its_target_fails():
    task = wl.cycle("zeta_complex", 1, 0)[1]
    assert task.kind == "zeta_auto"
    out = SimpleNamespace(meets_target=False, value=None)
    assert not wl.check(zetaval, task, out, random.Random(0)).ok


def test_tail_percentile_keeps_ten_evaluations_beyond_it():
    assert run.tail([1.0] * 39)[0] == 50
    assert run.tail(list(range(40)))[0] == 75
    assert run.tail(list(range(100))) == (90, 89)
    assert run.tail(list(range(12)))[0] == 50
    # the percentile follows the least number of evaluations a run makes
    assert run.tail(list(range(150)), 50) == (75, 112)
    assert run.tail(list(range(50)), 50) == (75, 37)


def test_scale_follows_the_yardsticks_near_an_evaluation():
    nominal = ys.NOMINAL_S
    probes = [(0.0, nominal), (1.0, nominal), (2.0, nominal),
              (10.0, 2 * nominal), (11.0, 2 * nominal), (12.0, 2 * nominal)]
    assert ys.scale(probes, 1.0) == 1.0
    assert ys.scale(probes, 11.0) == 0.5
    assert ys.scale(probes, 100.0) == 0.5  # nothing near: the three nearest


def test_naive_point_count_matches_brute_force():
    for coeffs in ((0, -1, 1, -10, -20), (1, 0, 1, 3, -7)):
        for p in (2, 3, 5, 7, 11, 13):
            brute = 1 + sum(
                (y * y + coeffs[0] * x * y + coeffs[2] * y
                 - x**3 - coeffs[1] * x * x - coeffs[3] * x - coeffs[4]) % p == 0
                for x in range(p) for y in range(p))
            assert ref.naive_point_count(coeffs, p) == brute


def test_unsampled_point_count_is_held_to_the_hasse_bound():
    task = next(t for t in wl.cycle("elliptic_lseries", 1, 0)
                if t.kind == "trace" and t.p >= wl.RECOUNT_ALL_BELOW)
    never = SimpleNamespace(random=lambda: 1.0)
    out = wl.evaluate(zetaval, task)
    assert wl.check(zetaval, task, out, never, sample=True).ok
    big = math.isqrt(4 * task.p) + 1
    wrong = SimpleNamespace(A_p=task.p + 1 - big, t_p=big)
    assert not wl.check(zetaval, task, wrong, never, sample=True).ok
