"""Operation counts of the hot interval kernels: a return of wasted work fails
here deterministically, without timing anything."""

from fractions import Fraction

import pytest

from zetaval import functions as fn
from zetaval import kernels
from zetaval import rounding as rd
from zetaval.characters import char_value, make_elementary
from zetaval.elliptic import derive_quantities, hasse_weil_partial, trace
from zetaval.errors import DomainError
from zetaval.exact import primes_up_to
from zetaval.interval import ComplexBox, PrecisionContext
from zetaval.zeta import EMParams, zeta_auto, zeta_em

ctx = PrecisionContext(128)


@pytest.fixture
def counts(monkeypatch):
    """Call counters on rd.mul, rd.div, rd.round_to, ctx.mul, ctx.div and the
    point evaluators in functions."""
    tally = {"mul": 0, "div": 0, "round_to": 0, "ctx_mul": 0, "ctx_div": 0,
             "sin_cos_point": 0, "exp_point": 0, "log_point": 0}

    def counting(owner, attr, key):
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            tally[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(rd, "mul", "mul")
    counting(rd, "div", "div")
    counting(rd, "round_to", "round_to")
    counting(PrecisionContext, "mul", "ctx_mul")
    counting(PrecisionContext, "div", "ctx_div")
    counting(fn, "_sin_cos_point", "sin_cos_point")
    counting(fn, "_exp_point", "exp_point")
    counting(fn, "_log_point", "log_point")
    return tally


def test_nonnegative_mul_rounds_one_product_per_side(counts):
    a = ctx.interval(Fraction(1, 3), Fraction(5, 7))
    b = ctx.interval(0, Fraction(9, 11))
    counts["mul"] = 0
    ctx.mul(a, b)
    assert counts["mul"] == 2


def test_positive_divisor_div_rounds_one_quotient_per_side(counts):
    a = ctx.interval(Fraction(-1, 3), Fraction(5, 7))
    b = ctx.interval(Fraction(2, 3), Fraction(9, 11))
    counts["div"] = 0
    ctx.div(a, b)
    assert counts["div"] == 2


def test_int_point_skips_division(counts):
    ctx.interval(7)
    assert counts["div"] == 0


def test_neg_power_evaluates_sin_cos_once_per_narrow_box(counts):
    # -Im(s) log 3 is a box about an ulp wide: one evaluation at its midpoint
    s = ComplexBox(ctx.interval(Fraction(3, 2)), ctx.interval(Fraction(7, 3)))
    fn.neg_power(3, s, ctx)
    assert counts["sin_cos_point"] == 1


def test_char_value_evaluates_sin_cos_once_per_root_of_unity(counts):
    # chi(3) = exp(2 pi i/6) for the character mod 7 with m = 1
    char_value(make_elementary(7, 1), 3, ctx)
    assert counts["sin_cos_point"] == 1


def test_exp_evaluates_a_narrow_box_once_and_a_wide_box_at_both_ends(counts):
    fn.exp(ctx.interval(Fraction(1, 3)), ctx)
    assert counts["exp_point"] == 1
    counts["exp_point"] = 0
    fn.exp(ctx.interval(Fraction(1, 10), Fraction(3, 10)), ctx)
    assert counts["exp_point"] == 2


def test_neg_power_reuses_log_n_at_the_same_precision(counts):
    fn.neg_power(3, ComplexBox(ctx.interval(Fraction(3, 2)), ctx.interval(5)), ctx)
    counts["log_point"] = 0
    fn.neg_power(3, ComplexBox(ctx.interval(Fraction(7, 3)), ctx.interval(-2)), ctx)
    assert counts["log_point"] == 0


def _ring_calls(counts, run) -> tuple[int, int, int]:
    """ctx.mul, ctx.div and rd.round_to calls made by run()."""
    counts.update(ctx_mul=0, ctx_div=0, round_to=0)
    run()
    return counts["ctx_mul"], counts["ctx_div"], counts["round_to"]


def test_sin_cos_point_sums_its_series_on_integers(counts):
    inner = ctx.with_precision(ctx.prec + fn._GUARD)
    v = ctx.interval(Fraction(7, 3)).lo
    fn._sin_cos_point(v, inner)  # fills the pi cache
    mul, div, rounds = _ring_calls(counts, lambda: fn._reduce(v, inner))
    point = _ring_calls(counts, lambda: fn._sin_cos_point(v, inner))
    # beyond the reduction: no ring mul or div, and one rounding per endpoint
    assert point[:2] == (mul, div) and point[2] - rounds <= 4


def test_log_point_sums_its_series_on_integers(counts):
    # 5/4 = u 2**0 with u in [~0.707, ~1.414): no n log 2 term
    inner = ctx.with_precision(ctx.prec + fn._GUARD)
    assert _ring_calls(counts, lambda: fn._log_point((5, -2), inner)) == (0, 0, 2)


def test_constants_and_atan_sum_their_series_on_integers(counts, monkeypatch):
    # a cold pi and ln2 fill, and atan at 0.2 <= 1/4 (no reflection, no
    # halving step), make no ring mul or div
    monkeypatch.setattr(fn, "_ref_cache", {})
    inner = ctx.with_precision(ctx.prec + fn._GUARD)
    v = ctx.interval(Fraction(1, 5)).lo
    for run in (lambda: fn.pi(ctx), lambda: fn.ln2(ctx), lambda: fn._atan_point(v, inner)):
        assert _ring_calls(counts, run)[:2] == (0, 0)


def test_exp_point_keeps_its_interval_taylor_loop(counts):
    # the counts of the interval loop before the other series moved to integers
    assert _ring_calls(counts, lambda: fn._exp_point(rd.ONE, PrecisionContext(160)))[:2] == (31, 31)


def test_zeta_auto_sums_only_the_answering_round(tables):
    # the parameters are chosen from the remainder bound before any sum, so
    # the one table built is the one that answers
    s = ComplexBox(ctx.interval(Fraction(3, 2)), ctx.interval(18))
    enc = zeta_auto(s, Fraction(1, 10**27), ctx)
    assert enc.meets_target
    assert tables == [enc.params.N]


def test_zeta_auto_refuses_a_cut_past_the_table_cap_before_any_table(tables):
    s = ComplexBox(ctx.interval(2), ctx.interval(10**6))
    with pytest.raises(DomainError, match="cap"):
        zeta_auto(s, Fraction(1, 10**10), ctx)
    assert tables == []


def _recording(monkeypatch, owner, attr, record):
    inner = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        record(*args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_zeta_em_bound_takes_no_working_precision_log_and_one_exp(monkeypatch):
    # at a non-integer s the table takes one exp per prime up to N; the
    # remainder bound takes one more, at 64 bits, and log N only at 96
    s = ComplexBox(ctx.interval(Fraction(3, 2)), ctx.interval(Fraction(7, 3)))
    zeta_em(s, EMParams(32, 6), ctx)  # fills the log(p) cache
    logs, log_points, exps = [], [], []
    _recording(monkeypatch, fn, "log", lambda x, c: logs.append(c.prec))
    _recording(monkeypatch, fn, "_log_point", lambda v, c: log_points.append(c.prec))
    _recording(monkeypatch, fn, "exp", lambda x, c: exps.append(c.prec))
    zeta_em(s, EMParams(32, 6), ctx)
    assert logs == [] and all(p < ctx.prec for p in log_points)
    assert len(exps) == len(primes_up_to(32)) + 1 and min(exps) == 64


def test_zeta_em_correction_takes_one_cmul_per_bernoulli_term(monkeypatch):
    s = ComplexBox(ctx.interval(Fraction(3, 2)), ctx.interval(Fraction(7, 3)))
    cmuls = []
    _recording(monkeypatch, PrecisionContext, "cmul", lambda *args: cmuls.append(1))
    made = {}
    for k in (1, 6, 20):
        cmuls.clear()
        zeta_em(s, EMParams(32, k), ctx)
        made[k] = len(cmuls)
    assert made[6] - made[1] == 5 and made[20] - made[6] == 14


def test_point_counts_near_1e6_never_loop_over_the_field(monkeypatch):
    calls = []
    naive = kernels._count_naive

    def counting(coeffs, p):
        calls.append(p)
        return naive(coeffs, p)

    monkeypatch.setattr(kernels, "_count_naive", counting)
    kernels.count_points_batch((0, -1, 1, 0, 0), [999983, 1000003])
    trace(derive_quantities(1, -1, 0, -4, 4), 1000033)
    assert calls == []
    kernels.count_points_batch((0, -1, 1, 0, 0), [229])  # the last prime counted naively
    assert calls == [229]


def test_hasse_weil_at_integer_s_takes_no_complex_step(monkeypatch):
    calls = []
    for owner, attr in ((fn, "neg_power"), (PrecisionContext, "cmul"), (PrecisionContext, "cdiv")):
        inner = getattr(owner, attr)

        def wrapper(*args, _inner=inner, _attr=attr, **kwargs):
            calls.append(_attr)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
    hasse_weil_partial(derive_quantities(0, -1, 1, 0, 0), ctx.interval(2), 1000, ctx)
    assert calls == []
