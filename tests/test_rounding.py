"""Directed-rounding kernel: every result brackets the exact rational value."""

import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaval import functions as fn
from zetaval import rounding as rd
from zetaval.interval import PrecisionContext


def _rand_mpf(rng, emin=-60, emax=60, bits=80):
    m = rng.getrandbits(rng.randint(1, bits)) - (1 << (bits - 1) if rng.random() < 0.5 else 0)
    return rd.normalize(m, rng.randint(emin, emax))


def _check_directed(exact: Fraction, lo: rd.MPF, hi: rd.MPF):
    assert rd.to_fraction(lo) <= exact <= rd.to_fraction(hi)


def test_round_to_keeps_short_mantissas_exact():
    assert rd.round_to(5, 3, 53, rd.FLOOR) == (5, 3)
    assert rd.round_to(-12, -4, 53, rd.CEIL) == (-3, -2)


def test_round_to_directions():
    # 0b1111 at 3 bits: floor 0b111*2, ceil 0b1000*2
    assert rd.to_fraction(rd.round_to(15, 0, 3, rd.FLOOR)) == 14
    assert rd.to_fraction(rd.round_to(15, 0, 3, rd.CEIL)) == 16
    assert rd.to_fraction(rd.round_to(-15, 0, 3, rd.FLOOR)) == -16
    assert rd.to_fraction(rd.round_to(-15, 0, 3, rd.CEIL)) == -14


@pytest.mark.parametrize("prec", [53, 64, 128])
def test_field_ops_bracket_exact_values(prec):
    rng = random.Random(20240 + prec)
    for _ in range(300):
        x = _rand_mpf(rng)
        y = _rand_mpf(rng)
        fx, fy = rd.to_fraction(x), rd.to_fraction(y)
        _check_directed(fx + fy, rd.add(x, y, prec, rd.FLOOR), rd.add(x, y, prec, rd.CEIL))
        _check_directed(fx - fy, rd.sub(x, y, prec, rd.FLOOR), rd.sub(x, y, prec, rd.CEIL))
        _check_directed(fx * fy, rd.mul(x, y, prec, rd.FLOOR), rd.mul(x, y, prec, rd.CEIL))
        if fy != 0:
            _check_directed(fx / fy, rd.div(x, y, prec, rd.FLOOR), rd.div(x, y, prec, rd.CEIL))


def test_add_sticky_path_is_directed():
    big = (1, 0)
    for tiny in [(1, -500), (-1, -500), (3, -1000)]:
        exact = rd.to_fraction(big) + rd.to_fraction(tiny)
        _check_directed(exact, rd.add(big, tiny, 53, rd.FLOOR), rd.add(big, tiny, 53, rd.CEIL))


def test_sqrt_brackets():
    rng = random.Random(7)
    for _ in range(200):
        x = _rand_mpf(rng)
        if x[0] < 0:
            x = rd.abs_(x)
        fx = rd.to_fraction(x)
        lo = rd.to_fraction(rd.sqrt(x, 64, rd.FLOOR))
        hi = rd.to_fraction(rd.sqrt(x, 64, rd.CEIL))
        assert lo * lo <= fx <= hi * hi
    assert rd.sqrt((0, 0), 53, rd.FLOOR) == rd.ZERO


def test_sqrt_negative_raises():
    with pytest.raises(ValueError):
        rd.sqrt((-1, 0), 53, rd.FLOOR)


def test_cmp_exact():
    assert rd.cmp((1, 0), (1, 0)) == 0
    assert rd.cmp((1, 0), (3, -1)) < 0
    assert rd.cmp((-1, 10), (1, -10)) < 0
    assert rd.cmp((5, 2), (40, -1)) == 0  # both are 20


def test_to_float_directed():
    rng = random.Random(99)
    for _ in range(200):
        x = _rand_mpf(rng, emin=-300, emax=300, bits=90)
        fx = rd.to_fraction(x)
        lo = rd.to_float(x, rd.FLOOR)
        hi = rd.to_float(x, rd.CEIL)
        assert Fraction(lo) <= fx <= Fraction(hi)
    # saturation below the subnormal range keeps direction
    tiny = (1, -1200)
    assert rd.to_float(tiny, rd.FLOOR) == 0.0
    assert rd.to_float(tiny, rd.CEIL) > 0.0
    assert rd.to_float(rd.neg(tiny), rd.CEIL) == 0.0
    assert rd.to_float(rd.neg(tiny), rd.FLOOR) < 0.0
    huge = (1, 2000)
    assert rd.to_float(huge, rd.CEIL) == math.inf
    assert math.isfinite(rd.to_float(huge, rd.FLOOR))
    assert rd.to_float(rd.neg(huge), rd.FLOOR) == -math.inf
    assert math.isfinite(rd.to_float(rd.neg(huge), rd.CEIL))


def test_to_decimal_directed_and_parseable():
    rng = random.Random(1234)
    for _ in range(200):
        x = _rand_mpf(rng, emin=-120, emax=120)
        if x[0] == 0:
            continue
        fx = rd.to_fraction(x)
        for digits in (5, 17, 40):
            lo = Fraction(Decimal(rd.to_decimal(x, digits, rd.FLOOR)))
            hi = Fraction(Decimal(rd.to_decimal(x, digits, rd.CEIL)))
            assert lo <= fx <= hi


def test_to_decimal_carry():
    # 0.9999... forced up must carry into the next decade
    x = rd.from_fraction(Fraction(9999999, 10000000), 64, rd.CEIL)
    s = rd.to_decimal(x, 3, rd.CEIL)
    assert Fraction(Decimal(s)) >= rd.to_fraction(x)


def _ulp_neighbours(x: rd.MPF, prec: int) -> list[rd.MPF]:
    """x and the prec-bit floats one ulp below and above it, for x > 0."""
    m, e = x
    shift = prec - m.bit_length()
    m, e = m << shift, e - shift
    return [rd.normalize(m - 1, e), x, rd.normalize(m + 1, e)]


def test_to_decimal_exponent_at_powers_of_ten():
    # the exponent search starts from the upper integer bound and steps down,
    # so pin it where |x| crosses a power of ten: at 10**k (the two 64-bit
    # floats around it when it is not a float) and one ulp either side
    digits = 5
    for k in range(-300, 301):
        p10 = Fraction(10) ** k
        ends = {rd.from_fraction(p10, 64, rnd) for rnd in (rd.FLOOR, rd.CEIL)}
        for x in {y for end in ends for y in _ulp_neighbours(end, 64)}:
            fx = rd.to_fraction(x)
            E = k if fx >= p10 else k - 1  # 10**E <= x < 10**(E+1)
            for sign in (1, -1):
                for rnd in (rd.FLOOR, rd.CEIL):
                    out = rd.to_decimal((sign * x[0], x[1]), digits, rnd)
                    v = Fraction(Decimal(out))
                    away = (rnd == rd.CEIL) == (sign > 0)
                    assert (abs(v) >= fx) if away else (abs(v) <= fx)
                    assert abs(abs(v) - fx) < Fraction(10) ** (E - digits + 1)
                    # only a carry to the next power of ten moves the exponent
                    printed = int(out.split("e")[1])
                    if printed != E:
                        assert away and printed == E + 1 and abs(v) == Fraction(10) ** printed


def _decimal_parts(s: str) -> tuple[int, int]:
    """(digits, exponent) with s = digits * 10**exponent, without building 10**exponent."""
    m = re.fullmatch(r"(-?\d)(?:\.(\d+))?e([+-]\d+)", s)
    frac = m[2] or ""
    return int(m[1] + frac), int(m[3]) - len(frac)


def _certified_cmp(s: str, x: rd.MPF) -> int:
    """Sign of (s - x), for s and x of one sign, from certified logarithms."""
    digits, k = _decimal_parts(s)
    m, e = x
    assert (digits > 0) == (m > 0)
    pctx = PrecisionContext(max(k.bit_length(), e.bit_length()) + 128)

    def log(n: int):
        return fn.log(pctx.interval(n), pctx)

    log_s = pctx.add(log(abs(digits)), pctx.mul(pctx.interval(k), log(10)))
    log_x = pctx.add(log(abs(m)), pctx.mul(pctx.interval(e), log(2)))
    diff = pctx.sub(log_s, log_x)  # log|s| - log|x|
    assert not diff.contains_zero()
    return (1 if diff.strictly_positive() else -1) * (1 if m > 0 else -1)


@pytest.mark.parametrize("e", [-3 * 10**7, 3 * 10**7, -(10**400), 10**400])
@pytest.mark.parametrize("man", [1, 3, -1, -(2**100 + 1)])
def test_to_decimal_far_exponents_are_directed_bounds(man, e):
    x = (man, e)
    t0 = time.monotonic()
    lo, hi = rd.to_decimal(x, 5, rd.FLOOR), rd.to_decimal(x, 5, rd.CEIL)
    assert time.monotonic() - t0 < 1
    assert _certified_cmp(lo, x) < 0 < _certified_cmp(hi, x)


@pytest.mark.parametrize("e", [-40_000, -33_000, 33_000, 40_000])
def test_to_decimal_exact_around_exponent_cap(e):
    for man in (1, 7, -12345):
        fx = rd.to_fraction((man, e))
        lo = Fraction(Decimal(rd.to_decimal((man, e), 5, rd.FLOOR)))
        hi = Fraction(Decimal(rd.to_decimal((man, e), 5, rd.CEIL)))
        assert lo <= fx <= hi


def test_to_decimal_unprintable_exponents_fall_back_to_printable_bounds():
    # |x| = 2**(+-10**4001) has a decimal exponent of about 3e4000, past what
    # an int prints; toward zero the bound is 0 or 1e+(10**18 - 1), away from
    # it 1e-(10**18 - 1) or infinity
    near = "999999999999999999"
    for man in (1, -3):
        sign = "-" if man < 0 else ""
        tiny, huge = (man, -(10**4001)), (man, 10**4001)
        toward, away = (rd.FLOOR, rd.CEIL) if man > 0 else (rd.CEIL, rd.FLOOR)
        assert rd.to_decimal(tiny, 5, toward) == "0"
        assert rd.to_decimal(tiny, 5, away) == f"{sign}1e-{near}"
        assert rd.to_decimal(huge, 5, toward) == f"{sign}1e+{near}"
        assert rd.to_decimal(huge, 5, away) == f"{sign}inf"


def test_zero_renders_as_zero():
    assert rd.to_decimal(rd.ZERO, 10, rd.FLOOR) == "0"


def test_cmp_far_exponents_does_not_shift():
    # aligning these mantissas would need a 2**70-bit shift (OverflowError)
    assert rd.cmp((1, -2**70), (3, -2**70 + 5)) < 0
    assert rd.cmp((3, -2**70 + 5), (1, -2**70)) > 0
    assert rd.cmp((-1, -2**70), (-3, -2**70 + 5)) > 0
    assert rd.cmp((1, 2**70), (1, -2**70)) > 0
    assert rd.cmp((-5, 2**70), (-5, 2**70)) == 0


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers(-(2**80), 2**80), st.integers(-200, 200),
       st.integers(-(2**80), 2**80), st.integers(-200, 200))
def test_cmp_matches_fractions(mx, ex, my, ey):
    x, y = rd.normalize(mx, ex), rd.normalize(my, ey)
    fx, fy = rd.to_fraction(x), rd.to_fraction(y)
    assert rd.cmp(x, y) == (fx > fy) - (fx < fy)
