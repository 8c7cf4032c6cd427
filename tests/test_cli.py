"""CLI surface: output formats, enclosure-preserving rendering, exit codes."""

import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from zetaval.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_width_mode(capsys):
    code, out, err = run(capsys, "zeta", "--re", "2", "--im", "0", "--width", "1e-12")
    assert code == 0
    lo_line = [l for l in out.splitlines() if l.startswith("re in")][0]
    assert "1.6449340668482264" in lo_line
    assert "certified: true" in out


def test_zeta_json_schema_and_round_trip(capsys):
    code, out, err = run(capsys, "--json", "zeta", "--re", "2", "--im", "0", "--N", "16", "--k", "4")
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert list(payload.keys()) == ["cmd", "params", "value", "remainder", "certified", "ms"]
    assert set(payload["value"].keys()) == {"re", "im"}
    # byte-identical re-rendering
    assert json.dumps(payload, separators=(",", ":"), sort_keys=False) == line


def test_json_interval_strings_still_enclose(capsys):
    code, out, _ = run(capsys, "--json", "lfun", "--delta", "5", "--terms", "20")
    payload = json.loads(out)
    lo = Fraction(Decimal(payload["value"]["re"]["lo"]))
    hi = Fraction(Decimal(payload["value"]["re"]["hi"]))
    # class-number value of L(1, chi_5)
    truth = Fraction("0.4304089409640040388894332329506054254245706825")
    assert lo <= truth <= hi
    assert payload["certified"] is True


def test_siegel_prints_exact_rational(capsys):
    code, out, _ = run(capsys, "siegel", "--p", "13")
    assert code == 0
    assert "value = 1/6" in out


def test_trace_bad_prime_line(capsys):
    code, out, _ = run(capsys, "elliptic", "--coeffs", "0,-1,1,0,0", "--trace", "11")
    assert code == 0
    assert "bad: split node, t_p = 1" in out


def test_trace_good_prime_line(capsys):
    code, out, _ = run(capsys, "elliptic", "--coeffs", "0,-1,1,0,0", "--trace", "2")
    assert code == 0
    assert "good: t_p = -2" in out


def test_invariants_output(capsys):
    code, out, _ = run(capsys, "elliptic", "--coeffs", "0,-1,1,0,0", "--invariants")
    assert code == 0
    assert "disc = -11" in out and "j = -4096/11" in out


def test_invariants_print_an_integral_j_without_a_denominator(capsys):
    code, out, _ = run(capsys, "elliptic", "--coeffs", "0,0,0,1,0", "--invariants")
    assert code == 0
    assert "; j = 1728\n" in out


def test_local_zeta_output(capsys):
    code, out, _ = run(capsys, "--json", "elliptic", "--coeffs", "0,0,0,0,1", "--local", "5", "--s", "2")
    payload = json.loads(out)
    lo = Fraction(Decimal(payload["value"]["re"]["lo"]))
    hi = Fraction(Decimal(payload["value"]["re"]["hi"]))
    assert lo <= Fraction(21, 16) <= hi


def test_lseries_runs(capsys):
    code, out, _ = run(capsys, "elliptic", "--coeffs", "0,-1,1,0,0", "--lseries", "--s", "2", "--primes-up-to", "50")
    assert code == 0
    assert "re in [" in out


def test_lseries_at_a_large_integer_s_is_fast(capsys):
    # past the exact-rational range s <= 64, so p**s is never formed
    t0 = time.monotonic()
    code, out, _ = run(capsys, "elliptic", "--coeffs", "0,-1,1,0,0", "--lseries", "--s", "1000000",
                       "--primes-up-to", "1000")
    assert code == 0 and "re in [" in out
    assert time.monotonic() - t0 < 5


def test_moduli_and_hilbert(capsys):
    code, out, _ = run(capsys, "moduli-volume", "--g", "2")
    assert code == 0 and "1/12" in out
    code, out, _ = run(capsys, "hilbert-volume", "--p", "5")
    assert code == 0 and "1/15" in out


def test_zeta_special(capsys):
    code, out, _ = run(capsys, "zeta-special", "--neg", "-1")
    assert code == 0 and "-1/12" in out
    code, out, _ = run(capsys, "zeta-special", "--even", "1")
    assert code == 0 and "1/6" in out


def _remainder(out: str) -> Fraction:
    return Fraction(Decimal(json.loads(out)["remainder"]))


def test_dedekind_subcommand(capsys):
    code, out, _ = run(capsys, "dedekind", "--d", "5", "--s", "2", "--mode", "product")
    assert code == 0 and "re in [" in out
    # the divisor-bound tail alone gave a remainder of 7.97 here
    code, out, _ = run(capsys, "--json", "dedekind", "--d", "5", "--s", "1.6", "--mode", "direct")
    assert code == 0 and _remainder(out) < Fraction(1, 5)


def test_ldir_subcommand(capsys):
    code, out, _ = run(capsys, "ldir", "--char", "5,2", "--s", "2", "--N", "500")
    assert code == 0 and "re in [" in out
    # the trivial tail alone gave remainders of 9.94e2 and 1.01e-3 here
    code, out, _ = run(capsys, "--json", "ldir", "--char", "5,1", "--s", "1.001", "--N", "1000")
    assert code == 0 and _remainder(out) < Fraction(1, 100)
    code, out, _ = run(capsys, "--json", "ldir", "--char", "11,3", "--s", "2", "--N", "1000")
    assert code == 0 and _remainder(out) <= Fraction(2, 10**5)


@pytest.mark.parametrize(
    "char, re, im",
    [
        # principal: no Abel bound
        ("5,4", ("1.561137370428371932411534343298018037653e+00",
                 "1.581137370428371932411534343298018038091e+00"),
         ("-1.000000000000000000000000000000000000024e-02",
          "1.000000000000000000000000000000000000024e-02")),
        # q > N: the period is not scanned
        ("1009,1", ("1.259031728757357840327364279012997137585e+00",
                    "1.279031728757357840327364279012997138199e+00"),
         ("-2.447717944814301875257623659880123318452e-01",
          "-2.247717944814301875257623659880123317485e-01")),
    ],
)
def test_ldir_keeps_the_trivial_tail_where_no_abel_bound_applies(capsys, char, re, im):
    code, out, _ = run(capsys, "--json", "ldir", "--char", char, "--s", "2", "--N", "100")
    payload = json.loads(out)
    assert code == 0 and payload["remainder"] == "1.01e-02"
    assert payload["value"] == {"re": dict(zip(("lo", "hi"), re)), "im": dict(zip(("lo", "hi"), im))}


def test_precision_flag_changes_width(capsys):
    _, out_lo, _ = run(capsys, "--json", "--precision", "64", "zeta", "--re", "3")
    _, out_hi, _ = run(capsys, "--json", "--precision", "192", "zeta", "--re", "3")
    w_lo = json.loads(out_lo)["value"]["re"]
    w_hi = json.loads(out_hi)["value"]["re"]
    width_lo = Fraction(Decimal(w_lo["hi"])) - Fraction(Decimal(w_lo["lo"]))
    width_hi = Fraction(Decimal(w_hi["hi"])) - Fraction(Decimal(w_hi["lo"]))
    assert width_hi < width_lo


def test_exit_code_pole(capsys):
    code, _, err = run(capsys, "zeta", "--re", "1", "--im", "0")
    assert code == 3 and "pole" in err


def test_exit_code_domain(capsys):
    code, _, err = run(capsys, "zeta", "--re", "0.5")
    assert code == 2
    code, _, err = run(capsys, "siegel", "--p", "7")
    assert code == 2
    code, _, err = run(capsys, "dedekind", "--d", "12", "--s", "2", "--mode", "product")
    assert code == 2


def test_exit_code_usage(capsys):
    assert run(capsys, "nonsense")[0] == 64
    assert run(capsys, "zeta")[0] == 64  # missing --re
    assert run(capsys, "elliptic", "--coeffs", "1,2,3", "--invariants")[0] == 64
    assert run(capsys, "--precision", "10", "zeta", "--re", "2")[0] == 64


def test_precision_past_the_cap_is_a_usage_error(capsys):
    # 15000 bits print 4517 digits, past Python's 4300-digit int-to-str limit
    code, out, err = run(capsys, "--precision", "15000", "zeta-special", "--even", "1")
    assert code == 64 and out == ""
    assert "exceeds the cap of 10000" in err and "Traceback" not in err
    assert run(capsys, "--precision", "10000", "zeta-special", "--even", "1")[0] == 0


def test_uncertified_local_zeta_exit(capsys):
    code, _, err = run(capsys, "elliptic", "--coeffs", "0,0,0,0,1", "--local", "5", "--s", "0")
    assert code == 3


def test_non_finite_decimals_are_usage_errors(capsys):
    for argv in (
        ("zeta", "--re", "nan"),
        ("zeta", "--re", "inf"),
        ("zeta", "--re", "2", "--im=-Infinity"),
        ("zeta", "--re", "sNaN"),
        ("zeta", "--re", "2", "--width", "nan"),
        ("ldir", "--char", "5,2", "--s", "inf"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert "finite" in err and "Traceback" not in err


def test_nonpositive_width_is_domain_error(capsys):
    for width in ("--width=0", "--width=-1"):
        t0 = time.monotonic()
        code, _, err = run(capsys, "zeta", "--re", "2", width)
        assert code == 2 and "positive target width" in err
        assert time.monotonic() - t0 < 1


def test_resource_refusals_are_fast_domain_errors(capsys):
    for argv in (
        ("zeta", "--re", "2", "--N", "100000000"),
        ("zeta", "--re", "2", "--width", "1e-1000"),
        ("zeta", "--re", "2", "--im", "1e6", "--width", "1e-10"),
        # k past the best for N: once exit 0 with a box 1e166 wide, and with a remainder of 0.75
        ("zeta", "--re", "2", "--N", "40", "--k", "499"),
        ("zeta", "--re", "2", "--im", "30", "--N", "4", "--k", "6"),
    ):
        t0 = time.monotonic()
        code, _, err = run(capsys, *argv)
        assert code == 2 and "Traceback" not in err, argv
        assert time.monotonic() - t0 < 1, argv


def test_far_real_part_prints_power_of_ten_bounds(capsys):
    # 2**-s at Re s = 1e400 has a binary exponent near -1e400; at 1e4000,
    # exp squaring its way down used to run for over a minute; in width mode
    # the remainder and the box width once went through an exact rational
    # with a 2**(10**20)-sized denominator and overflowed
    width = ("--width", "1e-10")
    for argv in (
        ("--re", "1e400"),
        ("--re", "1000000"),
        ("--re", "1e4000"),
        ("--re", "1e20", *width),
        ("--re", "1e400", *width),
        ("--re", "1e40000", *width),
    ):
        t0 = time.monotonic()
        code, out, err = run(capsys, "zeta", *argv)
        assert code == 0 and "Traceback" not in err, argv
        assert time.monotonic() - t0 < 5, argv
        assert "--width" not in argv or "meets_target=True" in out, argv
        lines = dict(line.split(" in ", 1) for line in out.splitlines() if " in [" in line)
        re_lo, re_hi = lines["re"].strip("[]").split(", ")
        assert Fraction(Decimal(re_lo)) <= 1 <= Fraction(Decimal(re_hi))
        im_lo, im_hi = lines["im"].strip("[]").split(", ")
        assert im_lo.startswith("-1e-") and im_hi.startswith("1e-")


def test_width_mode_prints_a_box_no_wider_than_the_target(capsys):
    # the default 40 digits printed endpoints about 1e-39 apart for 1e-40
    for target in ("1e-40", "1e-150"):
        code, out, _ = run(capsys, "--json", "zeta", "--re", "2", "--im", "1", "--width", target)
        payload = json.loads(out)
        assert code == 0 and payload["params"]["meets_target"]
        for part in ("re", "im"):
            ends = payload["value"][part]
            width = Fraction(Decimal(ends["hi"])) - Fraction(Decimal(ends["lo"]))
            assert 0 < width <= Fraction(Decimal(target)), (target, part)


def test_exponent_past_print_limit_prints_readable_bounds(capsys):
    # at Re s = 1e40000 the exponent of 2**-s has over 4300 decimal digits,
    # too many to print; the bounds fall back to Decimal's exponent range
    code, out, err = run(capsys, "zeta", "--re", "1e40000")
    assert code == 0 and "Traceback" not in err
    lines = dict(line.split(" in ", 1) for line in out.splitlines() if " in [" in line)
    re_lo, re_hi = lines["re"].strip("[]").split(", ")
    assert Fraction(Decimal(re_lo)) <= 1 <= Fraction(Decimal(re_hi))
    im_lo, im_hi = (Decimal(v) for v in lines["im"].strip("[]").split(", "))
    assert im_lo < 0 < im_hi
    remainder = [line for line in out.splitlines() if line.startswith("remainder <= ")][0]
    assert Decimal(remainder.split("<= ")[1]) > 0


def test_point_count_limits_are_fast_domain_errors(capsys):
    curve = ("elliptic", "--coeffs", "0,-1,1,-10,-20")
    for argv in (
        (*curve, "--trace", "2147483659"),
        (*curve, "--local", "2147483659"),
        # just past the cap: 2000000000 took numpy's MemoryError, and a broken
        # cap should fail here on time rather than by allocating gigabytes
        (*curve, "--lseries", "--primes-up-to", "1000001"),
    ):
        t0 = time.monotonic()
        code, _, err = run(capsys, *argv)
        assert code == 2 and "Traceback" not in err, argv
        assert time.monotonic() - t0 < 1, argv


def test_width_mode_reports_the_precision_it_summed_at(capsys):
    # b = 500 bits for 1e-150, N = 72 has 7 bits: 500 + 7 + 32
    code, out, _ = run(capsys, "--json", "zeta", "--re", "2", "--im", "1", "--width", "1e-150")
    assert code == 0
    assert json.loads(out)["params"]["precision"] == 539


@pytest.mark.parametrize(
    "argv",
    [
        ("zeta", "--re", "2", "--im", "1"),
        ("zeta", "--re", "2", "--im", "1", "--width", "1e-10"),
        ("lfun", "--delta", "5", "--terms", "20"),
        ("ldir", "--char", "7,2", "--s", "2.5", "--N", "50"),
        ("dedekind", "--d", "5", "--s", "2", "--mode", "product"),
        ("dedekind", "--d", "5", "--s", "2", "--mode", "direct"),
        ("elliptic", "--coeffs", "0,0,0,0,1", "--local", "5", "--s", "2"),
        ("elliptic", "--coeffs", "0,-1,1,0,0", "--lseries", "--s", "2", "--primes-up-to", "100"),
    ],
)
def test_every_box_reports_its_precision(capsys, argv):
    # width mode sums at no less than --precision, and a 1e-10 target needs fewer bits
    code, out, _ = run(capsys, "--json", "--precision", "96", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["cmd"] == argv[0]
    assert payload["params"]["precision"] == 96


@pytest.mark.parametrize(
    "argv, remainder",
    [
        # k = 1 is the best k at N = 4, s = 2 + 30i, so its wide box is still printed
        (("--re", "2", "--im", "30", "--N", "4", "--k", "1"), "2.27e-01"),
        # F(50, 1) >= 4 F(50, 0), but no k lower than 1 exists
        (("--re", "50", "--N", "2", "--k", "1"), "2.05e-14"),
    ],
)
def test_the_best_k_for_a_small_n_still_runs(capsys, argv, remainder):
    code, out, _ = run(capsys, "zeta", *argv)
    assert code == 0 and f"remainder <= {remainder}" in out


def test_only_a_chosen_k_is_refused_past_the_best(capsys):
    # at s = 200 and 1024 bits, F(200, 6) >= 32**2 F(200, 5) and the bound is
    # 4e-302: the default (N, k) of zeta and the fixed (N, k) of the Dedekind
    # product still print their boxes; an explicit --k 6 is refused
    for argv in (("zeta", "--re", "200"), ("dedekind", "--d", "5", "--s", "200", "--mode", "product")):
        code, out, _ = run(capsys, "--precision", "1024", *argv)
        assert code == 0 and "certified: true" in out, argv
    code, _, err = run(capsys, "--precision", "1024", "zeta", "--re", "200", "--k", "6")
    assert code == 2 and "lower k or raise N" in err
    # k = 2 is the best k at N = 32: 3.10e-302 against 4.07e-302 at k = 6
    code, out, _ = run(capsys, "--precision", "1024", "zeta", "--re", "200", "--k", "2")
    assert code == 0 and "remainder <= 3.10e-302" in out


def test_decimal_exponents_past_the_cap_are_fast_usage_errors(capsys):
    # each n**-s of a table once carried an exponent of millions of digits:
    # 53 s and 4.3 GB for the ldir line, 24.7 s and 4.2 GB for dedekind;
    # a tiny exponent of the same size took 16 s for zeta
    for argv in (
        ("zeta", "--re", "1e50001"),
        ("zeta", "--re", "2", "--im=-1e-50001"),
        ("zeta", "--re", "2", "--im=1e-10000000"),
        ("ldir", "--char", "5,1", "--s", "1e10000000"),
        ("dedekind", "--d", "5", "--s", "1e1000000", "--mode", "direct"),
        ("zeta", "--re", "1e10000000"),
    ):
        t0 = time.monotonic()
        code, _, err = run(capsys, *argv)
        assert code == 64 and "exceeds the cap" in err and "Traceback" not in err, argv
        assert time.monotonic() - t0 < 1, argv


def test_decimal_exponent_at_the_cap_still_runs(capsys):
    code, out, _ = run(capsys, "dedekind", "--d", "5", "--s", "1e50000", "--mode", "direct")
    assert code == 0 and "certified: true" in out
