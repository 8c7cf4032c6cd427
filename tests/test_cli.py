"""CLI surface: output formats, enclosure-preserving rendering, exit codes."""

import json
import time
from decimal import Decimal
from fractions import Fraction

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


def test_dedekind_subcommand(capsys):
    code, out, _ = run(capsys, "dedekind", "--d", "5", "--s", "2", "--mode", "product")
    assert code == 0 and "re in [" in out


def test_ldir_subcommand(capsys):
    code, out, _ = run(capsys, "ldir", "--char", "5,2", "--s", "2", "--N", "500")
    assert code == 0 and "re in [" in out


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
