"""Inputs whose exact work would run for minutes or exhaust memory are refused
up front, and every A_p of the Hasse-Weil product comes from one batch count."""

import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from zetaval import elliptic, kernels
from zetaval.cli import main
from zetaval.elliptic import derive_quantities, hasse_weil_partial
from zetaval.exact import primes_up_to
from zetaval.interval import PrecisionContext

ctx = PrecisionContext(128)

BIG_PRIME = "1000000000000000000000000000057"


@pytest.mark.parametrize(
    "argv",
    [
        # Bernoulli numbers past the cap: the recurrence ran for minutes
        ("zeta-special", "--even", "1500"),
        ("zeta-special", "--neg", "-6001"),
        ("moduli-volume", "--g", "3001"),
        ("zeta", "--re", "2", "--k", "600"),
        # trial division of a 31-digit prime
        ("siegel", "--p", BIG_PRIME),
        ("hilbert-volume", "--p", BIG_PRIME),
        ("dedekind", "--d", BIG_PRIME, "--s", "2"),
        ("lfun", "--delta", BIG_PRIME),
        # a discrete-log table of 10**8 entries ended in MemoryError
        ("ldir", "--char", "100000007,1", "--s", "2", "--N", "10"),
    ],
)
def test_oversized_input_is_a_fast_domain_error(capsys, argv):
    t0 = time.monotonic()
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2 and "exceeds the cap" in err and "Traceback" not in err
    assert time.monotonic() - t0 < 1


def test_inputs_below_the_caps_still_run(capsys):
    assert main(["ldir", "--char", "1000003,1", "--s", "2", "--N", "10"]) == 0
    capsys.readouterr()
    # k = 444 needs B_890
    argv = ["--json", "--precision", "1024", "zeta", "--re", "2", "--im", "1", "--width", "1e-400"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["meets_target"] and payload["params"]["k"] == 444


def test_hasse_weil_counts_every_prime_in_one_batch(monkeypatch):
    calls = []
    batch = kernels.count_points_batch

    def counting(coeffs, primes):
        calls.append(list(primes))
        return batch(coeffs, primes)

    def no_trace(*args):
        raise AssertionError("hasse_weil_partial called trace")

    monkeypatch.setattr(kernels, "count_points_batch", counting)
    monkeypatch.setattr(elliptic, "trace", no_trace)
    e = derive_quantities(1, -1, 0, -4, 4)  # bad at 2 and 223
    hasse_weil_partial(e, ctx.interval(Fraction(5, 2)), 300, ctx)
    assert calls == [primes_up_to(300)]
    assert [p for p in calls[0] if e.disc % p == 0] == [2, 223]


@pytest.mark.parametrize("terms", ["600", "100000000"])
def test_lfun_sums_no_more_terms_than_can_narrow_the_box(capsys, terms):
    # past m = ceil(sqrt((prec + 64) ln 2 Delta/pi)) = 15 the terms are below the working ulp
    t0 = time.monotonic()
    assert main(["--json", "lfun", "--delta", "5", "--terms", terms]) == 0
    assert time.monotonic() - t0 < 2
    clamped = json.loads(capsys.readouterr().out)["value"]
    assert main(["--json", "lfun", "--delta", "5", "--terms", "15"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == clamped


def test_lfun_default_terms_give_a_narrow_box(capsys):
    # m = ceil(sqrt((128 + 64) ln 2 1001/pi)) = 206 terms
    assert main(["--json", "lfun", "--delta", "1001"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["terms"] == 206
    re = payload["value"]["re"]
    assert Fraction(Decimal(re["hi"])) - Fraction(Decimal(re["lo"])) < Fraction(1, 10**15)


def test_lfun_refuses_a_delta_past_the_default_term_cap(capsys):
    t0 = time.monotonic()
    assert main(["lfun", "--delta", "999999999989"]) == 2
    err = capsys.readouterr().err
    assert "past the cap of 3000" in err and "Traceback" not in err
    assert time.monotonic() - t0 < 2


def test_lfun_given_terms_do_not_pass_the_cap(capsys):
    # the m = 6.5e6 the clamp leaves of 10**8 terms was summed in full
    t0 = time.monotonic()
    assert main(["lfun", "--delta", "999999999989", "--terms", "100000000"]) == 2
    err = capsys.readouterr().err
    assert "past the cap of 3000" in err and "Traceback" not in err
    assert time.monotonic() - t0 < 2
    # the reported term count is the one summed
    assert main(["--json", "lfun", "--delta", "5", "--terms", "600"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["terms"] == 15
