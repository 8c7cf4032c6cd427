"""Command-line front end: one evaluator per subcommand, text or JSON lines.

Exit codes: 0 success, 2 domain/precondition error, 3 uncertified result
(pole proximity, uncertifiable divisor), 64 usage error.  Interval endpoints
are printed with the lower bound rounded down and the upper bound rounded up,
so printed output is still a valid enclosure when re-read as exact decimals.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import rounding as rd
from .characters import make_elementary
from .dedekind import DedekindParams, RealQuadraticField, dedekind_enclosure, hilbert_volume, siegel_zeta_minus1
from .dirichlet import l_one_quadratic, l_truncated
from .elliptic import ReductionKind, derive_quantities, hasse_weil_partial, local_zeta, trace
from .errors import (
    DivisionByZeroInterval,
    DomainError,
    NotPrime,
    PoleProximity,
    SingularModel,
    UncertifiedDivisor,
)
from .exact import QuadraticDiscriminant
from .interval import ComplexBox, PrecisionContext
from .zeta import EMParams, Enclosure, em_k_past_best, moduli_volume, zeta_auto, zeta_em, zeta_even, zeta_neg


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclass
class OutputRecord:
    cmd: str
    params: dict
    value: dict
    remainder: str
    ms: int
    certified: bool = True
    note: str | None = None

    def to_json(self) -> str:
        payload = {
            "cmd": self.cmd,
            "params": self.params,
            "value": self.value,
            "remainder": self.remainder,
            "certified": self.certified,
            "ms": self.ms,
        }
        return json.dumps(payload, separators=(",", ":"), sort_keys=False)

    def to_text(self) -> str:
        lines = [f"cmd: {self.cmd}"]
        if self.params:
            lines.append("params: " + ", ".join(f"{k}={v}" for k, v in self.params.items()))
        if "rational" in self.value:
            lines.append(f"value = {self.value['rational']}")
        else:
            re = self.value["re"]
            im = self.value["im"]
            lines.append(f"re in [{re['lo']}, {re['hi']}]")
            lines.append(f"im in [{im['lo']}, {im['hi']}]")
        if self.note:
            lines.append(self.note)
        lines.append(f"remainder <= {self.remainder}")
        lines.append(f"certified: {str(self.certified).lower()}")
        lines.append(f"elapsed: {self.ms} ms")
        return "\n".join(lines)


# the largest decimal exponent accepted in a number: past it, exp's underflow
# bound gives each n**-s of a table an exponent of millions of digits
_EXPONENT_CAP = 50_000


def _parse_exact(text: str) -> Fraction:
    try:
        value = Decimal(text)
    except InvalidOperation as exc:
        raise UsageError(f"not a decimal number: {text!r}") from exc
    if not value.is_finite():
        raise UsageError(f"not a finite decimal number: {text!r}")
    if abs(value.adjusted()) > _EXPONENT_CAP:
        raise UsageError(f"the decimal exponent of {text!r} exceeds the cap of {_EXPONENT_CAP}")
    return Fraction(value)


# the largest --precision accepted: it keeps the digits printed by _digits_for
# and _digits_within under Python's 4300-digit int-to-str limit
_PRECISION_CAP = 10_000


def _digits_for(prec: int) -> int:
    return max(17, int(prec * 0.30103) + 2)


def _digits_within(box: ComplexBox, target: Fraction, digits: int) -> int:
    """Significant digits, at least ``digits``, that print box no wider than target:
    rounding to d digits moves an endpoint x by under 10 |x| 10**-d, and both
    ends of a component must fit in the slack between its width and the target."""
    target_lo = rd.from_fraction(target, 64, rd.FLOOR)
    for c in (box.re, box.im):
        slack = rd.sub(target_lo, rd.sub(c.hi, c.lo, 64, rd.CEIL), 64, rd.FLOOR)
        if rd.sign(slack) > 0:
            gap = max(rd._top(c.lo), rd._top(c.hi)) - rd._top(slack) + 1
            digits = max(digits, -(-gap * 30103 // 100000) + 2)  # 0.30103 > log10(2)
    return digits


def _build_parser() -> _Parser:
    parser = _Parser(prog="zetaval", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit one JSON object per line")
    parser.add_argument("--precision", type=int, default=128, metavar="BITS",
                        help="working precision in bits (default 128)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_zeta = sub.add_parser("zeta", help="zeta(s) enclosure on Re(s) >= 1")
    p_zeta.add_argument("--re", required=True)
    p_zeta.add_argument("--im", default="0")
    # None when not given: only a chosen (N, k) is refused for a k past the best
    p_zeta.add_argument("--N", type=int, default=None, help="cut point (default 32)")
    p_zeta.add_argument("--k", type=int, default=None, help="Bernoulli corrections (default 6)")
    p_zeta.add_argument("--width", default=None, help="target width; switches to adaptive mode")

    p_special = sub.add_parser("zeta-special", help="exact zeta values")
    group = p_special.add_mutually_exclusive_group(required=True)
    group.add_argument("--even", type=int, help="n for zeta(2n) = r pi^(2n)")
    group.add_argument("--neg", type=int, help="integer a <= 0 for exact zeta(a)")

    p_lfun = sub.add_parser("lfun", help="L(1, chi_Delta) for a fundamental discriminant")
    p_lfun.add_argument("--delta", type=int, required=True)
    p_lfun.add_argument("--terms", type=int, default=None,
                        help="series length m, at most 3000 summed"
                             " (default: where terms fall below the working ulp)")

    p_ldir = sub.add_parser("ldir", help="truncated L(s, chi) for prime-modulus chi")
    p_ldir.add_argument("--char", required=True, metavar="q,m")
    p_ldir.add_argument("--s", required=True)
    p_ldir.add_argument("--N", type=int, default=1000)

    p_ded = sub.add_parser("dedekind", help="zeta_K(s) for K = Q(sqrt(D))")
    p_ded.add_argument("--d", type=int, required=True)
    p_ded.add_argument("--s", required=True)
    p_ded.add_argument("--mode", choices=["product", "direct"], default="product")

    p_siegel = sub.add_parser("siegel", help="exact zeta_K(-1) for Q(sqrt(p))")
    p_siegel.add_argument("--p", type=int, required=True)

    p_hv = sub.add_parser("hilbert-volume", help="orbifold volume 2 zeta_K(-1)")
    p_hv.add_argument("--p", type=int, required=True)

    p_mv = sub.add_parser("moduli-volume", help="moduli volume, exact rational")
    p_mv.add_argument("--g", type=int, required=True)

    p_ell = sub.add_parser("elliptic", help="Weierstrass curve evaluators")
    p_ell.add_argument("--coeffs", required=True, metavar="a1,a2,a3,a4,a6")
    mode = p_ell.add_mutually_exclusive_group(required=True)
    mode.add_argument("--invariants", action="store_true")
    mode.add_argument("--trace", type=int, metavar="p")
    mode.add_argument("--local", type=int, metavar="p")
    mode.add_argument("--lseries", action="store_true")
    p_ell.add_argument("--s", default="2")
    p_ell.add_argument("--primes-up-to", type=int, default=1000)

    return parser


def _record(params: dict, result: Enclosure | Fraction, digits: int = 0,
            note: str | None = None, certified: bool = True) -> OutputRecord:
    """The output of a subcommand, exact or a box; ``main`` fills in ``cmd`` and ``ms``."""
    if isinstance(result, Fraction):
        value, remainder = {"rational": str(result)}, "0"
    else:
        params["precision"] = result.prec
        box, radius = result.value, result.remainder_radius
        value = {part: dict(zip(("lo", "hi"), iv.to_decimal(digits)))
                 for part, iv in (("re", box.re), ("im", box.im))}
        remainder = "0" if radius == rd.ZERO else rd.to_decimal(radius, 3, rd.CEIL)
    return OutputRecord("", params, value, remainder, 0, certified, note)


def _run_zeta(args, ctx: PrecisionContext, digits: int) -> OutputRecord:
    s = ComplexBox(ctx.interval(_parse_exact(args.re)), ctx.interval(_parse_exact(args.im)))
    if args.width is None:
        chosen = {key: v for key, v in (("N", args.N), ("k", args.k)) if v is not None}
        params = EMParams(**chosen)
        if chosen and em_k_past_best(s, params, ctx.prec):
            raise DomainError(
                f"the remainder bound grows at k = {params.k} for N = {params.N}; lower k or raise N")
        enc = zeta_em(s, params, ctx)
        return _record({"re": args.re, "im": args.im, "N": params.N, "k": params.k}, enc, digits)
    target = _parse_exact(args.width)
    enc = zeta_auto(s, target, ctx)
    params = {"re": args.re, "im": args.im, "width": args.width, "N": enc.params.N,
              "k": enc.params.k, "meets_target": enc.meets_target}
    return _record(params, enc, _digits_within(enc.value, target, digits))


def _run_zeta_special(args, ctx: PrecisionContext, digits: int) -> OutputRecord:
    if args.neg is not None:
        return _record({"neg": args.neg}, zeta_neg(args.neg))
    ze = zeta_even(args.even)
    lo, hi = ze.enclosure(ctx).to_decimal(digits)
    note = f"zeta({2 * args.even}) = r * pi^{ze.pi_power}, enclosed in [{lo}, {hi}]"
    return _record({"even": args.even, "precision": ctx.prec}, ze.coefficient, note=note)


def _run_elliptic(args, ctx: PrecisionContext, digits: int) -> OutputRecord:
    try:
        parts = [int(c) for c in args.coeffs.split(",")]
    except ValueError as exc:
        raise UsageError("coefficients must be integers a1,a2,a3,a4,a6") from exc
    if len(parts) != 5:
        raise UsageError("need exactly five coefficients a1,a2,a3,a4,a6")
    curve = derive_quantities(*parts)
    params = {"coeffs": args.coeffs}

    if args.invariants:
        j = "undefined" if curve.j is None else str(curve.j)
        names = ("b2", "b4", "b6", "b8", "c4", "c6", "disc")
        note = "; ".join(f"{k} = {getattr(curve, k)}" for k in names)
        return _record({**params, "invariants": True}, Fraction(curve.disc),
                       note=f"{note}; j = {j}", certified=not curve.is_singular)
    if args.trace is not None:
        info = trace(curve, args.trace)
        if info.kind is ReductionKind.GOOD:
            note = f"good: t_p = {info.t_p}, A_p = {info.A_p}"
        else:
            note = f"bad: {info.kind.value}, t_p = {info.t_p}"
        return _record({**params, "trace": info.p, "kind": info.kind.value}, Fraction(info.t_p), note=note)
    s = ctx.interval(_parse_exact(args.s))
    if args.local is not None:
        enc = local_zeta(curve, args.local, ComplexBox(s, ctx.zero()), ctx)
        return _record({**params, "local": args.local, "s": args.s}, enc, digits)
    enc = hasse_weil_partial(curve, s, args.primes_up_to, ctx)
    params.update(lseries=True, s=args.s, primes_up_to=args.primes_up_to)
    return _record(params, enc, digits)


def _dispatch(args, ctx: PrecisionContext) -> OutputRecord:
    digits = _digits_for(ctx.prec)
    if args.command == "zeta":
        return _run_zeta(args, ctx, digits)
    if args.command == "zeta-special":
        return _run_zeta_special(args, ctx, digits)
    if args.command == "lfun":
        disc = QuadraticDiscriminant.from_discriminant(args.delta)
        # with no --terms, l_one_quadratic clamps m to where terms fall below the ulp
        terms = sys.maxsize if args.terms is None else args.terms
        enc = l_one_quadratic(disc.D, terms, ctx)
        return _record({"delta": args.delta, "terms": enc.params.m}, enc, digits)
    if args.command == "ldir":
        try:
            q_str, m_str = args.char.split(",")
            q, m = int(q_str), int(m_str)
        except ValueError as exc:
            raise UsageError("--char expects q,m with integers q and m") from exc
        s = ComplexBox(ctx.interval(_parse_exact(args.s)), ctx.zero())
        enc = l_truncated(make_elementary(q, m), s, args.N, ctx)
        return _record({"char": args.char, "s": args.s, "N": args.N}, enc, digits)
    if args.command == "dedekind":
        K = RealQuadraticField.of(args.d)
        enc = dedekind_enclosure(K, ctx.interval(_parse_exact(args.s)), args.mode, DedekindParams(), ctx)
        return _record({"d": args.d, "s": args.s, "mode": args.mode}, enc, digits)
    if args.command == "siegel":
        return _record({"p": args.p}, siegel_zeta_minus1(args.p))
    if args.command == "hilbert-volume":
        return _record({"p": args.p}, hilbert_volume(args.p))
    if args.command == "moduli-volume":
        return _record({"g": args.g}, moduli_volume(args.g, ctx)[0])
    if args.command == "elliptic":
        return _run_elliptic(args, ctx, digits)
    raise UsageError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    try:
        if args.precision > _PRECISION_CAP:
            raise ValueError(f"--precision {args.precision} exceeds the cap of {_PRECISION_CAP} bits")
        ctx = PrecisionContext(args.precision)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    t0 = time.monotonic()
    try:
        record = _dispatch(args, ctx)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (PoleProximity, UncertifiedDivisor) as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return 3
    except (DomainError, NotPrime, SingularModel, DivisionByZeroInterval) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    record.cmd, record.ms = args.command, int((time.monotonic() - t0) * 1000)
    print(record.to_json() if args.json else record.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
