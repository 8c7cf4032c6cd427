"""Bit-exact endpoints of the series-based enclosures.

Every truncated series stops at a data-dependent term and widens by a tail
bound; one term more or less, or a different tail radius, moves the last bits
of an endpoint.  These pins hold the exact ``(man, exp)`` endpoints of the
elementary functions, the constants and the special functions over a fixed
grid (negative, tiny, near multiples of pi/2, wide boxes, both sides of the
E1/erfc series cut-overs) at 128 and 512 bits, plus three evaluators built on
them.  The public functions round guard-bit results outward to the caller's
precision, which usually hides a term more or less, so the ``raw_*`` groups
also pin the private point evaluators and the cached constant references at
their internal precision, where every term and tail radius shows.  Regenerate the table with ``python tests/test_series_pins.py`` only for
a change that is meant to move endpoints.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from zetaval import dirichlet
from zetaval import functions as fn
from zetaval import rounding as rd
from zetaval.characters import make_elementary
from zetaval.dirichlet import erfc_enclosure, exp_integral, l_one_quadratic, l_truncated
from zetaval.interval import ComplexBox, PrecisionContext
from zetaval.zeta import EMParams, zeta_em

PRECS = (128, 512)
CONST_PRECS = (53, 64, 128, 200, 384, 512, 700, 1024)

# a string is the (outward-rounded) decimal point, a pair is a wide box
GRID = {
    "exp": ["-3.7", "-1e-30", "0.5", "1", "2.75", "40", "-100", ("0.1", "0.3")],
    "log": ["1e-20", "0.3", "0.70703125", "1", "1.5", "2", "1e30", ("0.5", "3")],
    "sin": ["-2.5", "1e-25", "0.5", "1.5707963267948966", "3.141592653589793", "10", "-1e5",
            ("1", "2"), ("0.2", "0.4")],
    "cos": ["-2.5", "1e-25", "0.5", "1.5707963267948966", "3.141592653589793", "10", "-1e5",
            ("1", "2"), ("0.2", "0.4")],
    "atan": ["-3", "1e-30", "0.2", "0.25", "0.9", "1", "7", "1e6", ("-1", "2")],
    "exp_integral": ["1e-10", "0.5", "1", "5", "20", "33", "34", "40", ("0.5", "1")],
    "erfc_enclosure": ["0", "1e-8", "0.1", "1", "3", "5.9", "6", "7", ("0.5", "2")],
}

FUNCS = {
    "exp": fn.exp,
    "log": fn.log,
    "sin": fn.sin,
    "cos": fn.cos,
    "atan": fn.atan,
    "exp_integral": exp_integral,
    "erfc_enclosure": erfc_enclosure,
}


def _exact(text: str) -> Fraction:
    return Fraction(Decimal(text))


def _arg(ctx: PrecisionContext, a):
    if isinstance(a, tuple):
        return ctx.interval(_exact(a[0]), _exact(a[1]))
    return ctx.interval(_exact(a))


def _ends(iv):
    return (iv.lo, iv.hi)


def _box_ends(box: ComplexBox):
    return (_ends(box.re), _ends(box.im))


def _points(group: str):
    """The grid's point arguments (a box contributes its lower end)."""
    for prec in PRECS:
        ctx = PrecisionContext(prec)
        for a in GRID[group]:
            yield f"{a if isinstance(a, str) else a[0]}@{prec}", _arg(ctx, a).lo, prec


def _raw(group: str) -> dict:
    out = {}
    if group == "raw_refs":
        for p in CONST_PRECS:
            for name in ("pi", "ln2"):
                getattr(fn, name)(PrecisionContext(p))
                out[f"{name}@{p}"] = _ends(fn._ref_cache[(name, fn._ref_level(p))])
        for q in (2, 3, 5, 239):
            out[f"atan(1/{q})"] = _ends(fn._atan_inv_int(q, PrecisionContext(300)))
        return out
    name = group[len("raw_"):]
    for key, v, prec in _points(name):
        inner = PrecisionContext(prec + 32)
        if name == "exp":
            out[key] = _ends(fn._exp_point(v, inner))
        elif name == "log":
            out[key] = _ends(fn._log_point(v, inner))
        elif name == "sin":
            out[key] = tuple(_ends(iv) for iv in fn._sin_cos_point(v, inner))
        elif name == "atan":
            out[key] = _ends(fn._atan_point(v, inner))
        elif name == "exp_integral":
            out[key] = _ends(dirichlet._e1_point(v, prec + 16))
        else:
            out[key] = _ends(dirichlet._erfc_point(v, prec + 16))
    return out


def compute(group: str) -> dict:
    """Endpoints of one group, keyed by argument and precision."""
    if group.startswith("raw_"):
        return _raw(group)
    if group in ("pi", "ln2"):
        f = getattr(fn, group)
        return {str(p): _ends(f(PrecisionContext(p))) for p in CONST_PRECS}
    if group in FUNCS:
        out = {}
        for prec in PRECS:
            ctx = PrecisionContext(prec)
            for a in GRID[group]:
                label = a if isinstance(a, str) else f"[{a[0]},{a[1]}]"
                out[f"{label}@{prec}"] = _ends(FUNCS[group](_arg(ctx, a), ctx))
        return out
    ctx = PrecisionContext(128)
    if group == "zeta_em":
        s = ComplexBox(ctx.interval(1), ctx.interval(1))
        enc = zeta_em(s, EMParams(32, 6), ctx)
    elif group == "l_one_quadratic":
        enc = l_one_quadratic(13, 20, ctx)
    else:
        s = ComplexBox(ctx.interval(_exact("2.5")), ctx.zero())
        enc = l_truncated(make_elementary(7, 1), s, 200, ctx)
    return {"value": _box_ends(enc.value), "radius": enc.remainder_radius}


GROUPS = [
    "pi", "ln2", *FUNCS, "zeta_em", "l_one_quadratic", "l_truncated",
    "raw_refs", "raw_exp", "raw_log", "raw_sin", "raw_atan", "raw_exp_integral", "raw_erfc_enclosure",
]


@pytest.mark.parametrize("group", GROUPS)
def test_series_endpoints_pinned(group):
    got = compute(group)
    want = PINS[group]
    assert got.keys() == want.keys()
    moved = [k for k in want if got[k] != want[k]]
    assert not moved, f"{group}: endpoints moved at {moved}"


def test_sin_cos_makes_no_float_decision(monkeypatch):
    def refuse(*args):
        raise AssertionError("sin_cos converted an endpoint to a float")

    monkeypatch.setattr(rd, "to_float", refuse)
    for prec in PRECS:
        ctx = PrecisionContext(prec)
        for a in dict.fromkeys(GRID["sin"] + GRID["cos"]):
            fn.sin_cos(_arg(ctx, a), ctx)


# fmt: off
# What these pins held while sin and cos evaluated every box at both ends:
# each is next to an extremum that the float crossing test of that path,
# padded for rounding, could not rule out, so it hulled in +-1.  The midpoint
# path for narrow boxes moved exactly these, and each new pin must lie inside
# its old box.
ENDPOINT_PATH_PINS: dict = {
    ('sin', '1.5707963267948966@128'): ((0x7fffffffffffffffffffffffffff8519, -127), (0x1, 0)),
    ('sin', '1.5707963267948966@512'): ((0xffffffffffffffffffffffffffff0a325972508d7a8a720cbc0505c51b58b283ad16b01888020e8c85f84c89d077ba4b440f9fb1f1bef58f468da09d9e8f1be1, -512), (0x1, 0)),
    ('cos', '1e-25@512'): ((0x3fffffffffffffffffffffffffffffffffffffffff884616d4ad1f8441b4e0ccbd38495ddfdaa1d30ddf26a18e68f64e467e07ddcbbc7b21a6b10033089cfc0b, -510), (0x1, 0)),
    ('cos', '3.141592653589793@128'): ((-0x1, 0), (-0x7fffffffffffffffffffffffffb62f8d, -127)),
    ('cos', '3.141592653589793@512'): ((-0x1, 0), (-0x3fffffffffffffffffffffffffdb17c68c6209ca3f0055274e1fe94a8598846db5abc6368a56ea0041c3156d727d278d55aeeae1097078046f8a4a2946eadbef, -510)),
}
# fmt: on


@pytest.mark.parametrize("group,key", list(ENDPOINT_PATH_PINS))
def test_moved_trig_pins_lie_inside_the_endpoint_boxes(group, key):
    (lo, hi), (old_lo, old_hi) = PINS[group][key], ENDPOINT_PATH_PINS[group, key]
    assert rd.cmp(old_lo, lo) <= 0 and rd.cmp(hi, old_hi) <= 0
    assert (lo, hi) != (old_lo, old_hi)


# SERIES_PATH_PINS, at the end of the file, holds what these groups pinned
# while sin/cos, log's atanh, E1, erfc, atan and the pi and ln2 references
# summed their series one interval term at a time.  On the fixed-point kernel
# every raw box moved; each new box must contain the value and meet its old
# box, and a moved public box must lie inside its old one.
_MP_FUNCS = {"sin": (mpmath.sin, mpmath.cos), "log": (mpmath.log,), "atan": (mpmath.atan,),
             "exp_integral": (mpmath.e1,), "erfc_enclosure": (mpmath.erfc,)}


def _mp_exact(value, prec: int) -> Fraction:
    """value() from mpmath at 2 prec + 32 bits, as an exact fraction."""
    with mpmath.workprec(2 * prec + 32):
        y = value()
    sign, man, e, _ = y._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** e


def _true_values(group: str) -> dict:
    """Each key of a group and the values its box (raw_sin: its two boxes) encloses."""
    if group == "raw_refs":
        out = {}
        for p in CONST_PRECS:
            ref_prec = fn._ref_level(p) + 16
            out[f"pi@{p}"] = [_mp_exact(lambda: +mpmath.pi, ref_prec)]
            out[f"ln2@{p}"] = [_mp_exact(lambda: +mpmath.ln2, ref_prec)]
        for q in (2, 3, 5, 239):
            out[f"atan(1/{q})"] = [_mp_exact(lambda: mpmath.atan(mpmath.mpf(1) / q), 300)]
        return out
    name = group.removeprefix("raw_")
    return {key: [_mp_exact(lambda: f(mpmath.ldexp(mpmath.mpf(v[0]), v[1])), prec)
                  for f in _MP_FUNCS[name]]
            for key, v, prec in _points(name)}


@pytest.mark.parametrize("group", ["sin", "atan", "raw_sin", "raw_log", "raw_atan",
                                   "raw_exp_integral", "raw_erfc_enclosure", "raw_refs"])
def test_moved_series_pins_contain_the_value_and_meet_the_old_boxes(group):
    values = _true_values(group)
    old_pins = SERIES_PATH_PINS[group]
    assert old_pins.keys() <= PINS[group].keys()
    for key, old in old_pins.items():
        new = PINS[group][key]
        pairs = zip(new, old) if group == "raw_sin" else [(new, old)]
        for value, ((lo, hi), (old_lo, old_hi)) in zip(values[key], pairs):
            assert rd.to_fraction(lo) <= value <= rd.to_fraction(hi), key
            assert rd.cmp(lo, old_hi) <= 0 and rd.cmp(old_lo, hi) <= 0, key
            if not group.startswith("raw_"):
                assert rd.cmp(old_lo, lo) <= 0 and rd.cmp(hi, old_hi) <= 0, key


# EM_LOOP_PINS, at the end of the file, holds the zeta_em(1+i) box of the
# Euler-Maclaurin loop that summed the Bernoulli terms one by one and bounded
# the remainder at the working precision.  The new box must contain the value,
# meet its old box and be no wider than it by more than 2**-56 relative.
def test_zeta_em_pin_contains_the_value_and_meets_the_loop_box():
    with mpmath.workprec(2 * 128 + 32):
        z = mpmath.zeta(mpmath.mpc(1, 1))
    values = [Fraction(-m if sign else m) * Fraction(2) ** e
              for sign, m, e, _ in (z.real._mpf_, z.imag._mpf_)]
    for (lo, hi), (old_lo, old_hi), v in zip(PINS["zeta_em"]["value"], EM_LOOP_PINS["zeta_em"], values):
        assert rd.to_fraction(lo) <= v <= rd.to_fraction(hi)
        assert rd.cmp(lo, old_hi) <= 0 and rd.cmp(old_lo, hi) <= 0
        old_width = rd.to_fraction(old_hi) - rd.to_fraction(old_lo)
        assert rd.to_fraction(hi) - rd.to_fraction(lo) <= old_width * (1 + Fraction(1, 2**56))


# TRIVIAL_TAIL_PINS, at the end of the file, holds the l_truncated pin from
# before its partial-summation tail.  The radius is the smaller of the old
# bound and the new one, so the new box lies inside the old one, with a radius
# no larger, and still contains L(5/2, chi).
def test_l_truncated_pin_lies_inside_the_trivial_tail_box():
    new, old = PINS["l_truncated"], TRIVIAL_TAIL_PINS["l_truncated"]
    assert rd.cmp(new["radius"], old["radius"]) <= 0
    chi = make_elementary(7, 1)
    with mpmath.workprec(2 * 128 + 32):
        values = [0 if e is None else mpmath.expjpi(mpmath.mpf(e) / 3)
                  for e in map(chi.exponent, range(7))]
        z = mpmath.dirichlet(mpmath.mpf(5) / 2, values)
    for (lo, hi), (old_lo, old_hi), part in zip(new["value"], old["value"], (z.real, z.imag)):
        assert rd.cmp(old_lo, lo) <= 0 and rd.cmp(hi, old_hi) <= 0
        sign, man, e, _ = part._mpf_
        assert rd.to_fraction(lo) <= Fraction(-man if sign else man) * Fraction(2) ** e <= rd.to_fraction(hi)


def _render(v) -> str:
    if isinstance(v, tuple) and len(v) == 2 and all(isinstance(x, int) for x in v):
        return f"({v[0]:#x}, {v[1]})"
    if isinstance(v, tuple):
        return "(" + ", ".join(_render(x) for x in v) + ")"
    raise TypeError(v)


def _table() -> str:
    lines = ["PINS = {"]
    for group in GROUPS:
        lines.append(f"    {group!r}: {{")
        for key, v in compute(group).items():
            lines.append(f"        {key!r}: {_render(v)},")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(_table())


# fmt: off
PINS: dict = {
    'pi': {
        '53': ((0x3243f6a8885a3, -48), (0x1921fb54442d19, -51)),
        '64': ((0x3243f6a8885a308d, -60), (0xc90fdaa22168c235, -62)),
        '128': ((0xc90fdaa22168c234c4c6628b80dc1cd1, -126), (0x6487ed5110b4611a62633145c06e0e69, -125)),
        '200': ((0x6487ed5110b4611a62633145c06e0e68948127044533e63a01, -197), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc7403, -198)),
        '384': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b, -382), (0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89452821e638d01377be5466cf34e90c7, -380)),
        '512': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245, -510), (0x6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e123, -509)),
        '700': ((0x6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e122f242dabb312f3f637a262174d31bf6b585ffae5b7a035bf, -697), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7f, -698)),
        '1024': ((0x6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e122f242dabb312f3f637a262174d31bf6b585ffae5b7a035bf6f71c35fdad44cfd2d74f9208be258ff324943328f6722d9ee1003e5c50b1df82cc6d241b0e2ae9cd, -1021), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7edee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf0598da48361c55d39b, -1022)),
    },
    'ln2': {
        '53': ((0x162e42fefa39ef, -53), (0x162e42fefa39f, -49)),
        '64': ((0xb17217f7d1cf79ab, -64), (0x2c5c85fdf473de6b, -62)),
        '128': ((0xb17217f7d1cf79abc9e3b39803f2f6af, -128), (0xb17217f7d1cf79abc9e3b39803f2f6b, -124)),
        '200': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5, -199), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8b, -200)),
        '384': ((0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b1, -380), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b11, -384)),
        '512': ((0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b825, -512), (0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc13, -511)),
        '700': ((0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603, -700), (0x2c5c85fdf473de6af278ece600fcbdabd03cd0c99ca62d8b628345d6e2eabe8af9ee1d881b7aeb26156554bed2be86c43b4bab8d704e085109d5ceca445a6e094fa5b2858892ba3146b2f6844c5f0e1fae7aa6f0ec4d981, -698)),
        '1024': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b650b112574628d65ed0898be1c3f5cf54de1d89b301d92b7d0763b2bfba5b96743d8ceb2a4657aefd35e9c18192432afd0c3979071d16d16cbe2879feae3, -1023), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b72ce87b19d6548caf5dfa6bd38303248655fa1872f20e3a2da2d97c50f3fd5c7, -1024)),
    },
    'exp': {
        '-3.7@128': ((0x19511fc6871044e48337717c1107710b, -130), (0x32a23f8d0e2089c9066ee2f8220ee217, -131)),
        '-1e-30@128': ((0xffffffffffffffffffffffffebb7b401, -128), (0x7ffffffffffffffffffffffff5dbda01, -127)),
        '0.5@128': ((0x1a61298e1e069bc972dfefab6df33f9b, -124), (0xd3094c70f034de4b96ff7d5b6f99fcd9, -127)),
        '1@128': ((0xadf85458a2bb4a9aafdc5620273d3cf1, -126), (0x56fc2a2c515da54d57ee2b10139e9e79, -125)),
        '2.75@128': ((0x3e920e17b7d1fa59dd4466296c9cbdd7, -122), (0xfa48385edf47e967751198a5b272f75d, -124)),
        '40@128': ((0x1a220d397972ea8b43610745aad9dc5b, -67), (0xd11069cbcb97545a1b083a2d56cee2d9, -70)),
        '-100@128': ((0x6a307c538abd72bcf7644dd71d3f2d73, -271), (0xd460f8a7157ae579eec89bae3a7e5ae7, -272)),
        '[0.1,0.3]@128': ((0x46bb1ecd68034e6be08e302615aac607, -126), (0xacc82c6460d4ad22dd53f0a3c9b46ed5, -127)),
        '-3.7@512': ((0xca88fe343882272419bb8be0883b88592df01395129c038f13ed5290e383570bc49c53653ee72166ae92899cee0e5151b94bb9d375a6d98508aac2ab5a3ec9df, -517), (0xca88fe343882272419bb8be0883b88592df01395129c038f13ed5290e383570bc49c53653ee72166ae92899cee0e5151b94bb9d375a6d98508aac2ab5a3ec9e3, -517)),
        '-1e-30@512': ((0x7ffffffffffffffffffffffff5dbda008a1eb03ce5eda7c865d207e9d924a5cc091dc8d9cdff33a69f03e4cf073366428324007ac9a4cf8c2cc9ce27781716b9, -511), (0xffffffffffffffffffffffffebb7b401143d6079cbdb4f90cba40fd3b2494b98123b91b39bfe674d3e07c99e0e66cc85064800f593499f1859939c4ef02e2d73, -512)),
        '0.5@512': ((0xd3094c70f034de4b96ff7d5b6f99fcd8fb28f8b60985a3ace225fe4831b3f966177ab93cd48917109f376dfbcb8acc8ba4f6acc67b30f91dae19ba8015b12f49, -511), (0x6984a638781a6f25cb7fbeadb7ccfe6c7d947c5b04c2d1d67112ff2418d9fcb30bbd5c9e6a448b884f9bb6fde5c56645d27b56633d987c8ed70cdd400ad897a5, -510)),
        '1@512': ((0xadf85458a2bb4a9aafdc5620273d3cf1d8b9c583ce2d3695a9e13641146433fbcc939dce249b3ef97d2fe363630c75d8f681b202aec4617ad3df1ed5d5fd6561, -510), (0x56fc2a2c515da54d57ee2b10139e9e78ec5ce2c1e7169b4ad4f09b208a3219fde649cee7124d9f7cbe97f1b1b1863aec7b40d901576230bd69ef8f6aeafeb2b1, -509)),
        '2.75@512': ((0x7d241c2f6fa3f4b3ba88cc52d9397bae130794b48d101f61efa8fd01b1310e432fb6ce0921531b048b0b419d6955514d2700a24b17e08ddc7c01b962b9799ae5, -507), (0xfa48385edf47e967751198a5b272f75c260f29691a203ec3df51fa0362621c865f6d9c1242a636091616833ad2aaa29a4e0144962fc11bb8f80372c572f335cb, -508)),
        '40@512': ((0xd11069cbcb97545a1b083a2d56cee2d882a7e2da328c63833faed37055f7bdebe36d9b60d7a969616457a5a39c07d20c7d0bc5c49901c81109e5f1eeb4b3d019, -454), (0x688834e5e5cbaa2d0d841d16ab67716c4153f16d194631c19fd769b82afbdef5f1b6cdb06bd4b4b0b22bd2d1ce03e9063e85e2e24c80e40884f2f8f75a59e80d, -453)),
        '-100@512': ((0xd460f8a7157ae579eec89bae3a7e5ae6c05cbc460024fffd539a3832c4e54f7f21c71cf5dce0f782cceb24a82ef1fd1a268323101887e09499214e179ea92b03, -656), (0x35183e29c55eb95e7bb226eb8e9f96b9b0172f1180093fff54e68e0cb13953dfc871c73d77383de0b33ac92a0bbc7f4689a0c8c40621f82526485385e7aa4ac1, -654)),
        '[0.1,0.3]@512': ((0x8d763d9ad0069cd7c11c604c2b558c0e30bf02e43b328f23765ddf93e78ca0b7f9750ba091f86edbd266f4a8fd9e8566c3c05305e1bd09a42756d39bc7c1073f, -511), (0xacc82c6460d4ad22dd53f0a3c9b46ed41cb7d6e66450f1b8a5cb31cb8b56dbc859600151f68cd95cffe3a05911811e5cc5333854a60fd3ee88f84069d3d52fb5, -511)),
    },
    'log': {
        '1e-20@128': ((-0x2e0d3c554554b5c7293b22ed98e1f32d, -120), (-0xb834f1551552d71ca4ec8bb66387ccb3, -122)),
        '0.3@128': ((-0x134378fcbda7206e50541cb590610abf, -124), (-0x4d0de3f2f69c81b9415072d641842afb, -126)),
        '0.70703125@128': ((-0x58c00c2ceab124ee0c6728fffcca3ce7, -128), (-0xb1801859d56249dc18ce51fff99479cd, -129)),
        '1@128': ((0x0, 0), (0x0, 0)),
        '1.5@128': ((0x33e647d97f3097e56d1aecde80a44303, -127), (0xcf991f65fcc25f95b46bb37a02910c0d, -129)),
        '2@128': ((0xb17217f7d1cf79abc9e3b39803f2f6af, -128), (0xb17217f7d1cf79abc9e3b39803f2f6b, -124)),
        '1e30@128': ((0x4513da7fe7ff10aabdd8b4646552ecc3, -120), (0x8a27b4ffcffe21557bb168c8caa5d987, -121)),
        '[0.5,3]@128': ((-0xb17217f7d1cf79abc9e3b39803f2f6b, -124), (0x8c9f53d5681854bb520cc6aa829dbe5b, -127)),
        '1e-20@512': ((-0xb834f1551552d71ca4ec8bb66387ccb31b33e83850f5775224b7a622826c38cf3bbac38d9e121473ff8cfeb03776d0c2377aad1e514edb91ba7356a5039e5c8d, -506), (-0x2e0d3c554554b5c7293b22ed98e1f32cc6ccfa0e143d5dd4892de988a09b0e33ceeeb0e36784851cffe33fac0dddb4308ddeab479453b6e46e9cd5a940e79723, -504)),
        '0.3@512': ((-0x2686f1f97b4e40dca0a8396b20c2157db9856e21b632eac93a301163b6cef007b5c49111973b35245c2a26f9b5bc34d969e58f6b3cb0f9d943e0c123df6df29f, -509), (-0x4d0de3f2f69c81b9415072d641842afb730adc436c65d592746022c76d9de00f6b8922232e766a48b8544df36b7869b2d3cb1ed67961f3b287c18247bedbe53d, -510)),
        '0.70703125@512': ((-0x58c00c2ceab124ee0c6728fffcca3ce6a5ddcbdd12c788ed7ee9e38c3a7fb8a958b0414650eebc2312f039a1f230133730ab35243ea9eef0bcd731a38f159c97, -512), (-0xb1801859d56249dc18ce51fff99479cd4bbb97ba258f11dafdd3c71874ff7152b160828ca1dd784625e07343e460266e61566a487d53dde179ae63471e2b392d, -513)),
        '1@512': ((0x0, 0), (0x0, 0)),
        '1.5@512': ((0x67cc8fb2fe612fcada35d9bd014886067d20ffb34547d7c2b38ad78ec59e3b60c2df0cb19edaebb7fadca437b8a073c4752d66d15d6f9b5da7e09dc7febb0e3f, -512), (0xcf991f65fcc25f95b46bb37a02910c0cfa41ff668a8faf856715af1d8b3c76c185be19633db5d76ff5b9486f7140e788ea5acda2badf36bb4fc13b8ffd761c7f, -513)),
        '2@512': ((0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b825, -512), (0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc13, -511)),
        '1e30@512': ((0x8a27b4ffcffe21557bb168c8caa5d9865466ee2a3cb8197d9b89bc99e1d12a9b6ccc12aa368d8f56ffa9bf0429991c91a99c01d6bcfb24ad4bd680fbc2b6c569, -505), (0x4513da7fe7ff10aabdd8b4646552ecc32a3377151e5c0cbecdc4de4cf0e8954db66609551b46c7ab7fd4df8214cc8e48d4ce00eb5e7d9256a5eb407de15b62b5, -504)),
        '[0.5,3]@512': ((-0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc13, -511), (0x8c9f53d5681854bb520cc6aa829dbe5adf0a216cdbf046f81ecbf77528a49ac6554bc16906634c282838fb9981cd476ab12e0a838f53de50e79bec7888126333, -511)),
    },
    'sin': {
        '-2.5@128': ((-0x9935786e7e5584057b197d3d34eae4b1, -128), (-0x9935786e7e5584057b197d3d34eae4b, -124)),
        '1e-25@128': ((0xf79687aed3eec5513a83ddbd83f52203, -211), (0x7bcb43d769f762a89d41eedec1fa9103, -210)),
        '0.5@128': ((0xf57743a2582f7f43b25e1b27ec1bdb33, -129), (0x3d5dd0e8960bdfd0ec9786c9fb06f6cd, -127)),
        '1.5707963267948966@128': ((0x7fffffffffffffffffffffffffff8519, -127), (0xffffffffffffffffffffffffffff0a33, -128)),
        '3.141592653589793@128': ((0x44bb6ffa65fe1e9a75f29024e072c9b9, -178), (0x8976dff4cbfc3d34ec052049c1059373, -179)),
        '10@128': ((-0x45a27bd7cd3d49673fd915f012710005, -127), (-0x8b44f7af9a7a92ce7fb22be024e20009, -128)),
        '-1e5@128': ((-0x926d54e293f4b1c767d8e3e1ca862deb, -132), (-0x4936aa7149fa58e3b3ec71f0e54316f5, -131)),
        '[1,2]@128': ((0x6bb5523c2433b8106374f484e2879e19, -127), (0x1, 0)),
        '[0.2,0.4]@128': ((0x196dff233dd2bbf754e94fbdc5301da7, -127), (0x18ec3ae92b676a71f6fd66dea59c7125, -126)),
        '-2.5@512': ((-0x9935786e7e5584057b197d3d34eae4b042be8c7aa29555f2ac8f27960dc60ea35b6c1330811bf66d55fcdbdeec2cb18651a720f7b8ac84603d41f8b1151267f5, -512), (-0x264d5e1b9f9561015ec65f4f4d3ab92c10afa31ea8a5557cab23c9e5837183a8d6db04cc2046fd9b557f36f7bb0b2c619469c83dee2b21180f507e2c454499fd, -510)),
        '1e-25@512': ((0x3de5a1ebb4fbb1544ea0f76f60fd48812304e26f1f8a35e53112c8783a0ad0c87ffe571062d065b09f8ae4e7dac691c70760682c008a6e6d3db3db3fd5879585, -593), (0x7bcb43d769f762a89d41eedec1fa91024609c4de3f146bca622590f07415a190fffcae20c5a0cb613f15c9cfb58d238e0ec0d0580114dcda7b67b67fab0f2b0b, -594)),
        '0.5@512': ((0xf57743a2582f7f43b25e1b27ec1bdb3325e8b69f95e279ab16606d27a541b68fb66b5d147539f6eab9fd1d325d77ed981a08cf701eac46dda52c533bd11d6f9f, -513), (0x7abba1d12c17bfa1d92f0d93f60ded9992f45b4fcaf13cd58b303693d2a0db47db35ae8a3a9cfb755cfe8e992ebbf6cc0d0467b80f56236ed296299de88eb7d, -508)),
        '1.5707963267948966@512': ((0xffffffffffffffffffffffffffff0a325972508d7a8a720cbc0505c51b58b283ad16b01888020e8c85f84c89d077ba4b440f9fb1f1bef58f468da09d9e8f1be1, -512), (0x7fffffffffffffffffffffffffff85192cb92846bd4539065e0282e28dac5941d68b580c4401074642fc2644e83bdd25a207cfd8f8df7ac7a346d04ecf478df1, -511)),
        '3.141592653589793@512': ((0x225db7fd32ff0f4d3afd081f591bd6f07ed04a47fe0bb835bb3cefceb5bd57bbd11488f010104563c16a5b11e543d636f7a6cb58cb927f89ddbf7b677237747b, -561), (0x8976dff4cbfc3d34ebf4207d646f5bc1fb41291ff82ee0d6ecf3bf3ad6f55eef445223c04041158f05a96c47950f58dbde9b2d632e49fe27771ded9dc8fdd1ed, -563)),
        '10@512': ((-0x11689ef5f34f5259cff6457c049c400129d5f0a3d33fb91fafbffa149dd3b3b103ff7b0b4078946d20894faa2b9b70e1900e497179bfc989d9731f2061532711, -509), (-0x8b44f7af9a7a92ce7fb22be024e200094eaf851e99fdc8fd7dffd0a4ee9d9d881ffbd85a03c4a369044a7d515cdb870c80724b8bcdfe4c4ecb98f9030a993887, -512)),
        '-1e5@512': ((-0x926d54e293f4b1c767d8e3e1ca862dea30d563c4e597c29ff41efa8bff90ad924238c9abb0040464471c72cd94a863a4fe0de93849c84ec07c97e665aa4df111, -516), (-0x926d54e293f4b1c767d8e3e1ca862dea30d563c4e597c29ff41efa8bff90ad924238c9abb0040464471c72cd94a863a4fe0de93849c84ec07c97e665aa4df11, -512)),
        '[1,2]@512': ((0xd76aa47848677020c6e9e909c50f3c3289e511132f518b4defb6ca5fd6c649bdfb0bd9ff1edcd4577655b5826a3d3b50c26355635dfd0cebfe89a6250ceb0417, -512), (0x1, 0)),
        '[0.2,0.4]@512': ((0x65b7fc8cf74aefdd53a53ef714c0769ca2477acca8b4833bec364c4c874c1d7fcd73d8099b59ad05f267b491f81b12459c27bd0be01cdade2ea995be930f73eb, -513), (0x31d875d256ced4e3edfacdbd4b38e249d3241fd2e92d6d1cb590b4e869e25c7c3fb11c34937cb2482ae3dd41f2d127457f7b7da2d6a9902b9ee9bb378eb6d9cf, -511)),
    },
    'cos': {
        '-2.5@128': ((-0x19a2f7ef858b7d2b0f9f542fd2e528f, -121), (-0xcd17bf7c2c5be9587cfaa17e9729477f, -128)),
        '1e-25@128': ((0xffffffffffffffffffffffffffffffff, -128), (0x1, 0)),
        '0.5@128': ((0xe0a94032dbea7cedbddd9da2fafad985, -128), (0x7054a0196df53e76deeeced17d7d6cc3, -127)),
        '1.5707963267948966@128': ((0x58b05655a755321d1714812703ffe39d, -182), (0xb160acab4eaa643a2f29024e08ffc73b, -183)),
        '3.141592653589793@128': ((-0xffffffffffffffffffffffffff6c5f1b, -128), (-0x7fffffffffffffffffffffffffb62f8d, -127)),
        '10@128': ((-0x35b3591218d63e413df8a82e6653930f, -126), (-0xd6cd64486358f904f7e2a0b9994e4c3b, -128)),
        '-1e5@128': ((-0xffd61c20d9ed39b085bf2c1a97843893, -128), (-0x7feb0e106cf69cd842df960d4bc21c49, -127)),
        '[1,2]@128': ((-0xd51132ba9b902521997c565db9586bb5, -129), (0x4528a03ed41a2e48e12336cbb438de95, -127)),
        '[0.2,0.4]@128': ((0xebcaa73edd17be8ebe3f1f41c7c875c9, -128), (0x1f5cb49577627a0b3fdef6a1fa315995, -125)),
        '-2.5@512': ((-0xcd17bf7c2c5be9587cfaa17e9729477f1f4d1bcfb1dc84151cf98ed044d34d1fba0df82762098436d80894f66e6cc6f01c159632f0fc74706eecac5093dd2d15, -512), (-0x3345efdf0b16fa561f3ea85fa5ca51dfc7d346f3ec772105473e63b41134d347ee837e09d882610db602253d9b9b31bc0705658cbc3f1d1c1bbb2b1424f74b45, -510)),
        '1e-25@512': ((0x3fffffffffffffffffffffffffffffffffffffffff884616d4ad1f8441b4e0ccbd38495ddfdaa1d30ddf26a18e68f64e467e07ddcbbc7b21a6b10033089cfc0b, -510), (0xfffffffffffffffffffffffffffffffffffffffffe21185b52b47e1106d38332f4e125777f6a874c377c9a8639a3d93919f81f772ef1ec869ac400cc2273f02d, -512)),
        '0.5@512': ((0xe0a94032dbea7cedbddd9da2fafad98556566b3a89f43eabd72350af3e8b19e801204d8fe2efe077f80079908adf28ed005ab15efa33e62f72a25e5bc53ccdbf, -512), (0x382a500cb6fa9f3b6f776768bebeb66155959acea27d0faaf5c8d42bcfa2c67a00481363f8bbf81dfe001e6422b7ca3b4016ac57be8cf98bdca89796f14f337, -506)),
        '1.5707963267948966@512': ((0xb160acab4eaa643a2ee60a493e2762e6fa8f2d6ab58129e5e6cae2d172f0d7150681fe5edcc789f5a453099fef1762dd1634272438578aa0fc7bcc8ebb527589, -567), (0x58b05655a755321d177305249f13b1737d4796b55ac094f2f3657168b9786b8a8340ff2f6e63c4fad22984cff78bb16e8b1a13921c2bc5507ebde6475e293ac5, -566)),
        '3.141592653589793@512': ((-0xffffffffffffffffffffffffff6c5f1a31882728fc01549d387fa52a166211b6d6af18da295ba801070c55b5c9f49e3556bbab8425c1e011be2928a51bab6fbd, -512), (-0x3fffffffffffffffffffffffffdb17c68c6209ca3f0055274e1fe94a8598846db5abc6368a56ea0041c3156d727d278d55aeeae1097078046f8a4a2946eadbef, -510)),
        '10@512': ((-0xd6cd64486358f904f7e2a0b9994e4c3bacd2e0dad9a71c69c7822c6c0381beaf65f199f9e5384b5a773268f08aee4fb8dcee0280a5bcac1a88e6d46086c2c0d7, -512), (-0x6b66b22431ac7c827bf1505ccca7261dd669706d6cd38e34e3c1163601c0df57b2f8ccfcf29c25ad3b993478457727dc6e77014052de560d44736a304361606b, -511)),
        '-1e5@512': ((-0xffd61c20d9ed39b085bf2c1a97843892b7106b547558b53e12e0ff95b65ebc38663c3f7cc6efc836b198b5d65c0dc0c56bf9d6f5c03fea68abcb9caaf6241f3b, -512), (-0x7feb0e106cf69cd842df960d4bc21c495b8835aa3aac5a9f09707fcadb2f5e1c331e1fbe6377e41b58cc5aeb2e06e062b5fceb7ae01ff53455e5ce557b120f9d, -511)),
        '[1,2]@512': ((-0xd51132ba9b902521997c565db9586bb41a230686f5d38d25f0141cb7c0e4099caba67ca123dd32cba18c66190907c3ffaf2026d8971aec713f551404cc797483, -513), (0x4528a03ed41a2e48e12336cbb438de94d11b9d44a7cb61dbf91801205bb0737d4b54a2185296874f21f9a2871dc7fccde49a2020edc101024b037d11a95a31bb, -511)),
        '[0.2,0.4]@512': ((0xebcaa73edd17be8ebe3f1f41c7c875c9fa72bb8e21b5fb8f6ff37de207964d3570b9936b577d20c3e98620f962f69b3c6f7cbd9f762207e3375d065434f1dbc1, -512), (0x3eb9692aeec4f4167fbded43f462b329e4b9680a285a018b71550e4869801a3a26c9b185d4e88f8cd6bafbfa9a39a5bf32c415bb68c1f10fb9301d254518a301, -510)),
    },
    'atan': {
        '-3@128': ((-0x4ff05dadea157ff5df2e216077be58d5, -126), (-0x9fe0bb5bd42affebbe5c42c0ef7cb1a9, -127)),
        '1e-30@128': ((0x289097fdd7853f0c684960de6a5340a3, -225), (0x51212ffbaf0a7e18d092c1bcd4a68147, -226)),
        '0.2@128': ((0xca220fc7b9305b2ecf053204ebb711c1, -130), (0xca220fc7b9305b2ecf053204ebb711c3, -130)),
        '0.25@128': ((0xfadbafc96406eb156dc79ef5f7a217e5, -130), (0x7d6dd7e4b203758ab6e3cf7afbd10bf3, -129)),
        '0.9@128': ((0xbb99c540301df2f06d5204b76e1908e9, -128), (0xbb99c540301df2f06d5204b76e1908eb, -128)),
        '1@128': ((0xc90fdaa22168c234c4c6628b80dc1cd1, -128), (0x6487ed5110b4611a62633145c06e0e69, -127)),
        '7@128': ((0x16dcc57bb565fcb58de6ee1b5c659c97, -124), (0xb6e62bddab2fe5ac6f3770dae32ce4b9, -127)),
        '1e6@128': ((0xc90fd23ea5986741113aab1fe5cce0a9, -127), (0x6487e91f52cc33a0889d558ff2e67055, -126)),
        '[-1,2]@128': ((-0x6487ed5110b4611a62633145c06e0e69, -127), (0x8db70c975df2236368cd511051cd7991, -127)),
        '-3@512': ((-0x9fe0bb5bd42affebbe5c42c0ef7cb1a970062c660ebb1dfa39b9a50cd7e25f53a74c1a82a964d6ca19bc9198184639ee4bcdff3ab87e8a209da6b24458318493, -511), (-0x4ff05dadea157ff5df2e216077be58d4b8031633075d8efd1cdcd2866bf12fa9d3a60d4154b26b650cde48cc0c231cf725e6ff9d5c3f45104ed359222c18c249, -510)),
        '1e-30@512': ((0x289097fdd7853f0c684960de6a5340a34637cb3347f80280ed78a6a5150927da83a09501cc908d676daf9d1495c2979e01a06d4f130470f02c9573911b90c26d, -609), (0x51212ffbaf0a7e18d092c1bcd4a681468c6f96668ff00501daf14d4a2a124fb507412a0399211acedb5f3a292b852f3c0340da9e2608e1e0592ae722372184db, -610)),
        '0.2@512': ((0x328883f1ee4c16cbb3c14c813aedc47080911849cba601cf3311c84306f4f4b03961daed896323db03b1c48d2da177761d0b9d35356db4adbf276b40d24fed79, -512), (0x651107e3dc982d976782990275db88e101223093974c039e662390860de9e96072c3b5db12c647b60763891a5b42eeec3a173a6a6adb695b7e4ed681a49fdaf3, -513)),
        '0.25@512': ((0xfadbafc96406eb156dc79ef5f7a217e5aa7fa90388b3836b7a3a767c9449a76592b9251668e5765305be8c5ba5831a3e3c2bc227071e4f9a0f41c3ab03998379, -514), (0x7d6dd7e4b203758ab6e3cf7afbd10bf2d53fd481c459c1b5bd1d3b3e4a24d3b2c95c928b3472bb2982df462dd2c18d1f1e15e113838f27cd07a0e1d581ccc1bd, -513)),
        '0.9@512': ((0x2ee671500c077cbc1b54812ddb86423a832a4d09ee16c98278ed2a5e18532fcf0e2d6b836cbc2199e30a05bb609fcc4d7ba2fb8b8c56f4f05f25848337c57, -498), (0xbb99c540301df2f06d5204b76e1908ea0ca93427b85b2609e3b4a978614cbf3c38b5ae0db2f086678c2816ed827f3135ee8bee2e315bd3c17c96120cdf15c001, -512)),
        '1@512': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245, -512), (0x6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e123, -511)),
        '7@512': ((0x5b7315eed597f2d6379bb86d7196725c033cb5249e46a196c8d50942f1f622973e507015485c2f4b51bdce88a84299f3b067cdceb6784f248632d0847074ae45, -510), (0xb6e62bddab2fe5ac6f3770dae32ce4b806796a493c8d432d91aa1285e3ec452e7ca0e02a90b85e96a37b9d11508533e760cf9b9d6cf09e490c65a108e0e95c8b, -511)),
        '1e6@512': ((0xc90fd23ea5986741113aab1fe5cce0a9976c3956cdaad7fb4afb168d335dc0ebb4aa184652cfc9c43167a89a92cd542595c5c3a19f425228d356f700dafee55f, -511), (0x6487e91f52cc33a0889d558ff2e67054cbb61cab66d56bfda57d8b4699aee075da550c232967e4e218b3d44d4966aa12cae2e1d0cfa1291469ab7b806d7f72b, -506)),
        '[-1,2]@512': ((-0x6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e123, -511), (0x8db70c975df2236368cd511051cd79904d7d48a6c0e094b3c957f8ec80bb095fd2a2f233abe93082cda314f59b912aba7c72906a331014325a2b1ddfcbc91ed7, -511)),
    },
    'exp_integral': {
        '1e-10@128': ((0xb396ce15fcd4ecdab8f7de8d2412fe8b, -123), (0x2ce5b3857f353b36ae3df7a34904bfa3, -121)),
        '0.5@128': ((0x47a6a9415d2e06dd46bc9b6c4921fb69, -127), (0x8f4d5282ba5c0dba8d7936d89243f6d3, -128)),
        '1@128': ((0xe0a62e9dfc7c9c7d85775f72cf25645d, -130), (0x7053174efe3e4e3ec2bbafb96792b22f, -129)),
        '5@128': ((0x968268057657b34f9bf16ca2dbda9d93, -137), (0x25a09a015d95ecd3e6fc5b28b6f6a765, -135)),
        '20@128': ((0xd84915c557a270ee9078093c3f5af4e3, -161), (0x3612457155e89c3ba41e024f0fd6bd39, -159)),
        '33@128': ((0x4f0e0f95f6cca4fff867d39c8671f773, -179), (0x278707cafb66527ffc33e9ce43390ab1, -178)),
        '34@128': ((0x71007c5dca3f55d04ff3012638be6545, -181), (0xe200f8bb947eaba09fe6024c717db9ff, -182)),
        '40@128': ((0x7a5af36cdb509d42e63fd24273e3944f, -190), (0xf7b1f3b23a92990ec9567f96801cd977, -191)),
        '[0.5,1]@128': ((0xe0a62e9dfc7c9c7d85775f72cf25645d, -130), (0x8f4d5282ba5c0dba8d7936d89243f6d3, -128)),
        '1e-10@512': ((0x1672d9c2bf9a9d9b571efbd1a4825fd16539f31c8dc1a8d2b3acbae6d9952335121eef973531528db8a7c9a304b2f521a31cd5426c0a13fb31d5a6d3b7e39a83, -504), (0x59cb670afe6a766d5c7bef4692097f4594e7cc7237159a87f41d47aade1df0bab0d4b53118c9f5fc80e3466268cf7812f64785eb23fc539c7efaf74a8b3c32ed, -506)),
        '0.5@512': ((0x8f4d5282ba5c0dba8d7936d89243f6d2e7b3b80e7c62e3cb69d74cbc5156df00e9e675bc6de55c1305efd2db17bf14a150c675fe2645b8a352282e7534767f1f, -512), (0x23d354a0ae97036ea35e4db62490fdb4b9ecee03a0082cc5311b942690ebf626c0090ab35bc4135ea5bdf21c2629fdeef174ab96c6d1a9244ecfcb5807fa2dd1, -510)),
        '1@512': ((0x7053174efe3e4e3ec2bbafb96792b22ee696a5e0b3b48bdf57c44bd4a7a9d0a02a1a178b9afbb3ce7e5549baa6953d5595e850b14007f2967c89724c0b0537cf, -513), (0xe0a62e9dfc7c9c7d85775f72cf25645dcd2d4bc1766054e419e4a72118b787a8ad2b035b3aa32d3b40ca69cb50ce0715000182d6541394e49d6ee043c3d3503, -510)),
        '5@512': ((0x968268057657b34f9bf16ca2dbda9d93feffe7c356e053c96c2b53f4dccf911adc753dd4bdfe95ccf4f007bbb5ef7f405bf3ca4518d5a0806a0d5e97474b530b, -521), (0x968268057657b34f9bf16ca2dbda9d93feffe7cad27ee67e9a330fd98ec2c54757df5fd713e164ef04db32bd87b5b42a7464842f1aad7c52980b346e2bbb9baf, -521)),
        '20@512': ((0x6c248ae2abd13877483c049e1fad7a71c8780799c693144114af6f9227a7f01724332538eb853e6542fea604dbd7c927c083ba16ae1135a988c38aa94d2b35b9, -544), (0x1b0922b8aaf44e1dd20f012787eb5e9c730d75b8c84a8607c1c21a4b0f79694a095785a81f234cfeb0f9e247d43900612d61298125ca0d251d0d70b367ae729f, -542)),
        '33@512': ((0x9e1c1f2bed9949fff0cfa7390ce3eee6e1924aad4e427dd4809f2778144f724731a458bc3ddf9c310e97d7ea950ca136bef651fe99f34f73f55ec2a0dd576607, -564), (0x13c383e57db3293ffe19f4e7219c85587ac4fe83b184346c8348116a6cabf09ec903ad2772e6f557e807e515c35b7e28afba9c6dd11440d2eef47b7145304623, -561)),
        '34@512': ((0xe200f8bb947eaba09fe6024c717cca8a801da05f27f0cd3b0ffb162ca046e7e846586bde6e7a50b7ef5b04c6b28e531043fca83b759b1cb4c5896974cf3f8f47, -566), (0x1c401f17728fd57413fcc0498e2fb73fca4e88c403edac6f2ed014b33c90e654940795bb7a7b515e16bf08fa9939726967eeddbf660abf2859d3b9a33ffd5771, -563)),
        '40@512': ((0x7a5af36cdb509d42e63fd24273e3944f6ebdcf774f7de6a10381f861fc6651f6b4b407d598bd386847e4a940f6015fd6f45762f60aa7db61747f09177b1ee87f, -574), (0x3dec7cec8ea4a643b2559fe5a007365dae9d614547fda07f7f2271df04837ba29edd6849398bbcf562c9fb33e4bd6e958c36217b28850e0f1e78e32c8e9892a5, -573)),
        '[0.5,1]@512': ((0x7053174efe3e4e3ec2bbafb96792b22ee696a5e0b3b48bdf57c44bd4a7a9d0a02a1a178b9afbb3ce7e5549baa6953d5595e850b14007f2967c89724c0b0537cf, -513), (0x23d354a0ae97036ea35e4db62490fdb4b9ecee03a0082cc5311b942690ebf626c0090ab35bc4135ea5bdf21c2629fdeef174ab96c6d1a9244ecfcb5807fa2dd1, -510)),
    },
    'erfc_enclosure': {
        '0@128': ((0x1, 0), (0x1, 0)),
        '1e-8@128': ((0x3ffffff3e255c02435763fc1ecac345b, -126), (0xffffffcf89570090d5d8ff07b2b0d16d, -128)),
        '0.1@128': ((0x719ad0aed8266630a95645c3bcc981a1, -127), (0x38cd68576c13331854ab22e1de64c0d1, -126)),
        '1@128': ((0xa1130b17deeea725fdde0489e5b218b3, -130), (0x2844c2c5f7bba9c97f778122796c862d, -128)),
        '3@128': ((0x2e53beca0684541784ca4c429a1488d9, -141), (0xb94efb281a11505e1329310a68522365, -143)),
        '5.9@128': ((0xa5ccb00d1a1eb29cee00fa29d2087179, -181), (0x14b99601a343d6539dc01f453a410e37, -178)),
        '6@128': ((0x18cf81557d20b61a7fff0cc732bf9b2f, -180), (0xc67c0aabe905b0d3fff8663995fcd979, -183)),
        '7@128': ((0x3293141f4b3033b6911dceb17b3719d7, -200), (0xcb080127062b2cc439e36fcaf8f3d27b, -202)),
        '[0.5,2]@128': ((0x4ca3d7b0d4399a35ff9bed19730442fd, -134), (0x3d60428f9c48b750bfb072e72ec2b59f, -127)),
        '0@512': ((0x1, 0), (0x1, 0)),
        '1e-8@512': ((0x3ffffff3e255c02435763fc1ecac345b017abc284c5cb03cb09bbc141db3f52aa2fe49a1cfb221791dcacc1260e313e2f2b9e70ab6d30d7e0bd3fc9e61a81e01, -510), (0xffffffcf89570090d5d8ff07b2b0d16c05eaf0a13172c0f2c26ef05076cfd4aa8bf926873ec885e4772b3049838c4f8bcae79c2adb4c35f82f4ff27986a07805, -512)),
        '0.1@512': ((0x38cd68576c13331854ab22e1de64c0d0bcd2a657eb01256f9172cfd8903fdfc3b3dbb52e6235887de3fbc7b6678a48b7390ed353cb07910ff7d672bb2d18c26d, -510), (0xe335a15db04ccc6152ac8b8779930342f34a995fac0495be45cb3f6240ff7f0ecf6ed4b988d621f78fef1ed99e2922dce43b4d4f2c1e443fdf59caecb46309b5, -512)),
        '1@512': ((0x2844c2c5f7bba9c97f778122796c862cde73c16ba1f70ac52a4542f8fd3ee58ac0ffd59b311aec4ed7f222e70a8401b90866144d7e8a0f58dba6c39a1c06a599, -512), (0xa1130b17deeea725fdde0489e5b218b379cf05ae87dc2b14a9150be3f4fb962b03ff566cc46bb13b5fc88b9c2a1006e421985135fa283d636e9b0e68701a9665, -514)),
        '3@512': ((0x2e53beca0684541784ca4c429a1488d930bef6ab22fdda4acefa2a9fd061b474abc609a34ace374af20668e2832e827666dc40a6ca2d67f3ce99093d14c92b55, -525), (0xb94efb281a11505e1329310a68522364c2fbdaac8bf7692b3be8aa7f4186d1d2af18268d2b38dd2bc819a38a0cba09d99b71029b28b59fcf3a6424f45324ad55, -527)),
        '5.9@512': ((0xa5ccb00d1a1eb29cee00fa29d20871858664ad08d319f6f1a05d651f67ea85ee64e08f76f7a49a79573e62139a4e14a61168dd75f74cbd01c53cc92a7a61b6ff, -565), (0x52e658068d0f594e77007d14e90438c2c3325684698cfb78d02eb28fb3f542f7327047bb7bd24d3cab9f3109cd270a5308b46ebafba65e80e29e64953d30db9f, -564)),
        '6@512': ((0x633e0555f482d869fffc331ccafe6cbc1a9f7a160f22147b062a3627602a34d2b7043d0442be0a72b4bb231e15fbdefa35f2d6bd42a8480296f847a1c273938d, -566), (0xc67c0aabe905b0d3fff8663995fcd978353ef42c1e4428f60c546c4ec05469a56e087a08857c14e56976463c2bf7bdf46be5ad7a855090052df08f4384e7271b, -567)),
        '7@512': ((0xca4c507d2cc0ceda44773ac5ecdc675cb7a67079fabf93c55a584d684bb206a7e298b9a6e3a60d9d591353ddf6aed127a931cc49c853310d45c9b7ed90d9fae7, -586), (0x32c20049c18acb310e78dbf2be3cf49ebec19f01e92e1ef719d4601966ce92584d07e9cebe0942eaec4b7881446c40c4445ffd6001956c444df048310b8848e5, -584)),
        '[0.5,2]@512': ((0x1328f5ec350e668d7fe6fb465cc110bf411ea88bc8de27472b9406490eaf2d08254ddad2dbbc7e3d64b100cc76bcf540a79fbac6dc180ede220c3e8726ec67cd, -516), (0xf5810a3e7122dd42fec1cb9cbb0ad67bef52427623518d87905950f6724ca3cff0f416b578fec2426e6c66437121f5b022647728ce7d0f78a4ea7fae1275d0bb, -513)),
    },
    'zeta_em': {
        'value': (((0x95084f83bcd7e9335b9bb14f740a68b3, -128), (0x95084f83bcd7e9335cd7d5d6539fd705, -128)), ((-0xed45f2902536df0b039b18393891a0d9, -128), (-0x3b517ca4094db7c2c097bcec963f0c9f, -126))),
        'radius': (0x278490dbf2adb71d, -134),
    },
    'l_one_quadratic': {
        'value': (((0xa9a906ce8e2b3bd4e27d4bc88ae30405, -128), (0x54d4836747159deb363dfd9a3bbf733d, -127)), ((0x0, 0), (0x0, 0))),
        'radius': (0x1c566fd280a41898b42afa029f088e01, -275),
    },
    'l_truncated': {
        'value': (((0xedf84dcf8ea61af7849b913bcb1a42eb, -128), (0x3b7e6c6d649f4649beffe7e87c2c2053, -126)), ((0x2b4b835df7df429fd27ff4ee0b27fa8f, -128), (0xad339d0feed9033d27900d50c2f8e181, -130))),
        'radius': (0x58f980f5bf8bddd9039989658f6bed51, -143),
    },
    'raw_refs': {
        'pi@53': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485, -526), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e487, -526)),
        'ln2@53': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b, -527), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e97, -528)),
        'pi@64': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485, -526), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e487, -526)),
        'ln2@64': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b, -527), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e97, -528)),
        'pi@128': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485, -526), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e487, -526)),
        'ln2@128': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b, -527), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e97, -528)),
        'pi@200': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485, -526), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e487, -526)),
        'ln2@200': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b, -527), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e97, -528)),
        'pi@384': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485, -526), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e487, -526)),
        'ln2@384': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b, -527), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e97, -528)),
        'pi@512': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7edee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf0598da48361c55d39a6915, -1038), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7edee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf0598da48361c55d39a6917, -1038)),
        'ln2@512': ((0x2c5c85fdf473de6af278ece600fcbdabd03cd0c99ca62d8b628345d6e2eabe8af9ee1d881b7aeb26156554bed2be86c43b4bab8d704e085109d5ceca445a6e094fa5b2858892ba3146b2f6844c5f0e1fae7aa6f0ec4d980ec95be83b1d95fdd2dcb3a1ec67595232bd77e9af4e0c0c921957e861cbc838e8b68b65f143cff57181fd, -1038), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b72ce87b19d6548caf5dfa6bd38303248655fa1872f20e3a2da2d97c50f3fd5c607f5, -1040)),
        'pi@700': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7edee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf0598da48361c55d39a6915, -1038), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7edee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf0598da48361c55d39a6917, -1038)),
        'ln2@700': ((0x2c5c85fdf473de6af278ece600fcbdabd03cd0c99ca62d8b628345d6e2eabe8af9ee1d881b7aeb26156554bed2be86c43b4bab8d704e085109d5ceca445a6e094fa5b2858892ba3146b2f6844c5f0e1fae7aa6f0ec4d980ec95be83b1d95fdd2dcb3a1ec67595232bd77e9af4e0c0c921957e861cbc838e8b68b65f143cff57181fd, -1038), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b72ce87b19d6548caf5dfa6bd38303248655fa1872f20e3a2da2d97c50f3fd5c607f5, -1040)),
        'pi@1024': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7edee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf0598da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb9ed529077096966d670c354e4abc9804f1746c08ca18217c32905e462e36ce3be39e772c180e86039b27, -1550), (0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7edee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf0598da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb9ed529077096966d670c354e4abc9804f1746c08ca18217c32905e462e36ce3be39e772c180e86039b29, -1550)),
        'ln2@1024': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b650b112574628d65ed0898be1c3f5cf54de1d89b301d92b7d0763b2bfba5b96743d8ceb2a4657aefd35e9c18192432afd0c3979071d16d16cbe2879feae303fa6508fdadfdc83086987c47f2a8d1772b4eb6fe0f7d0abe9711ef0a0059cb0ba303baedc4c872e4a1f3995a3ce699e6662732c9c9a8a6260d0f05e8eb04ae92b3, -1551), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b72ce87b19d6548caf5dfa6bd38303248655fa1872f20e3a2da2d97c50f3fd5c607f4ca11fb5bfb90610d30f88fe551a2ee569d6dfc1efa157d2e23de1400b39617460775db8990e5c943e732b479cd33cccc4e659393514c4c1a1e0bd1d6095d2567, -1552)),
        'atan(1/2)': ((0x76b19c1586ed3da2b7f222f65e1d4681b70a0ac3930e6f8071678b7374b12384fd4e2c8bc49, -300), (0xed63382b0dda7b456fe445ecbc3a8d036e141587261cdf00e2cf16e6e9624709fa9c5917893, -301)),
        'atan(1/3)': ((0xa4bc7d1934f7092419a87f2a457dac9ee3f08689eeb2b9e7214866658cc4ef3aa7f7b7db933, -301), (0x292f1f464d3dc249066a1fca915f6b27b8fc21a27bacae79c852199963313bcea9fdedf6e4d, -299)),
        'atan(1/5)': ((0x194441f8f7260b65d9e0a6409d76e23840488c24e5d300e79988e421837a7a581cb0ed76c4b, -299), (0xca220fc7b9305b2ecf053204ebb711c2024461272e98073ccc47210c1bd3d2c0e5876bb6259, -302)),
        'atan(1/239)': ((0x2246a4b2f8f31f4147d9ef2d5b5e9e1b284263d486075919476c4cbc1806f3d287ac6792eb1, -305), (0x891a92cbe3cc7d051f67bcb56d7a786ca1098f52181d64651db132f0601bcf4a1eb19e4bac5, -307)),
    },
    'raw_exp': {
        '-3.7@128': ((0x65447f1a1c4113920cddc5f0441dc42c45f4708f, -164), (0xca88fe343882272419bb8be0883b88588be8e291, -165)),
        '-1e-30@128': ((0x1ffffffffffffffffffffffffd76f6802287ac0f, -157), (0x3ffffffffffffffffffffffffaeded00450f581f, -158)),
        '0.5@128': ((0xd3094c70f034de4b96ff7d5b6f99fcd8fb28f88f, -159), (0xd3094c70f034de4b96ff7d5b6f99fcd8fb28f8df, -159)),
        '1@128': ((0xadf85458a2bb4a9aafdc5620273d3cf1d8b9c543, -158), (0x15bf0a8b1457695355fb8ac404e7a79e3b1738b9, -155)),
        '2.75@128': ((0x3e920e17b7d1fa59dd4466296c9cbdd70983ca31, -154), (0xfa48385edf47e967751198a5b272f75c260f2a39, -156)),
        '40@128': ((0x688834e5e5cbaa2d0d841d16ab67716c4153ecc9, -101), (0xd11069cbcb97545a1b083a2d56cee2d882a7ed3b, -102)),
        '-100@128': ((0x35183e29c55eb95e7bb226eb8e9f96b9b0172939, -302), (0xd460f8a7157ae579eec89bae3a7e5ae6c05ccfa5, -304)),
        '0.1@128': ((0x8d763d9ad0069cd7c11c604c2b558c0e22999649, -159), (0x235d8f66b401a735f04718130ad5630388a66599, -157)),
        '-3.7@512': ((0xca88fe343882272419bb8be0883b88592df01395129c038f13ed5290e383570bc49c53653ee72166ae92899cee0e5151b94bb9d375a6d98508aac2ab5a3ec9dfa4882487, -549), (0x65447f1a1c4113920cddc5f0441dc42c96f809ca894e01c789f6a94871c1ab85e24e29b29f7390b3574944ce770728a8dca5dce9bad36cc284556155ad1f64efd2441413, -548)),
        '-1e-30@512': ((0xffffffffffffffffffffffffebb7b401143d6079cbdb4f90cba40fd3b2494b98123b91b39bfe674d3e07c99e0e66cc85064800f593499f1859939c4ef02e2d72238be653, -544), (0xffffffffffffffffffffffffebb7b401143d6079cbdb4f90cba40fd3b2494b98123b91b39bfe674d3e07c99e0e66cc85064800f593499f1859939c4ef02e2d72238be65b, -544)),
        '0.5@512': ((0x6984a638781a6f25cb7fbeadb7ccfe6c7d947c5b04c2d1d67112ff2418d9fcb30bbd5c9e6a448b884f9bb6fde5c56645d27b56633d987c8ed70cdd400ad897a4fd001cbd, -542), (0xd3094c70f034de4b96ff7d5b6f99fcd8fb28f8b60985a3ace225fe4831b3f966177ab93cd48917109f376dfbcb8acc8ba4f6acc67b30f91dae19ba8015b12f49fa003a49, -543)),
        '1@512': ((0xadf85458a2bb4a9aafdc5620273d3cf1d8b9c583ce2d3695a9e13641146433fbcc939dce249b3ef97d2fe363630c75d8f681b202aec4617ad3df1ed5d5fd65612433f485, -542), (0xadf85458a2bb4a9aafdc5620273d3cf1d8b9c583ce2d3695a9e13641146433fbcc939dce249b3ef97d2fe363630c75d8f681b202aec4617ad3df1ed5d5fd65612433f5db, -542)),
        '2.75@512': ((0xfa48385edf47e967751198a5b272f75c260f29691a203ec3df51fa0362621c865f6d9c1242a636091616833ad2aaa29a4e0144962fc11bb8f80372c572f335cad19c4c6d, -540), (0xfa48385edf47e967751198a5b272f75c260f29691a203ec3df51fa0362621c865f6d9c1242a636091616833ad2aaa29a4e0144962fc11bb8f80372c572f335cad19c5023, -540)),
        '40@512': ((0xd11069cbcb97545a1b083a2d56cee2d882a7e2da328c63833faed37055f7bdebe36d9b60d7a969616457a5a39c07d20c7d0bc5c49901c81109e5f1eeb4b3d0196bc7f609, -486), (0x1a220d397972ea8b43610745aad9dc5b1054fc5b46518c7067f5da6e0abef7bd7c6db36c1af52d2c2c8af4b47380fa418fa178b893203902213cbe3dd6967a032d790505, -483)),
        '-100@512': ((0xd460f8a7157ae579eec89bae3a7e5ae6c05cbc460024fffd539a3832c4e54f7f21c71cf5dce0f782cceb24a82ef1fd1a268323101887e09499214e179ea92b03b74433a5, -688), (0x6a307c538abd72bcf7644dd71d3f2d73602e5e2300127ffea9cd1c196272a7bf90e38e7aee707bc1667592541778fe8d134191880c43f04a4c90a70bcf549581dba24f8f, -687)),
        '0.1@512': ((0x8d763d9ad0069cd7c11c604c2b558c0e30bf02e43b328f23765ddf93e78ca0b7f9750ba091f86edbd266f4a8fd9e8566c3c05305e1bd09a42756d39bc7c1073f9d1b6d35, -543), (0x8d763d9ad0069cd7c11c604c2b558c0e30bf02e43b328f23765ddf93e78ca0b7f9750ba091f86edbd266f4a8fd9e8566c3c05305e1bd09a42756d39bc7c1073f9d1b6d7b, -543)),
    },
    'raw_log': {
        '1e-20@128': ((-0xb834f1551552d71ca4ec8bb66387ccb31bb6a91b, -154), (-0x17069e2aa2aa5ae3949d9176cc70f9966376d523, -151)),
        '0.3@128': ((-0x134378fcbda7206e50541cb590610abeecc2b711, -156), (-0x4d0de3f2f69c81b9415072d641842afbb30adc43, -158)),
        '0.70703125@128': ((-0xb1801859d56249dc18ce51fff99479cd4bbb97bb, -161), (-0x58c00c2ceab124ee0c6728fffcca3ce6a5ddcbdd, -160)),
        '1@128': ((0x0, 0), (0x0, 0)),
        '1.5@128': ((0xcf991f65fcc25f95b46bb37a02910c0cfa41ff65, -161), (0x19f323ecbf984bf2b68d766f405221819f483fed, -158)),
        '2@128': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193, -159), (0xb17217f7d1cf79abc9e3b39803f2f6af40f34327, -160)),
        '1e30@128': ((0x8a27b4ffcffe21557bb168c8caa5d9865466ee29, -153), (0x2289ed3ff3ff88555eec5a3232a976619519bb8b, -151)),
        '0.5@128': ((-0xb17217f7d1cf79abc9e3b39803f2f6af40f34327, -160), (-0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193, -159)),
        '1e-20@512': ((-0xb834f1551552d71ca4ec8bb66387ccb31b33e83850f5775224b7a622826c38cf3bbac38d9e121473ff8cfeb03776d0c2377aad1e514edb91ba7356a5039e5c8c1a1ac919, -538), (-0x5c1a78aa8aa96b8e527645db31c3e6598d99f41c287abba9125bd31141361c679ddd61c6cf090a39ffc67f581bbb68611bbd568f28a76dc8dd39ab5281cf2e460d0d648b, -537)),
        '0.3@512': ((-0x9a1bc7e5ed39037282a0e5ac830855f6e615b886d8cbab24e8c0458edb3bc01ed71244465cecd49170a89be6d6f0d365a7963dacf2c3e7650f83048f7db7ca7b2cf1a6d5, -543), (-0x9a1bc7e5ed39037282a0e5ac830855f6e615b886d8cbab24e8c0458edb3bc01ed71244465cecd49170a89be6d6f0d365a7963dacf2c3e7650f83048f7db7ca7b2cf1a6d3, -543)),
        '0.70703125@512': ((-0x1630030b3aac493b8319ca3fff328f39a97772f744b1e23b5fba78e30e9fee2a562c1051943baf08c4bc0e687c8c04cdcc2acd490faa7bbc2f35cc68e3c56725a5ffc701, -542), (-0xb1801859d56249dc18ce51fff99479cd4bbb97ba258f11dafdd3c71874ff7152b160828ca1dd784625e07343e460266e61566a487d53dde179ae63471e2b392d2ffe3807, -545)),
        '1@512': ((0x0, 0), (0x0, 0)),
        '1.5@512': ((0xcf991f65fcc25f95b46bb37a02910c0cfa41ff668a8faf856715af1d8b3c76c185be19633db5d76ff5b9486f7140e788ea5acda2badf36bb4fc13b8ffd761c7e90739597, -545), (0x67cc8fb2fe612fcada35d9bd014886067d20ffb34547d7c2b38ad78ec59e3b60c2df0cb19edaebb7fadca437b8a073c4752d66d15d6f9b5da7e09dc7febb0e3f4839cacd, -544)),
        '2@512': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b650b, -543), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca17, -544)),
        '1e30@512': ((0x1144f69ff9ffc42aaf762d191954bb30ca8cddc54797032fb37137933c3a25536d99825546d1b1eadff537e0853323923533803ad79f6495a97ad01f7856d8ad22154523, -534), (0x4513da7fe7ff10aabdd8b4646552ecc32a3377151e5c0cbecdc4de4cf0e8954db66609551b46c7ab7fd4df8214cc8e48d4ce00eb5e7d9256a5eb407de15b62b48855148d, -536)),
        '0.5@512': ((-0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca17, -544), (-0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b650b, -543)),
    },
    'raw_sin': {
        '-2.5@128': (((-0x9935786e7e5584057b197d3d34eae4b042be8c7d, -160), (-0x1326af0dcfcab080af632fa7a69d5c960857d18f, -157)), ((-0x668bdfbe162df4ac3e7d50bf4b94a3bf8fa68de9, -159), (-0x668bdfbe162df4ac3e7d50bf4b94a3bf8fa68de7, -159))),
        '1e-25@128': (((0xf79687aed3eec5513a83ddbd83f52203ffffffff, -243), (0x3de5a1ebb4fbb1544ea0f76f60fd4881, -209)), ((0xffffffffffffffffffffffffffffffffffffffff, -160), (0x1, 0))),
        '0.5@128': (((0xf57743a2582f7f43b25e1b27ec1bdb3325e8b69f, -161), (0x7abba1d12c17bfa1d92f0d93f60ded9992f45b5, -156)), ((0x7054a0196df53e76deeeced17d7d6cc2ab2b359d, -159), (0xe0a94032dbea7cedbddd9da2fafad98556566b3b, -160))),
        '1.5707963267948966@128': (((0xffffffffffffffffffffffffffff0a325972508d, -160), (0x7fffffffffffffffffffffffffff85192cb92847, -159)), ((0x58b05655a755321d1794812703ffe39d54d27ccb, -214), (0xb160acab4eaa643a2f29024e08ffc73aa9a4f997, -215))),
        '3.141592653589793@128': (((0x8976dff4cbfc3d34ec052049c0e59372916b2c97, -211), (0x112edbfe997f87a69d80a4093820b26e522d6593, -208)), ((-0xffffffffffffffffffffffffff6c5f1a31882729, -160), (-0x1fffffffffffffffffffffffffed8be3463104e5, -157))),
        '10@128': (((-0x45a27bd7cd3d49673fd915f012710004a757c293, -159), (-0x8b44f7af9a7a92ce7fb22be024e200094eaf8515, -160)), ((-0xd6cd64486358f904f7e2a0b9994e4c3bacd2e0e1, -160), (-0xd6cd64486358f904f7e2a0b9994e4c3bacd2e0d7, -160))),
        '-1e5@128': (((-0x249b5538a4fd2c71d9f638f872a18b7a8c3ada45, -162), (-0x926d54e293f4b1c767d8e3e1ca862dea30ab6913, -164)), ((-0x7feb0e106cf69cd842df960d4bc21c495b8841ad, -159), (-0xffd61c20d9ed39b085bf2c1a97843892b7105ebb, -160))),
        '1@128': (((0x6bb5523c2433b8106374f484e2879e1944f28889, -159), (0x35daa91e1219dc0831ba7a427143cf0ca2794445, -158)), ((0x114a280fb5068b923848cdb2ed0e37a53446e751, -157), (0x8a51407da8345c91c2466d976871bd29a2373a8b, -160))),
        '0.2@128': (((0xcb6ff919ee95dfbaa74a7dee2980ed387bd73ea9, -162), (0x65b7fc8cf74aefdd53a53ef714c0769c3deb9f55, -161)), ((0xfae5a4abbb13d059fef7b50fd18acca79d119fd, -156), (0xfae5a4abbb13d059fef7b50fd18acca79d119fd1, -160))),
        '-2.5@512': (((-0x9935786e7e5584057b197d3d34eae4b042be8c7aa29555f2ac8f27960dc60ea35b6c1330811bf66d55fcdbdeec2cb18651a720f7b8ac84603d41f8b1151267f427427cdb, -544), (-0x4c9abc373f2ac202bd8cbe9e9a757258215f463d514aaaf9564793cb06e30751adb60998408dfb36aafe6def761658c328d3907bdc5642301ea0fc588a8933fa13a13e6b, -543)), ((-0x19a2f7ef858b7d2b0f9f542fd2e528efe3e9a379f63b9082a39f31da089a69a3f741bf04ec413086db01129ecdcd98de0382b2c65e1f8e8e0ddd958a127ba5a28a08fc4f, -541), (-0xcd17bf7c2c5be9587cfaa17e9729477f1f4d1bcfb1dc84151cf98ed044d34d1fba0df82762098436d80894f66e6cc6f01c159632f0fc74706eecac5093dd2d145047e275, -544))),
        '1e-25@512': (((0xf79687aed3eec5513a83ddbd83f522048c1389bc7e28d794c44b21e0e82b4321fff95c418b4196c27e2b939f6b1a471c1d81a0b00229b9b4f6cf6cff561e56147d7eb9f3, -627), (0x3de5a1ebb4fbb1544ea0f76f60fd48812304e26f1f8a35e53112c8783a0ad0c87ffe571062d065b09f8ae4e7dac691c70760682c008a6e6d3db3db3fd58795851f5fae7d, -625)), ((0xfffffffffffffffffffffffffffffffffffffffffe21185b52b47e1106d38332f4e125777f6a874c377c9a8639a3d93919f81f772ef1ec869ac400cc2273f02cf5929df7, -544), (0x1fffffffffffffffffffffffffffffffffffffffffc4230b6a568fc220da70665e9c24aeefed50e986ef9350c7347b27233f03eee5de3d90d3588019844e7e059eb253bf, -541))),
        '0.5@512': (((0xf57743a2582f7f43b25e1b27ec1bdb3325e8b69f95e279ab16606d27a541b68fb66b5d147539f6eab9fd1d325d77ed981a08cf701eac46dda52c533bd11d6f9fc7844811, -545), (0x7abba1d12c17bfa1d92f0d93f60ded9992f45b4fcaf13cd58b303693d2a0db47db35ae8a3a9cfb755cfe8e992ebbf6cc0d0467b80f56236ed296299de88eb7cfe3c22409, -544)), ((0xe0a94032dbea7cedbddd9da2fafad98556566b3a89f43eabd72350af3e8b19e801204d8fe2efe077f80079908adf28ed005ab15efa33e62f72a25e5bc53ccdbf8852aec3, -544), (0x382a500cb6fa9f3b6f776768bebeb66155959acea27d0faaf5c8d42bcfa2c67a00481363f8bbf81dfe001e6422b7ca3b4016ac57be8cf98bdca89796f14f336fe214abb1, -542))),
        '1.5707963267948966@512': (((0x3fffffffffffffffffffffffffffc28c965c94235ea29c832f01417146d62ca0eb45ac06220083a3217e1322741dee92d103e7ec7c6fbd63d1a3682767a3c6f8683d5039, -542), (0xffffffffffffffffffffffffffff0a325972508d7a8a720cbc0505c51b58b283ad16b01888020e8c85f84c89d077ba4b440f9fb1f1bef58f468da09d9e8f1be1a0f540e5, -544)), ((0xb160acab4eaa643a2ee60a493e2762e6fa8f2d6ab58129e5e6cae2d172f0d7150681fe5edcc789f5a453099fef1762dd1634272438578aa0fd7bcc8ebb5275896f17f24f, -599), (0xb160acab4eaa643a2ee60a493e2762e6fa8f2d6ab58129e5e6cae2d172f0d7150681fe5edcc789f5a453099fef1762dd1634272438578aa0fd7bcc8ebc5275896f17f25, -595))),
        '3.141592653589793@512': (((0x44bb6ffa65fe1e9a75fa103eb237ade0fda0948ffc17706b7679df9d6b7aaf77a22911e020208ac782d4b623ca87ac6def4d96b19724ff13bb8ef6cee46ee8f63597b89d, -594), (0x8976dff4cbfc3d34ebf4207d646f5bc1fb41291ff82ee0d6ecf3bf3ad6f55eef445223c04041158f05a96c47950f58dbde9b2d632e49fe27771ded9dc8fdd1ec6b2f713b, -595)), ((-0xffffffffffffffffffffffffff6c5f1a31882728fc01549d387fa52a166211b6d6af18da295ba801070c55b5c9f49e3556bbab8425c1e011be2928a51bab6fbcae83e4eb, -544), (-0x7fffffffffffffffffffffffffb62f8d18c413947e00aa4e9c3fd2950b3108db6b578c6d14add40083862adae4fa4f1aab5dd5c212e0f008df1494528dd5b7de5741f275, -543))),
        '10@512': (((-0x45a27bd7cd3d49673fd915f012710004a757c28f4cfee47ebeffe852774ecec40ffdec2d01e251b482253ea8ae6dc386403925c5e6ff262765cc7c81854c9c43e6843879, -543), (-0x8b44f7af9a7a92ce7fb22be024e200094eaf851e99fdc8fd7dffd0a4ee9d9d881ffbd85a03c4a369044a7d515cdb870c80724b8bcdfe4c4ecb98f9030a993887cd0870d1, -544)), ((-0x1ad9ac890c6b1f209efc54173329c987759a5c1b5b34e38d38f0458d807037d5ecbe333f3ca7096b4ee64d1e115dc9f71b9dc05014b79583511cda8c10d8581ad73488f, -537), (-0xd6cd64486358f904f7e2a0b9994e4c3bacd2e0dad9a71c69c7822c6c0381beaf65f199f9e5384b5a773268f08aee4fb8dcee0280a5bcac1a88e6d46086c2c0d6b9a4476d, -544))),
        '-1e5@512': (((-0x926d54e293f4b1c767d8e3e1ca862dea30d563c4e597c29ff41efa8bff90ad924238c9abb0040464471c72cd94a863a4fe0de93849c84ec07c97e665aa4df1101b0e8e5, -544), (-0x926d54e293f4b1c767d8e3e1ca862dea30d563c4e597c29ff41efa8bff90ad924238c9abb0040464471c72cd94a863a4fe0de93849c84ec07c97e665aa4df1101ace8e4f, -548)), ((-0xffd61c20d9ed39b085bf2c1a97843892b7106b547558b53e12e0ff95b65ebc38663c3f7cc6efc836b198b5d65c0dc0c56bf9d6f5c03fea68abcb9caaf6241f3a44ed9e0d, -544), (-0xffd61c20d9ed39b085bf2c1a97843892b7106b547558b53e12e0ff95b65ebc38663c3f7cc6efc836b198b5d65c0dc0c56bf9d6f5c03fea68abcb9caaf6241f3a44ed796f, -544))),
        '1@512': (((0xd76aa47848677020c6e9e909c50f3c3289e511132f518b4defb6ca5fd6c649bdfb0bd9ff1edcd4577655b5826a3d3b50c26355635dfd0cebfe89a6250ceb04172939e8d7, -544), (0xd76aa47848677020c6e9e909c50f3c3289e511132f518b4defb6ca5fd6c649bdfb0bd9ff1edcd4577655b5826a3d3b50c26355635dfd0cebfe89a6250ceb04172939e8d9, -544)), ((0x8a51407da8345c91c2466d976871bd29a2373a894f96c3b7f2300240b760e6fa96a94430a52d0e9e43f3450e3b8ff99bc9344041db8202049606fa2352b463757b50f801, -544), (0x2294501f6a0d172470919b65da1c6f4a688dcea253e5b0edfc8c00902dd839bea5aa510c294b43a790fcd1438ee3fe66f24d101076e080812581be88d4ad18dd5ed43e01, -542))),
        '0.2@512': (((0xcb6ff919ee95dfbaa74a7dee2980ed39448ef59951690677d86c98990e983aff9ae7b01336b35a0be4cf6923f036248b384f7a17c039b5bc5d532b7d261ee7d6f2301b5, -542), (0xcb6ff919ee95dfbaa74a7dee2980ed39448ef59951690677d86c98990e983aff9ae7b01336b35a0be4cf6923f036248b384f7a17c039b5bc5d532b7d261ee7d6f2301b51, -546)), ((0xfae5a4abbb13d059fef7b50fd18acca792e5a028a168062dc5543921a60068e89b26c61753a23e335aebefea68e696fccb1056eda307c43ee4c0749514628c035f166d4f, -544), (0xfae5a4abbb13d059fef7b50fd18acca792e5a028a168062dc5543921a60068e89b26c61753a23e335aebefea68e696fccb1056eda307c43ee4c0749514628c035f166d5, -540))),
    },
    'raw_atan': {
        '-3@128': ((-0x13fc176b7a855ffd77cb88581def96352e00c58d, -156), (-0x9fe0bb5bd42affebbe5c42c0ef7cb1a970062c65, -159)),
        '1e-30@128': ((0xa2425ff75e14fc31a1258379a94d028cffffffff, -259), (0xa2425ff75e14fc31a1258379a94d028d, -227)),
        '0.2@128': ((0x651107e3dc982d976782990275db88e09eac0931, -161), (0xca220fc7b9305b2ecf053204ebb711c13d581263, -162)),
        '0.25@128': ((0xfadbafc96406eb156dc79ef5f7a217e5aa7fa903, -162), (0x3eb6ebf25901bac55b71e7bd7de885f96a9fea41, -160)),
        '0.9@128': ((0x5dcce2a0180ef97836a9025bb70c8474ea0b0e0d, -159), (0xbb99c540301df2f06d5204b76e1908e9d4161c1f, -160)),
        '1@128': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e05, -160), (0xc90fdaa22168c234c4c6628b80dc1cd129024e0d, -160)),
        '7@128': ((0x16dcc57bb565fcb58de6ee1b5c659c9700cf2d49, -156), (0x5b7315eed597f2d6379bb86d7196725c033cb525, -158)),
        '1e6@128': ((0x6487e91f52cc33a0889d558ff2e67054cbb61cab, -158), (0x1921fa47d4b30ce822275563fcb99c1532ed872b, -156)),
        '-1@128': ((-0xc90fdaa22168c234c4c6628b80dc1cd129024e0d, -160), (-0xc90fdaa22168c234c4c6628b80dc1cd129024e05, -160)),
        '-3@512': ((-0x4ff05dadea157ff5df2e216077be58d4b8031633075d8efd1cdcd2866bf12fa9d3a60d4154b26b650cde48cc0c231cf725e6ff9d5c3f45104ed359222c18c2492843d649, -542), (-0x9fe0bb5bd42affebbe5c42c0ef7cb1a970062c660ebb1dfa39b9a50cd7e25f53a74c1a82a964d6ca19bc9198184639ee4bcdff3ab87e8a209da6b244583184925087ac8f, -543)),
        '1e-30@512': ((0x51212ffbaf0a7e18d092c1bcd4a681468c6f96668ff00501daf14d4a2a124fb507412a0399211acedb5f3a292b852f3c0340da9e2608e1e0592ae722372184da5be52ad3, -642), (0xa2425ff75e14fc31a1258379a94d028d18df2ccd1fe00a03b5e29a9454249f6a0e8254073242359db6be7452570a5e780681b53c4c11c3c0b255ce446e4309b4b7ca55a7, -643)),
        '0.2@512': ((0xca220fc7b9305b2ecf053204ebb711c2024461272e98073ccc47210c1bd3d2c0e5876bb6258c8f6c0ec71234b685ddd8742e74d4d5b6d2b6fc9dad03493fb5e4eb4a2727, -546), (0x194441f8f7260b65d9e0a6409d76e23840488c24e5d300e79988e421837a7a581cb0ed76c4b191ed81d8e24696d0bbbb0e85ce9a9ab6da56df93b5a06927f6bc9d6944e5, -543)),
        '0.25@512': ((0xfadbafc96406eb156dc79ef5f7a217e5aa7fa90388b3836b7a3a767c9449a76592b9251668e5765305be8c5ba5831a3e3c2bc227071e4f9a0f41c3ab039983799e8ab743, -546), (0x3eb6ebf25901bac55b71e7bd7de885f96a9fea40e22ce0dade8e9d9f251269d964ae49459a395d94c16fa316e960c68f8f0af089c1c793e683d070eac0e660de67a2add1, -544)),
        '0.9@512': ((0xbb99c540301df2f06d5204b76e1908ea0ca93427b85b2609e3b4a978614cbf3c38b5ae0db2f086678c2816ed827f3135ee8bee2e315bd3c17c96120cdf15c0003b89d865, -544), (0xbb99c540301df2f06d5204b76e1908ea0ca93427b85b2609e3b4a978614cbf3c38b5ae0db2f086678c2816ed827f3135ee8bee2e315bd3c17c96120cdf15c0003b89d86d, -544)),
        '1@512': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b573, -544), (0x6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e122f242dabd, -543)),
        '7@512': ((0xb6e62bddab2fe5ac6f3770dae32ce4b806796a493c8d432d91aa1285e3ec452e7ca0e02a90b85e96a37b9d11508533e760cf9b9d6cf09e490c65a108e0e95c8a1a3eec87, -543), (0xb6e62bddab2fe5ac6f3770dae32ce4b806796a493c8d432d91aa1285e3ec452e7ca0e02a90b85e96a37b9d11508533e760cf9b9d6cf09e490c65a108e0e95c8a1a3eec89, -543)),
        '1e6@512': ((0x1921fa47d4b30ce822275563fcb99c1532ed872ad9b55aff695f62d1a66bb81d76954308ca59f938862cf5135259aa84b2b8b87433e84a451a6adee01b5fdcabeb21fd95, -540), (0x6487e91f52cc33a0889d558ff2e67054cbb61cab66d56bfda57d8b4699aee075da550c232967e4e218b3d44d4966aa12cae2e1d0cfa1291469ab7b806d7f72afac87f655, -542)),
        '-1@512': ((-0x6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e122f242dabd, -543), (-0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b573, -544)),
    },
    'raw_exp_integral': {
        '1e-10@128': ((0xb396ce15fcd4ecdab8f7de8d2412fe8b2b8c44b46d4e4a79, -187), (0xb396ce15fcd4ecdab8f7de8d2412fe8b2b8c44b46d6c38f5, -187)),
        '0.5@128': ((0x11e9aa50574b81b751af26db12487eda5cf67701cf8c5c77, -189), (0x47a6a9415d2e06dd46bc9b6c4921fb6973d9dc0740105995, -191)),
        '1@128': ((0x38298ba77f1f271f615dd7dcb3c95917734b52f059da45e5, -192), (0x7053174efe3e4e3ec2bbafb96792b22ee696a5e0bb302a8b, -193)),
        '5@128': ((0x12d04d00aecaf669f37e2d945b7b53b27fdffcf86adc0a65, -198), (0x4b413402bb2bd9a7cdf8b6516ded4ec9ff7ff3e5693f739, -196)),
        '20@128': ((0x3612457155e89c3ba41e024f0fd6bd38e43c03cce348f11, -219), (0x3612457155e89c3ba41e024f0fd6bd38e61aeb719095a51, -219)),
        '33@128': ((0x278707cafb66527ffc33e9ce4338fbb9b86492ab4e0d93, -234), (0x13c383e57db3293ffe19f4e7219c85587ac4fe83b445bad, -237)),
        '34@128': ((0x38803e2ee51faae827f980931c5f32a2a007681515873d, -236), (0x1c401f17728fd57413fcc0498e2fb73fca4e88c55e2827b, -239)),
        '40@128': ((0x7a5af36cdb509d42e63fd24273e3944f6ebdcf6f, -222), (0xf7b1f3b23a92990ec9567f96801cd976ba758555, -223)),
        '1e-10@512': ((0x59cb670afe6a766d5c7bef4692097f4594e7cc723706a34aceb2eb9b66548cd4487bbe5cd4c54a36e29f268c12cbd4868c735509b0284fecc7569b4edf8e6a0c0919714f3060481f, -570), (0x2ce5b3857f353b36ae3df7a34904bfa2ca73e6391b8acd43fa0ea3d56f0ef85d586a5a988c64fafe4071a3313467bc097b23c2f591fe29ce3f7d7ba5459e19764d2fd5d11d89860f, -569)),
        '0.5@512': ((0x8f4d5282ba5c0dba8d7936d89243f6d2e7b3b80e7c62e3cb69d74cbc5156df00e9e675bc6de55c1305efd2db17bf14a150c675fe2645b8a352282e7534767f1f03042c276260cd9f, -576), (0x47a6a9415d2e06dd46bc9b6c4921fb6973d9dc074010598a6237284d21d7ec4d80121566b78826bd4b7be4384c53fbdde2e9572d8da352489d9f96b00ff45ba1aa4960750788e6c3, -575)),
        '1@512': ((0x1c14c5d3bf8f938fb0aeebee59e4ac8bb9a5a9782ced22f7d5f112f529ea74280a8685e2e6beecf39f95526ea9a54f55657a142c5001fca59f225c9302c14df3c831b7b325310131, -575), (0x38298ba77f1f271f615dd7dcb3c95917734b52f05d981539067929c8462de1ea2b4ac0d6cea8cb4ed0329a72d43381c5400060b59504e539275bb810f0f4d40be1f20428f7130221, -576)),
        '5@512': ((0x968268057657b34f9bf16ca2dbda9d93feffe7c356e053c96c2b53f4dccf911adc753dd4bdfe95ccf4f007bbb5ef7f405bf3ca4518d5a0806a0d5e97474b530b6e51356639043e9, -581), (0x12d04d00aecaf669f37e2d945b7b53b27fdffcf95a4fdccfd34661fb31d858a8eafbebfae27c2c9de09b6657b0f6b6854e8c9085e355af8a5301668dc5777375d16f5757f3606291, -582)),
        '20@512': ((0x1b0922b8aaf44e1dd20f012787eb5e9c721e01e671a4c510452bdbe489e9fc05c90cc94e3ae14f9950bfa98136f5f249f020ee85ab844d6a6230e2aa534acd6e40d3db933310097, -602), (0x3612457155e89c3ba41e024f0fd6bd38e61aeb7190950c0f838434961ef2d29412af0b503e4699fd61f3c48fa87200c25ac253024b941a4a3a1ae166cf5ce53dd80036db395fb7f, -603)),
        '33@512': ((0x13c383e57db3293ffe19f4e7219c7ddcdc324955a9c84fba9013e4ef0289ee48e6348b1787bbf38621d2fafd52a19426d7deca3fd33e69ee7eabd8541baaecc0ebccd8b9cafe3b3, -621), (0x4f0e0f95f6cca4fff867d39c86721561eb13fa0ec610d1b20d2045a9b2afc27b240eb49dcb9bd55fa01f94570d6df8a2beea71b74451034bbbd1edc514c1188baa8096ce52f64f, -619)),
        '34@512': ((0x1c401f17728fd57413fcc0498e2f99515003b40be4fe19a761ff62c59408dcfd08cb0d7bcdcf4a16fdeb6098d651ca62087f95076eb3639698b12d2e99e7f1e8f77593f2b03b767, -623), (0x71007c5dca3f55d04ff3012638bedcff293a23100fb6b1bcbb4052ccf2439952501e56ede9ed45785afc23ea64e5c9a59fbb76fd982afca1674ee68cfff55dc3cb0b1f71d68639, -621)),
        '40@512': ((0x3d2d79b66da84ea1731fe92139f1ca27b75ee7bba7bef35081c0fc30fe3328fb5a5a03eacc5e9c3423f254a07b00afeb7a2bb17b0553edb0ba3f848bbd8f743f91d2183d, -605), (0xf7b1f3b23a92990ec9567f96801cd976ba7585151ff681fdfc89c77c120dee8a7b75a124e62ef3d58b27eccf92f5ba5630d885eca214383c79e38cb23a624a93a8885917, -607)),
    },
    'raw_erfc_enclosure': {
        '0@128': ((0x1, 0), (0x1, 0)),
        '1e-8@128': ((0xffffffcf89570090d5d8ff07b2b0d16c05eaf0b27c6df6d3, -192), (0xffffffcf89570090d5d8ff07b2b0d16c05eaf0b27c6df6d9, -192)),
        '0.1@128': ((0xe335a15db04ccc6152ac8b87799303430fe3f6c14153615b, -192), (0xe335a15db04ccc6152ac8b87799303430fe3f6c141536173, -192)),
        '1@128': ((0x5089858bef775392feef0244f2d90c59bce782d743ee156f, -193), (0x5089858bef775392feef0244f2d90c59bce782d743ee15a7, -193)),
        '3@128': ((0x2e53beca0684541784ca4c429a1488d930bef6ab22fdda0f, -205), (0x5ca77d940d08a82f09949885342911b2617ded5645fbb5, -198)),
        '5.9@128': ((0xa5ccb00d1a1eb29cee00fa29d20871b71e989ab6191b9f3, -241), (0xa5ccb00d1a1eb29cee00fa29d20871b71e989fa62684f7f, -241)),
        '6@128': ((0x18cf81557d20b61a7fff0cc732bf9b2f06a7de857fb20e61, -244), (0x18cf81557d20b61a7fff0cc732bf9b2f06a7de8587defbdb, -244)),
        '7@128': ((0xca4c507d2cc0ceda44773ac5ecdc675cb7a67077, -234), (0x65840093831596621cf1b7e57c79e93d7d833e05, -233)),
        '0.5@128': ((0x3d60428f9c48b750bfb072e72ec2b59efbd4909d88d46359, -191), (0x7ac0851f38916ea17f60e5ce5d856b3df7a9213b11a8c6db, -192)),
        '0@512': ((0x1, 0), (0x1, 0)),
        '1e-8@512': ((0x7fffffe7c4ab80486aec7f83d95868b602f5785098b96079613778283b67ea5545fc93439f6442f23b959824c1c627c5e573ce156da61afc17a7f93cc3503c0250e5fb5e03ff2ded, -575), (0xffffffcf89570090d5d8ff07b2b0d16c05eaf0a13172c0f2c26ef05076cfd4aa8bf926873ec885e4772b3049838c4f8bcae79c2adb4c35f82f4ff27986a07804a1cbf6bc07fe5be7, -576)),
        '0.1@512': ((0xe335a15db04ccc6152ac8b8779930342f34a995fac0495be45cb3f6240ff7f0ecf6ed4b988d621f78fef1ed99e2922dce43b4d4f2c1e443fdf59caecb46309b4caf938c984df0f7d, -576), (0xe335a15db04ccc6152ac8b8779930342f34a995fac0495be45cb3f6240ff7f0ecf6ed4b988d621f78fef1ed99e2922dce43b4d4f2c1e443fdf59caecb46309b4caf938c984df0fb9, -576)),
        '1@512': ((0x14226162fbddd4e4bfbbc0913cb643166f39e0b5d0fb85629522a17c7e9f72c5607feacd988d76276bf91173854200dc84330a26bf4507ac6dd361cd0e0352cc8314e808b3e34805, -575), (0x5089858bef775392feef0244f2d90c59bce782d743ee158a548a85f1fa7dcb1581ffab366235d89dafe445ce1508037210cc289afd141eb1b74d8734380d4b320c53a022cf8d208f, -577)),
        '3@512': ((0x1729df6503422a0bc26526214d0a446c985f7b55917eed25677d154fe830da3a55e304d1a5671ba5790334714197413b336e20536516b3f9e74c849e8a6495aa9451a0eb90d09769, -588), (0x2e53beca0684541784ca4c429a1488d930bef6ab22fdda4acefa2a9fd061b474abc609a34ace374af20668e2832e827666dc40a6ca2d67f3ce99093d14c92b5528a341d721a12fb3, -589)),
        '5.9@512': ((0xa5ccb00d1a1eb29cee00fa29d20871858664ad08d319f6f1a05d651f67ea85ee64e08f76f7a49a79573e62139a4e14a61168dd75f74cbd01c53cc92a7a61b73ddd7db6a7e1cf359, -625), (0x14b99601a343d6539dc01f453a410e30b0cc95a11a633ede340baca3ecfd50bdcc9c11eedef4934f2ae7cc427349c294c22d1baebee997a038a799254f4c36e7bbafb76b32622271, -626)),
        '6@512': ((0x18cf81557d20b61a7fff0cc732bf9b2f06a7de8583c8851ec18a8d89d80a8d34adc10f4110af829cad2ec8c7857ef7be8d7cb5af50aa1200a5be11e8709ce4e34c5142b875e74917, -628), (0x18cf81557d20b61a7fff0cc732bf9b2f06a7de8583c8851ec18a8d89d80a8d34adc10f4110af829cad2ec8c7857ef7be8d7cb5af50aa1200a5be11e8709ce4e34c5142b87e1579d3, -628)),
        '7@512': ((0xca4c507d2cc0ceda44773ac5ecdc675cb7a67079fabf93c55a584d684bb206a7e298b9a6e3a60d9d591353ddf6aed127a931cc49c853310d45c9b7ed90d9fae7f86fc6bb, -618), (0x32c20049c18acb310e78dbf2be3cf49ebec19f01e92e1ef719d4601966ce92584d07e9cebe0942eaec4b7881446c40c4445ffd6001956c444df048310b8848e4f8e0b6f3, -616)),
        '0.5@512': ((0x7ac0851f38916ea17f60e5ce5d856b3df7a9213b11a8c6c3c82ca87b392651e7f87a0b5abc7f612137363321b890fad811323b94673e87bc52753fd7093ae85d293f2e422356d4ad, -576), (0x1eb02147ce245ba85fd8397397615acf7dea484ec46a31b0f20b2a1ece499479fe1e82d6af1fd8484dcd8cc86e243eb6044c8ee519cfa1ef149d4ff5c24eba174a4fcb9088d5b543, -574)),
    },
}


# fmt: off
SERIES_PATH_PINS: dict = {
    'sin': {
        '1e-25@512': ((0x3de5a1ebb4fbb1544ea0f76f60fd48812304e26f1f8a35e53112c8783a0ad0c87ffe571062d065b09f8ae4e7dac691c70760682c008a6e6d3db3db3fd5879585, -593), (0xf79687aed3eec5513a83ddbd83f522048c1389bc7e28d794c44b21e0e82b4321fff95c418b4196c27e2b939f6b1a471c1d81a0b00229b9b4f6cf6cff561e561b, -595)),
    },
    'raw_sin': {
        '-2.5@128': (((-0x9935786e7e5584057b197d3d34eae4b042be8c87, -160), (-0x4c9abc373f2ac202bd8cbe9e9a757258215f4637, -159)), ((-0xcd17bf7c2c5be9587cfaa17e9729477f1f4d1bdb, -160), (-0xcd17bf7c2c5be9587cfaa17e9729477f1f4d1bc5, -160))),
        '1e-25@128': (((0x7bcb43d769f762a89d41eedec1fa9101ffffffff, -242), (0xf79687aed3eec5513a83ddbd83f5220400000001, -243)), ((0x7fffffffffffffffffffffffffffffffffffffff, -159), (0x8000000000000000000000000000000000000001, -159))),
        '0.5@128': (((0x7abba1d12c17bfa1d92f0d93f60ded9992f45b4b, -160), (0xf57743a2582f7f43b25e1b27ec1bdb3325e8b6a9, -161)), ((0x7054a0196df53e76deeeced17d7d6cc2ab2b3599, -159), (0x382a500cb6fa9f3b6f776768bebeb66155959ad1, -158))),
        '1.5707963267948966@128': (((0x3fffffffffffffffffffffffffffc28c965c9423, -158), (0xffffffffffffffffffffffffffff0a325972508f, -160)), ((0xb160acab4eaa643a2f29024e07ffc73aa9a4f995, -215), (0x162c159569d54c8745e52049c11ff8e755349f33, -212))),
        '3.141592653589793@128': (((0x44bb6ffa65fe1e9a76029024e072c9b948b5964b, -210), (0x8976dff4cbfc3d34ec052049c1059372916b2c99, -211)), ((-0x7fffffffffffffffffffffffffb62f8d18c41395, -159), (-0xffffffffffffffffffffffffff6c5f1a31882727, -160))),
        '10@128': (((-0x45a27bd7cd3d49673fd915f012710004a757c299, -159), (-0x22d13debe69ea4b39fec8af80938800253abe143, -158)), ((-0x6b66b22431ac7c827bf1505ccca7261dd6697075, -159), (-0x35b3591218d63e413df8a82e6653930eeb34b833, -158))),
        '-1e5@128': (((-0x926d54e293f4b1c767d8e3e1ca862dea30eb6e57, -164), (-0x926d54e293f4b1c767d8e3e1ca862dea30ab63d1, -164)), ((-0x7feb0e106cf69cd842df960d4bc21c495b8841b, -155), (-0xffd61c20d9ed39b085bf2c1a97843892b7105eb5, -160))),
        '1@128': (((0x6bb5523c2433b8106374f484e2879e1944f28885, -159), (0xd76aa47848677020c6e9e909c50f3c3289e5111f, -160)), ((0x8a51407da8345c91c2466d976871bd29a2373a7d, -160), (0x4528a03ed41a2e48e12336cbb438de94d11b9d49, -159))),
        '0.2@128': (((0x65b7fc8cf74aefdd53a53ef714c0769c3deb9f51, -161), (0xcb6ff919ee95dfbaa74a7dee2980ed387bd73eb1, -162)), ((0x7d72d255dd89e82cff7bda87e8c56653ce88cfe5, -159), (0x7d72d255dd89e82cff7bda87e8c56653ce88cfed, -159))),
        '-2.5@512': (((-0x9935786e7e5584057b197d3d34eae4b042be8c7aa29555f2ac8f27960dc60ea35b6c1330811bf66d55fcdbdeec2cb18651a720f7b8ac84603d41f8b1151267f427427cf5, -544), (-0x9935786e7e5584057b197d3d34eae4b042be8c7aa29555f2ac8f27960dc60ea35b6c1330811bf66d55fcdbdeec2cb18651a720f7b8ac84603d41f8b1151267f427427cc1, -544)), ((-0xcd17bf7c2c5be9587cfaa17e9729477f1f4d1bcfb1dc84151cf98ed044d34d1fba0df82762098436d80894f66e6cc6f01c159632f0fc74706eecac5093dd2d145047e291, -544), (-0xcd17bf7c2c5be9587cfaa17e9729477f1f4d1bcfb1dc84151cf98ed044d34d1fba0df82762098436d80894f66e6cc6f01c159632f0fc74706eecac5093dd2d145047e25d, -544))),
        '1e-25@512': (((0x7bcb43d769f762a89d41eedec1fa91024609c4de3f146bca622590f07415a190fffcae20c5a0cb613f15c9cfb58d238e0ec0d0580114dcda7b67b67fab0f2b0a3ebf5cf9, -626), (0x7bcb43d769f762a89d41eedec1fa91024609c4de3f146bca622590f07415a190fffcae20c5a0cb613f15c9cfb58d238e0ec0d0580114dcda7b67b67fab0f2b0cd1669959, -626)), ((0xfffffffffffffffffffffffffffffffffffffffffe21185b52b47e1106d38332f4e125777f6a874c377c9a8639a3d93919f81f772ef1ec869ac400cc2273f02cf5929df5, -544), (0x7fffffffffffffffffffffffffffffffffffffffff108c2da95a3f088369c1997a7092bbbfb543a61bbe4d431cd1ec9c8cfc0fbb9778f6434d6200661139f8167ac94efd, -543))),
        '0.5@512': (((0xf57743a2582f7f43b25e1b27ec1bdb3325e8b69f95e279ab16606d27a541b68fb66b5d147539f6eab9fd1d325d77ed981a08cf701eac46dda52c533bd11d6f9fc78447f9, -545), (0xf57743a2582f7f43b25e1b27ec1bdb3325e8b69f95e279ab16606d27a541b68fb66b5d147539f6eab9fd1d325d77ed981a08cf701eac46dda52c533bd11d6f9fc7844827, -545)), ((0xe0a94032dbea7cedbddd9da2fafad98556566b3a89f43eabd72350af3e8b19e801204d8fe2efe077f80079908adf28ed005ab15efa33e62f72a25e5bc53ccdbf8852aea9, -544), (0xe0a94032dbea7cedbddd9da2fafad98556566b3a89f43eabd72350af3e8b19e801204d8fe2efe077f80079908adf28ed005ab15efa33e62f72a25e5bc53ccdbf8852aed7, -544))),
        '1.5707963267948966@512': (((0x7fffffffffffffffffffffffffff85192cb92846bd4539065e0282e28dac5941d68b580c4401074642fc2644e83bdd25a207cfd8f8df7ac7a346d04ecf478df0d07aa071, -543), (0x1fffffffffffffffffffffffffffe1464b2e4a11af514e419780a0b8a36b165075a2d603110041d190bf09913a0ef7496881f3f63e37deb1e8d1b413b3d1e37c341ea81d, -541)), ((0x2c582b2ad3aa990e8bb982924f89d8b9bea3cb5aad604a7979b2b8b45cbc35c541a07f97b731e27d6914c267fbc5d8b7458d09c90e15e2a83f5ef323aed49d625bc5fc93, -597), (0x58b05655a755321d177305249f13b1737d4796b55ac094f2f3657168b9786b8a8340ff2f6e63c4fad22984cff78bb16e8b1a13921c2bc5507ebde6475e293ac4b78bf929, -598))),
        '3.141592653589793@512': (((0x112edbfe997f87a69d7e840fac8deb783f682523ff05dc1add9e77e75adeabdde88a4478080822b1e0b52d88f2a1eb1b7bd365ac65c93fc4eee3bdb3b91bba3d8d65ee27, -592), (0x44bb6ffa65fe1e9a75fa103eb237ade0fda0948ffc17706b7679df9d6b7aaf77a22911e020208ac782d4b623ca87ac6def4d96b19724ff13bb8ef6cee47ee8f63597b89f, -594)), ((-0x7fffffffffffffffffffffffffb62f8d18c413947e00aa4e9c3fd2950b3108db6b578c6d14add40083862adae4fa4f1aab5dd5c212e0f008df1494528dd5b7de5741f277, -543), (-0xffffffffffffffffffffffffff6c5f1a31882728fc01549d387fa52a166211b6d6af18da295ba801070c55b5c9f49e3556bbab8425c1e011be2928a51bab6fbcae83e4e7, -544))),
        '10@512': (((-0x22d13debe69ea4b39fec8af80938800253abe147a67f723f5f7ff4293ba7676207fef61680f128da41129f545736e1c3201c92e2f37f9313b2e63e40c2a64e21f3421c43, -542), (-0x8b44f7af9a7a92ce7fb22be024e200094eaf851e99fdc8fd7dffd0a4ee9d9d881ffbd85a03c4a369044a7d515cdb870c80724b8bcdfe4c4ecb98f9030a993887cd0870b7, -544)), ((-0x6b66b22431ac7c827bf1505ccca7261dd669706d6cd38e34e3c1163601c0df57b2f8ccfcf29c25ad3b993478457727dc6e77014052de560d44736a304361606b5cd223cb, -543), (-0xd6cd64486358f904f7e2a0b9994e4c3bacd2e0dad9a71c69c7822c6c0381beaf65f199f9e5384b5a773268f08aee4fb8dcee0280a5bcac1a88e6d46086c2c0d6b9a44753, -544))),
        '-1e5@512': (((-0x4936aa7149fa58e3b3ec71f0e54316f5186ab1e272cbe14ffa0f7d45ffc856c9211c64d5d8020232238e3966ca5431d27f06f49c24e427603e4bf332d526f8880d8749cd, -547), (-0x926d54e293f4b1c767d8e3e1ca862dea30d563c4e597c29ff41efa8bff90ad924238c9abb0040464471c72cd94a863a4fe0de93849c84ec07c97e665aa4df1101ace8901, -548)), ((-0xffd61c20d9ed39b085bf2c1a97843892b7106b547558b53e12e0ff95b65ebc38663c3f7cc6efc836b198b5d65c0dc0c56bf9d6f5c03fea68abcb9caaf6241f3a44ed9e1d, -544), (-0xffd61c20d9ed39b085bf2c1a97843892b7106b547558b53e12e0ff95b65ebc38663c3f7cc6efc836b198b5d65c0dc0c56bf9d6f5c03fea68abcb9caaf6241f3a44ed795f, -544))),
        '1@512': (((0x6bb5523c2433b8106374f484e2879e1944f2888997a8c5a6f7db652feb6324defd85ecff8f6e6a2bbb2adac1351e9da86131aab1aefe8675ff44d3128675820b949cf461, -543), (0xd76aa47848677020c6e9e909c50f3c3289e511132f518b4defb6ca5fd6c649bdfb0bd9ff1edcd4577655b5826a3d3b50c26355635dfd0cebfe89a6250ceb04172939e8f3, -544)), ((0x8a51407da8345c91c2466d976871bd29a2373a894f96c3b7f2300240b760e6fa96a94430a52d0e9e43f3450e3b8ff99bc9344041db8202049606fa2352b463757b50f7eb, -544), (0x2294501f6a0d172470919b65da1c6f4a688dcea253e5b0edfc8c00902dd839bea5aa510c294b43a790fcd1438ee3fe66f24d101076e080812581be88d4ad18dd5ed43e07, -542))),
        '0.2@512': (((0xcb6ff919ee95dfbaa74a7dee2980ed39448ef59951690677d86c98990e983aff9ae7b01336b35a0be4cf6923f036248b384f7a17c039b5bc5d532b7d261ee7d6f2301b3d, -546), (0x32dbfe467ba577eea9d29f7b8a603b4e5123bd66545a419df61b262643a60ebfe6b9ec04cdacd682f933da48fc0d8922ce13de85f00e6d6f1754cadf4987b9f5bc8c06d9, -544)), ((0x3eb9692aeec4f4167fbded43f462b329e4b9680a285a018b71550e4869801a3a26c9b185d4e88f8cd6bafbfa9a39a5bf32c415bb68c1f10fb9301d254518a300d7c59b4f, -542), (0x3eb9692aeec4f4167fbded43f462b329e4b9680a285a018b71550e4869801a3a26c9b185d4e88f8cd6bafbfa9a39a5bf32c415bb68c1f10fb9301d254518a300d7c59b59, -542))),
    },
    'raw_log': {
        '1e-20@128': ((-0xb834f1551552d71ca4ec8bb66387ccb31bb6a91b, -154), (-0x17069e2aa2aa5ae3949d9176cc70f9966376d523, -151)),
        '0.3@128': ((-0x9a1bc7e5ed39037282a0e5ac830855f76615b889, -159), (-0x2686f1f97b4e40dca0a8396b20c2157dd9856e21, -157)),
        '0.70703125@128': ((-0xb1801859d56249dc18ce51fff99479cd4bbb97d, -157), (-0x58c00c2ceab124ee0c6728fffcca3ce6a5ddcbd7, -160)),
        '1@128': ((0x0, 0), (0x0, 0)),
        '1.5@128': ((0xcf991f65fcc25f95b46bb37a02910c0cfa41ff53, -161), (0x33e647d97f3097e56d1aecde80a443033e907fdd, -159)),
        '2@128': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193, -159), (0xb17217f7d1cf79abc9e3b39803f2f6af40f34327, -160)),
        '1e30@128': ((0x8a27b4ffcffe21557bb168c8caa5d9865466ee29, -153), (0x2289ed3ff3ff88555eec5a3232a976619519bb8b, -151)),
        '0.5@128': ((-0xb17217f7d1cf79abc9e3b39803f2f6af40f34327, -160), (-0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193, -159)),
        '1e-20@512': ((-0xb834f1551552d71ca4ec8bb66387ccb31b33e83850f5775224b7a622826c38cf3bbac38d9e121473ff8cfeb03776d0c2377aad1e514edb91ba7356a5039e5c8c1a1ac919, -538), (-0xb834f1551552d71ca4ec8bb66387ccb31b33e83850f5775224b7a622826c38cf3bbac38d9e121473ff8cfeb03776d0c2377aad1e514edb91ba7356a5039e5c8c1a1ac915, -538)),
        '0.3@512': ((-0x4d0de3f2f69c81b9415072d641842afb730adc436c65d592746022c76d9de00f6b8922232e766a48b8544df36b7869b2d3cb1ed67961f3b287c18247bedbe53d9678d36d, -542), (-0x4d0de3f2f69c81b9415072d641842afb730adc436c65d592746022c76d9de00f6b8922232e766a48b8544df36b7869b2d3cb1ed67961f3b287c18247bedbe53d9678d367, -542)),
        '0.70703125@512': ((-0x2c600616755892770633947ffe651e7352eee5ee8963c476bf74f1c61d3fdc54ac5820a328775e1189781cd0f918099b98559a921f54f7785e6b98d1c78ace4b4bff8e1, -539), (-0xb1801859d56249dc18ce51fff99479cd4bbb97ba258f11dafdd3c71874ff7152b160828ca1dd784625e07343e460266e61566a487d53dde179ae63471e2b392d2ffe37d3, -545)),
        '1@512': ((0x0, 0), (0x0, 0)),
        '1.5@512': ((0x67cc8fb2fe612fcada35d9bd014886067d20ffb34547d7c2b38ad78ec59e3b60c2df0cb19edaebb7fadca437b8a073c4752d66d15d6f9b5da7e09dc7febb0e3f4839cab1, -544), (0xcf991f65fcc25f95b46bb37a02910c0cfa41ff668a8faf856715af1d8b3c76c185be19633db5d76ff5b9486f7140e788ea5acda2badf36bb4fc13b8ffd761c7e907395c7, -545)),
        '2@512': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b650b, -543), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca17, -544)),
        '1e30@512': ((0x1144f69ff9ffc42aaf762d191954bb30ca8cddc54797032fb37137933c3a25536d99825546d1b1eadff537e0853323923533803ad79f6495a97ad01f7856d8ad22154523, -534), (0x4513da7fe7ff10aabdd8b4646552ecc32a3377151e5c0cbecdc4de4cf0e8954db66609551b46c7ab7fd4df8214cc8e48d4ce00eb5e7d9256a5eb407de15b62b48855148d, -536)),
        '0.5@512': ((-0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca17, -544), (-0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b650b, -543)),
    },
    'raw_exp_integral': {
        '1e-10@128': ((0xb396ce15fcd4ecdab8f7de8d2412fe8b2b8c44b46d4e4a79, -187), (0xb396ce15fcd4ecdab8f7de8d2412fe8b2b8c44b46d6c38f5, -187)),
        '0.5@128': ((0x8f4d5282ba5c0dba8d7936d89243f6d2e7b3b80e7c62e3bf, -192), (0x47a6a9415d2e06dd46bc9b6c4921fb6973d9dc074010599, -187)),
        '1@128': ((0x7053174efe3e4e3ec2bbafb96792b22ee696a5e0b3b48bc9, -193), (0x7053174efe3e4e3ec2bbafb96792b22ee696a5e0bb302a8d, -193)),
        '5@128': ((0x12d04d00aecaf669f37e2d945b7b53b27fdffcf86adc0a01, -198), (0x25a09a015d95ecd3e6fc5b28b6f6a764ffbff9f2b49fba7, -195)),
        '20@128': ((0x6c248ae2abd13877483c049e1fad7a71c8780798d5c01, -212), (0x3612457155e89c3ba41e024f0fd6bd38e61aeb720a3a885, -219)),
        '33@128': ((0x4f0e0f95f6cca4fff867d39c8671f77370ba4244784ac7, -235), (0x13c383e57db3293ffe19f4e7219c85587ac8b2012a1e343, -237)),
        '34@128': ((0xe200f8bb947eaba09fe6024c717cca8a7fcf51c9a7625d, -238), (0x1c401f17728fd57413fcc0498e2fb73fca5840fc629dc5b, -239)),
        '40@128': ((0x7a5af36cdb509d42e63fd24273e3944f6ebdcf6f, -222), (0xf7b1f3b23a92990ec9567f96801cd976ba758555, -223)),
        '1e-10@512': ((0x59cb670afe6a766d5c7bef4692097f4594e7cc723706a34aceb2eb9b66548cd4487bbe5cd4c54a36e29f268c12cbd4868c735509b0284fecc7569b4edf8e6a0c0919714f3060481f, -570), (0x2ce5b3857f353b36ae3df7a34904bfa2ca73e6391b8acd43fa0ea3d56f0ef85d586a5a988c64fafe4071a3313467bc097b23c2f591fe29ce3f7d7ba5459e19764d2fd5d11d89860f, -569)),
        '0.5@512': ((0x8f4d5282ba5c0dba8d7936d89243f6d2e7b3b80e7c62e3cb69d74cbc5156df00e9e675bc6de55c1305efd2db17bf14a150c675fe2645b8a352282e7534767f1f03042c276260cdb3, -576), (0x8f4d5282ba5c0dba8d7936d89243f6d2e7b3b80e8020b314c46e509a43afd89b00242acd6f104d7a96f7c87098a7f7bbc5d2ae5b1b46a4913b3f2d601fe8b7435492c0ea0f11cd6f, -576)),
        '1@512': ((0x38298ba77f1f271f615dd7dcb3c95917734b52f059da45efabe225ea53d4e850150d0bc5cd7dd9e73f2aa4dd534a9eaacaf42858a003f94b3e44b92605829be790636f664a620261, -576), (0x7053174efe3e4e3ec2bbafb96792b22ee696a5e0bb302a720cf253908c5bc3d4569581ad9d51969da06534e5a867038a8000c16b2a09ca724eb77021e1e9a817c3e40851ee260443, -577)),
        '5@512': ((0x968268057657b34f9bf16ca2dbda9d93feffe7c356e053c96c2b53f4dccf911adc753dd4bdfe95ccf4f007bbb5ef7f405bf3ca4518d5a0806a0d5e97474b530b6e513566390439b, -581), (0x12d04d00aecaf669f37e2d945b7b53b27fdffcf95a4fdccfd34661fb31d858a8eafbebfae27c2c9de09b6657b0f6b6854e8c9085e355af8a5301668dc5777375d16f5757f3606329, -582)),
        '20@512': ((0xd84915c557a270ee9078093c3f5af4e390f00f338d262882295edf244f4fe02e48664a71d70a7cca85fd4c09b7af924f8107742d5c226b53118715529a566b72069edc97e38db1, -601), (0x3612457155e89c3ba41e024f0fd6bd38e61aeb7190950c0f838434961ef2d29412af0b503e4699fd61f3c48fa87200c25ac253024b941a4a3a1ae166cf5ce53dd80036dba62632b, -603)),
        '33@512': ((0x13c383e57db3293ffe19f4e7219c7ddcdc324955a9c84fba9013e4ef0289ee48e6348b1787bbf38621d2fafd52a19426d7deca3fd33e69ee7eabd8541baaecc0ebc91a4fff46255, -621), (0x4f0e0f95f6cca4fff867d39c86721561eb13fa0ec610d1b20d2045a9b2afc27b240eb49dcb9bd55fa01f94570d6df8a2beea71b74451034bbbd1edc514c1188baa8fa96f21829b, -619)),
        '34@512': ((0x1c401f17728fd57413fcc0498e2f99515003b40be4fe19a761ff62c59408dcfd08cb0d7bcdcf4a16fdeb6098d651ca62087f95076eb3639698b12d2e99e7f1e8f76c192c8883235, -623), (0xe200f8bb947eaba09fe6024c717db9fe527446201f6d63797680a599e48732a4a03caddbd3da8af0b5f847d4c9cb934b3f76edfb3055f942ce9dcd19ffeabb879662022f9d9443, -622)),
        '40@512': ((0x3d2d79b66da84ea1731fe92139f1ca27b75ee7bba7bef35081c0fc30fe3328fb5a5a03eacc5e9c3423f254a07b00afeb7a2bb17b0553edb0ba3f848bbd8f743f91d2183d, -605), (0xf7b1f3b23a92990ec9567f96801cd976ba7585151ff681fdfc89c77c120dee8a7b75a124e62ef3d58b27eccf92f5ba5630d885eca214383c79e38cb23a624a93a8885917, -607)),
    },
    'raw_erfc_enclosure': {
        '0@128': ((0x1, 0), (0x1, 0)),
        '1e-8@128': ((0xffffffcf89570090d5d8ff07b2b0d16c05eaf0b27c6df6d5, -192), (0x7fffffe7c4ab80486aec7f83d95868b602f578593e36fb6b, -191)),
        '0.1@128': ((0xe335a15db04ccc6152ac8b87799303430fe3f6c141536165, -192), (0xe335a15db04ccc6152ac8b87799303430fe3f6c141536169, -192)),
        '1@128': ((0x2844c2c5f7bba9c97f778122796c862cde73c16ba1f70ab7, -192), (0xa1130b17deeea725fdde0489e5b218b379cf05ae87dc2b5, -190)),
        '3@128': ((0x5ca77d940d08a82f09949885342911b2617ded5645fb7d, -198), (0x1729df6503422a0bc26526214d0a446c985f7b55917efbb3, -204)),
        '5.9@128': ((0xa5ccb00d1a1eb29cee00fa29d20871b71d90185fcf8906f, -241), (0x14b99601a343d6539dc01f453a410e36e3f419f6bf5e91dd, -242)),
        '6@128': ((0x18cf81557d20b61a7fff0cc732bf9b2f0671fec61f2e3f45, -244), (0x633e0555f482d869fffc331ccafe6cbc1b776e14d703299, -242)),
        '7@128': ((0xca4c507d2cc0ceda44773ac5ecdc675cb7a67077, -234), (0x65840093831596621cf1b7e57c79e93d7d833e05, -233)),
        '0.5@128': ((0x3d60428f9c48b750bfb072e72ec2b59efbd4909d88d4635d, -191), (0x7ac0851f38916ea17f60e5ce5d856b3df7a9213b11a8c6d, -188)),
        '0@512': ((0x1, 0), (0x1, 0)),
        '1e-8@512': ((0xffffffcf89570090d5d8ff07b2b0d16c05eaf0a13172c0f2c26ef05076cfd4aa8bf926873ec885e4772b3049838c4f8bcae79c2adb4c35f82f4ff27986a07804a1cbf6bc07fe5be1, -576), (0x7fffffe7c4ab80486aec7f83d95868b602f5785098b96079613778283b67ea5545fc93439f6442f23b959824c1c627c5e573ce156da61afc17a7f93cc3503c0250e5fb5e03ff2df1, -575)),
        '0.1@512': ((0xe335a15db04ccc6152ac8b8779930342f34a995fac0495be45cb3f6240ff7f0ecf6ed4b988d621f78fef1ed99e2922dce43b4d4f2c1e443fdf59caecb46309b4caf938c984df0f9d, -576), (0x719ad0aed8266630a95645c3bcc981a179a54cafd6024adf22e59fb1207fbf8767b76a5cc46b10fbc7f78f6ccf14916e721da6a7960f221feface5765a3184da657c9c64c26f87d3, -575)),
        '1@512': ((0x5089858bef775392feef0244f2d90c59bce782d743ee158a548a85f1fa7dcb1581ffab366235d89dafe445ce1508037210cc289afd141eb1b74d8734380d4b320c53a022cf8d2013, -577), (0x5089858bef775392feef0244f2d90c59bce782d743ee158a548a85f1fa7dcb1581ffab366235d89dafe445ce1508037210cc289afd141eb1b74d8734380d4b320c53a022cf8d209, -573)),
        '3@512': ((0x1729df6503422a0bc26526214d0a446c985f7b55917eed25677d154fe830da3a55e304d1a5671ba5790334714197413b336e20536516b3f9e74c849e8a6495aa9451a0eb90d0888d, -588), (0x1729df6503422a0bc26526214d0a446c985f7b55917eed25677d154fe830da3a55e304d1a5671ba5790334714197413b336e20536516b3f9e74c849e8a6495aa9451a0eb90d0a6dd, -588)),
        '5.9@512': ((0xa5ccb00d1a1eb29cee00fa29d20871858664ad08d319f6f1a05d651f67ea85ee64e08f76f7a49a79573e62139a4e14a61168dd75f74cbd01c53cc92a7a61b73ddc770d84d6eb597, -625), (0x14b99601a343d6539dc01f453a410e30b0cc95a11a633ede340baca3ecfd50bdcc9c11eedef4934f2ae7cc427349c294c22d1baebee997a038a799254f4c36e7bbd09bfadd461f33, -626)),
        '6@512': ((0xc67c0aabe905b0d3fff8663995fcd978353ef42c1e4428f60c546c4ec05469a56e087a08857c14e56976463c2bf7bdf46be5ad7a855090052df08f4384e7271a60b861fd9b96611, -627), (0xc67c0aabe905b0d3fff8663995fcd978353ef42c1e4428f60c546c4ec05469a56e087a08857c14e56976463c2bf7bdf46be5ad7a855090052df08f4384e7271a645e42b46ca361b, -627)),
        '7@512': ((0xca4c507d2cc0ceda44773ac5ecdc675cb7a67079fabf93c55a584d684bb206a7e298b9a6e3a60d9d591353ddf6aed127a931cc49c853310d45c9b7ed90d9fae7f86fc6bb, -618), (0x32c20049c18acb310e78dbf2be3cf49ebec19f01e92e1ef719d4601966ce92584d07e9cebe0942eaec4b7881446c40c4445ffd6001956c444df048310b8848e4f8e0b6f3, -616)),
        '0.5@512': ((0x1eb02147ce245ba85fd8397397615acf7dea484ec46a31b0f20b2a1ece499479fe1e82d6af1fd8484dcd8cc86e243eb6044c8ee519cfa1ef149d4ff5c24eba174a4fcb9088d5b53, -570), (0x3d60428f9c48b750bfb072e72ec2b59efbd4909d88d46361e416543d9c9328f3fc3d05ad5e3fb0909b9b1990dc487d6c08991dca339f43de293a9feb849d742e949f972111ab6a79, -575)),
    },
    'atan': {
        '1e-30@128': ((0x289097fdd7853f0c684960de6a5340a3, -225), (0xa2425ff75e14fc31a1258379a94d028f, -227)),
    },
    'raw_atan': {
        '-3@128': ((-0x9fe0bb5bd42affebbe5c42c0ef7cb1a970062c6b, -159), (-0x4ff05dadea157ff5df2e216077be58d4b803163, -154)),
        '1e-30@128': ((0xa2425ff75e14fc31a1258379a94d028cffffffff, -259), (0xa2425ff75e14fc31a1258379a94d028d00000001, -259)),
        '0.2@128': ((0xca220fc7b9305b2ecf053204ebb711c13d58125, -158), (0x328883f1ee4c16cbb3c14c813aedc4704f56049d, -160)),
        '0.25@128': ((0x7d6dd7e4b203758ab6e3cf7afbd10bf2d53fd477, -161), (0xfadbafc96406eb156dc79ef5f7a217e5aa7fa917, -162)),
        '0.9@128': ((0xbb99c540301df2f06d5204b76e1908e9d4161c0b, -160), (0xbb99c540301df2f06d5204b76e1908e9d4161c31, -160)),
        '1@128': ((0x6487ed5110b4611a62633145c06e0e68948126fb, -159), (0x6487ed5110b4611a62633145c06e0e689481271, -155)),
        '7@128': ((0x5b7315eed597f2d6379bb86d7196725c033cb523, -158), (0x2db98af76acbf96b1bcddc36b8cb392e019e5a93, -157)),
        '-1@128': ((-0x6487ed5110b4611a62633145c06e0e689481271, -155), (-0x6487ed5110b4611a62633145c06e0e68948126fb, -159)),
        '-3@512': ((-0x9fe0bb5bd42affebbe5c42c0ef7cb1a970062c660ebb1dfa39b9a50cd7e25f53a74c1a82a964d6ca19bc9198184639ee4bcdff3ab87e8a209da6b244583184925087ac9f, -543), (-0x4ff05dadea157ff5df2e216077be58d4b8031633075d8efd1cdcd2866bf12fa9d3a60d4154b26b650cde48cc0c231cf725e6ff9d5c3f45104ed359222c18c2492843d641, -542)),
        '1e-30@512': ((0x289097fdd7853f0c684960de6a5340a34637cb3347f80280ed78a6a5150927da83a09501cc908d676daf9d1495c2979e01a06d4f130470f02c9573911b90c26d2df29569, -641), (0x14484bfeebc29f863424b06f3529a051a31be599a3fc014076bc53528a8493ed41d04a80e64846b3b6d7ce8a4ae14bcf00d036a789823878164ab9c88dc8613696f94ab5, -640)),
        '0.2@512': ((0xca220fc7b9305b2ecf053204ebb711c2024461272e98073ccc47210c1bd3d2c0e5876bb6258c8f6c0ec71234b685ddd8742e74d4d5b6d2b6fc9dad03493fb5e4eb4a26e9, -546), (0xca220fc7b9305b2ecf053204ebb711c2024461272e98073ccc47210c1bd3d2c0e5876bb6258c8f6c0ec71234b685ddd8742e74d4d5b6d2b6fc9dad03493fb5e4eb4a275f, -546)),
        '0.25@512': ((0xfadbafc96406eb156dc79ef5f7a217e5aa7fa90388b3836b7a3a767c9449a76592b9251668e5765305be8c5ba5831a3e3c2bc227071e4f9a0f41c3ab039983799e8ab6ff, -546), (0x1f5b75f92c80dd62adb8f3debef442fcb54ff5207116706d6f474ecf928934ecb25724a2cd1caeca60b7d18b74b06347c7857844e0e3c9f341e838756073306f33d156f1, -543)),
        '0.9@512': ((0x5dcce2a0180ef97836a9025bb70c847506549a13dc2d9304f1da54bc30a65f9e1c5ad706d9784333c6140b76c13f989af745f71718ade9e0be4b09066f8ae0001dc4ec17, -543), (0xbb99c540301df2f06d5204b76e1908ea0ca93427b85b2609e3b4a978614cbf3c38b5ae0db2f086678c2816ed827f3135ee8bee2e315bd3c17c96120cdf15c0003b89d8a5, -544)),
        '1@512': ((0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b54709179216d4f, -542), (0x1921fb54442d18469898cc51701b839a252049c1114cf98e804177d4c76273644a29410f31c6809bbdf2a33679a748636605614dbe4be286e9fc26adadaa3848bc90b6b7, -541)),
        '7@512': ((0x16dcc57bb565fcb58de6ee1b5c659c9700cf2d492791a865b2354250bc7d88a5cf941c0552170bd2d46f73a22a10a67cec19f373ad9e13c9218cb4211c1d2b914347dd9, -536), (0xb6e62bddab2fe5ac6f3770dae32ce4b806796a493c8d432d91aa1285e3ec452e7ca0e02a90b85e96a37b9d11508533e760cf9b9d6cf09e490c65a108e0e95c8a1a3eec8f, -543)),
        '-1@512': ((-0x1921fb54442d18469898cc51701b839a252049c1114cf98e804177d4c76273644a29410f31c6809bbdf2a33679a748636605614dbe4be286e9fc26adadaa3848bc90b6b7, -541), (-0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b54709179216d4f, -542)),
    },
    'raw_refs': {
        'pi@53': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e447, -526), (0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b547091792f, -524)),
        'ln2@53': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f1f, -527), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253ee5, -528)),
        'pi@64': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e447, -526), (0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b547091792f, -524)),
        'ln2@64': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f1f, -527), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253ee5, -528)),
        'pi@128': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e447, -526), (0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b547091792f, -524)),
        'ln2@128': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f1f, -527), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253ee5, -528)),
        'pi@200': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e447, -526), (0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b547091792f, -524)),
        'ln2@200': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f1f, -527), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253ee5, -528)),
        'pi@384': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e447, -526), (0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b547091792f, -524)),
        'ln2@384': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f1f, -527), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253ee5, -528)),
        'pi@512': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7edee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf0598da48361c55d39a68a7, -1038), (0x6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e122f242dabb312f3f637a262174d31bf6b585ffae5b7a035bf6f71c35fdad44cfd2d74f9208be258ff324943328f6722d9ee1003e5c50b1df82cc6d241b0e2ae9cd34c5, -1037)),
        'ln2@512': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b650b112574628d65ed0898be1c3f5cf54de1d89b301d92b7d0763b2bfba5b96743d8ceb2a4657aefd35e9c18192432afd0c3979071d16d16cbe2879feae303a9, -1039), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b72ce87b19d6548caf5dfa6bd38303248655fa1872f20e3a2da2d97c50f3fd5c6089b, -1040)),
        'pi@700': ((0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7edee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf0598da48361c55d39a68a7, -1038), (0x6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e122f242dabb312f3f637a262174d31bf6b585ffae5b7a035bf6f71c35fdad44cfd2d74f9208be258ff324943328f6722d9ee1003e5c50b1df82cc6d241b0e2ae9cd34c5, -1037)),
        'ln2@700': ((0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b650b112574628d65ed0898be1c3f5cf54de1d89b301d92b7d0763b2bfba5b96743d8ceb2a4657aefd35e9c18192432afd0c3979071d16d16cbe2879feae303a9, -1039), (0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b72ce87b19d6548caf5dfa6bd38303248655fa1872f20e3a2da2d97c50f3fd5c6089b, -1040)),
        'pi@1024': ((0x6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e122f242dabb312f3f637a262174d31bf6b585ffae5b7a035bf6f71c35fdad44cfd2d74f9208be258ff324943328f6722d9ee1003e5c50b1df82cc6d241b0e2ae9cd348b1fd47e9267afc1b2ae91ee51d6cb0e3179ab1042a95dcf6a9483b84b4b36b3861aa7255e4c0278ba3604650c10be19482f23171b671df1cf3b960c074301cd41, -1549), (0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b54709179216d5d98979fb1bd1310ba698dfb5ac2ffd72dbd01adfb7b8e1afed6a267e96ba7c9045f12c7f9924a19947b3916cf70801f2e2858efc16636920d871574e69a458fea3f4933d7e0d95748f728eb658718bcd5882154aee7b54a41dc25a59b59c30d5392af26013c5d1b023286085f0ca417918b8db38ef8e79dcb0603a180e6f5, -1548)),
        'ln2@1024': ((0x162e42fefa39ef35793c7673007e5ed5e81e6864ce5316c5b141a2eb71755f457cf70ec40dbd75930ab2aa5f695f43621da5d5c6b827042884eae765222d3704a7d2d942c4495d18a3597b42262f870fd73d53787626cc0764adf41d8ecafee96e59d0f633aca9195ebbf4d7a70606490cabf430e5e41c745b45b2f8a1e7fab8c0fe99423f6b7f720c21a61f11fcaa345dcad3adbf83df42afa5c47bc2801672c2e8c0eebb71321cb9287ce6568f39a6799989ccb2726a29898343c17a3ac12ba48f, -1549), (0x58b90bfbe8e7bcd5e4f1d9cc01f97b57a079a193394c5b16c5068badc5d57d15f3dc3b1036f5d64c2acaa97da57d0d887697571ae09c10a213ab9d9488b4dc129f4b650b112574628d65ed0898be1c3f5cf54de1d89b301d92b7d0763b2bfba5b96743d8ceb2a4657aefd35e9c18192432afd0c3979071d16d16cbe2879feae303fa6508fdadfdc83086987c47f2a8d1772b4eb6fe0f7d0abe9711ef0a0059cb0ba303baedc4c872e4a1f3995a3ce699e6662732c9c9a8a6260d0f05e8eb04ae9331, -1551)),
        'atan(1/2)': ((0xed63382b0dda7b456fe445ecbc3a8d036e141587261cdf00e2cf16e6e9624709fa9c5917843, -301), (0x76b19c1586ed3da2b7f222f65e1d4681b70a0ac3930e6f8071678b7374b12384fd4e2c8bc6d, -300)),
        'atan(1/3)': ((0xa4bc7d1934f7092419a87f2a457dac9ee3f08689eeb2b9e7214866658cc4ef3aa7f7b7db907, -301), (0x14978fa3269ee12483350fe548afb593dc7e10d13dd6573ce4290cccb1989de754fef6fb72d, -298)),
        'atan(1/5)': ((0x194441f8f7260b65d9e0a6409d76e23840488c24e5d300e79988e421837a7a581cb0ed76c47, -299), (0x328883f1ee4c16cbb3c14c813aedc47080911849cba601cf3311c84306f4f4b03961daed89f, -300)),
        'atan(1/239)': ((0x891a92cbe3cc7d051f67bcb56d7a786ca1098f52181d64651db132f0601bcf4a1eb19e4babb, -307), (0x891a92cbe3cc7d051f67bcb56d7a786ca1098f52181d64651db132f0601bcf4a1eb19e4bad, -303)),
    },
}
# fmt: on


# fmt: off
EM_LOOP_PINS: dict = {
    'zeta_em': (((0x95084f83bcd7e9335b9bb14f740a68b3, -128), (0x95084f83bcd7e9335cd7d5d6539fd705, -128)), ((-0xed45f2902536df0b039b18393891a0d9, -128), (-0x3b517ca4094db7c2c097bcec963f0c9f, -126))),
}
# fmt: on


# fmt: off
# the l_truncated pin from when its tail bounded every |chi(n)| by 1, before
# partial summation
TRIVIAL_TAIL_PINS: dict = {
    'l_truncated': {
        'value': (((0x1dbd31aaa21243fffb1b2d47194f8f6f, -125), (0xee0872301091141ea7c1c6a4f14e48bf, -128)), ((0xacf30b8de72d1ea09af737ac2a28cc7, -126), (0xad6e9ef9e728ef1bd698a95cc56fff4d, -130))),
        'radius': (0xf726d7fff7a0f67742e361368e64afa7, -140),
    },
}
# fmt: on
