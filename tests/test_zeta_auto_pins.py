"""Bit-exact outputs of the adaptive zeta evaluator.

``zeta_auto`` grows (N, k, precision) round by round and returns the first
enclosure that meets the target.  Which round answers, and every bit of what
it returns, is pinned here: the exact ``(man, exp)`` endpoints of ``value``,
``raw_value`` and ``remainder_radius``, plus ``params`` and ``meets_target``.
The cases are answered in rounds 1, 2 and 3, include a box of nonzero radius
and a capped call that misses its target, at 128 and 256 bits.  Regenerate the
table with ``python tests/test_zeta_auto_pins.py`` only for a change that is
meant to move outputs.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest

from zetaval.interval import ComplexBox, PrecisionContext
from zetaval.zeta import EMParams, zeta_auto

PRECS = (128, 256)

# label -> (re, im, half-width of the input box or None, target, max_rounds)
CASES = {
    "round1_s2": ("2", "0", None, "1e-12", 40),
    "round2_s2.5+25i": ("2.5", "25", None, "1e-17", 40),
    "round3_s1.5+18i": ("1.5", "18", None, "1e-27", 40),
    "box_s3+10i": ("3", "10", "1e-30", "1e-20", 40),
    "capped_s2": ("2", "0", None, "1e-40", 2),
}


def _exact(text: str) -> Fraction:
    return Fraction(Decimal(text))


def _box(ctx: PrecisionContext, re: str, im: str, rad: str | None) -> ComplexBox:
    r, i = _exact(re), _exact(im)
    if rad is None:
        return ComplexBox(ctx.interval(r), ctx.interval(i))
    d = _exact(rad)
    return ComplexBox(ctx.interval(r - d, r + d), ctx.interval(i - d, i + d))


def _box_ends(box: ComplexBox):
    return ((box.re.lo, box.re.hi), (box.im.lo, box.im.hi))


def compute(label: str, prec: int) -> dict:
    re, im, rad, target, max_rounds = CASES[label]
    ctx = PrecisionContext(prec)
    enc = zeta_auto(_box(ctx, re, im, rad), _exact(target), ctx, max_rounds=max_rounds)
    return {
        "value": _box_ends(enc.value),
        "raw_value": _box_ends(enc.raw_value),
        "radius": enc.remainder_radius,
        "params": enc.params,
        "meets_target": enc.meets_target,
    }


KEYS = [f"{label}@{prec}" for prec in PRECS for label in CASES]


@pytest.mark.parametrize("key", KEYS)
def test_zeta_auto_outputs_pinned(key):
    label, prec = key.rsplit("@", 1)
    got = compute(label, int(prec))
    want = PINS[key]
    moved = [k for k in want if got[k] != want[k]]
    assert got.keys() == want.keys()
    assert not moved, f"{key}: moved {moved}"


def _render(v) -> str:
    if isinstance(v, (bool, EMParams)):
        return repr(v)
    if isinstance(v, tuple) and len(v) == 2 and all(isinstance(x, int) for x in v):
        return f"({v[0]:#x}, {v[1]})"
    if isinstance(v, tuple):
        return "(" + ", ".join(_render(x) for x in v) + ")"
    raise TypeError(v)


def _table() -> str:
    lines = ["PINS = {"]
    for key in KEYS:
        label, prec = key.rsplit("@", 1)
        lines.append(f"    {key!r}: {{")
        for name, v in compute(label, int(prec)).items():
            lines.append(f"        {name!r}: {_render(v)},")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(_table())


# fmt: off
PINS: dict = {
    'round1_s2@128': {
        'value': (((0x694699894c1f4c8c39d9abfa49f76f25, -126), (0xd28d3312983e991873d8ad49e94433bb, -127)), ((-0x4aaaaaaaaaaaaaaaaaaaaaaaaaaaaab3, -201), (0x4aaaaaaaaaaaaaaaaaaaaaaaaaaaaab3, -201))),
        'raw_value': (((0xd28d3312983e991873c6029f3e9988f5, -127), (0xd28d3312983e991873c6029f3e99891, -123)), ((0x0, 0), (0x0, 0))),
        'radius': (0x4aaaaaaaaaaaaaaaaaaaaaaaaaaaaab3, -201),
        'params': EMParams(N=32, k=6),
        'meets_target': True,
    },
    'round2_s2.5+25i@128': {
        'value': (((0xecf686dfaec1bbd2fdc7a8d4c8f5c604fb9cb101, -160), (0x767b436fd760dde97f18060e3ff883d87a438ca5, -159)), ((0xf497c1f962411aecd9fa60a9459dfeb351b5d1d3, -163), (0xf497c1f962411aecdd3d7ae6fd780c1319091229, -163))),
        'raw_value': (((0x767b436fd760dde97efded3c5239b36d7c08f27d, -159), (0xecf686dfaec1bbd2fdfbda78a47366daf811e551, -160)), ((0x3d25f07e589046bb36e6fb720862c158cd57dc65, -161), (0x1e92f83f2c48235d9b737db9043160ac66abee4d, -160))),
        'radius': (0xd0c68f6df68357f1d4cfe001e01b65eeab130d57, -234),
        'params': EMParams(N=64, k=7),
        'meets_target': True,
    },
    'round3_s1.5+18i@128': {
        'value': (((0xc5ce52d286728233f9a178c453d0030ba06e7c90e1b534a1, -191), (0xc5ce52d286728233f9a178c459bd34d64282ae4917165875, -191)), ((-0x128ca40d82e14490400c5bf4cabffe47e20803d73a9910df, -192), (-0x128ca40d82e14490400c5bf4bee59ab29ddfa066cfd6ca19, -192))),
        'raw_value': (((0xc5ce52d286728233f9a178c456c69bf0f178956cfc65c63, -187), (0x62e7296943394119fcd0bc622b634df878bc4ab67e32e373, -190)), ((-0x9465206c170a24820062dfa6269663e9ff9e90f829bf6e0f, -195), (-0x9465206c170a24820062dfa6269663e9ff9e90f829bf69b1, -195))),
        'radius': (0x17b4c72a8850c6e0d5848c7475366b67b80f4eb94ae76733, -290),
        'params': EMParams(N=128, k=8),
        'meets_target': True,
    },
    'box_s3+10i@128': {
        'value': (((0x465f41483c7d12c8cf9dd75d69dd5c6121b69011, -158), (0x8cbe829078fa25919f3baeccfefc0bb768e7edd5, -159)), ((-0x64c24623bc6febb89f8c6d92f76fb7fdbad3bf3f, -163), (-0xc9848c4778dfd7713f18d8e086b4c41101dd59fd, -164))),
        'raw_value': (((0x465f41483c7d12c8cf9dd761f34259b8ea7f33ad, -158), (0x8cbe829078fa25919f3baec3ec321107d756a69d, -159)), ((-0xc9848c4778dfd7713f18da0395a01a09437e9795, -164), (-0x64c24623bc6febb89f8c6d016ffa0d019a032073, -163))),
        'radius': (0x912c9faaf9191473743914557c890e51dd1eb9a9, -251),
        'params': EMParams(N=64, k=7),
        'meets_target': True,
    },
    'capped_s2@128': {
        'value': (((0x694699894c1f4c8c39ec48910059f9b5071f058f, -158), (0x1a51a6625307d3230e7b122443a24a390d938d37, -156)), ((-0xe2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f3af, -259), (0xe2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f3af, -259))),
        'raw_value': (((0x694699894c1f4c8c39ec48910771914c9eb69d27, -158), (0x1a51a6625307d3230e7b122441dc645327ada751, -156)), ((0x0, 0), (0x0, 0))),
        'radius': (0xe2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f3af, -259),
        'params': EMParams(N=64, k=7),
        'meets_target': False,
    },
    'round1_s2@256': {
        'value': (((0xd28d3312983e991873b357f493eede546a89219358b623ec6a2176460211d6fb, -255), (0x34a34cc4a60fa6461cf62b527a510cea6ff79dba2b82de506fddb2e6d5d9cb1b, -253)), ((-0x955555555555555555555555555555555555555555555555555555555555558d, -330), (0x955555555555555555555555555555555555555555555555555555555555558d, -330))),
        'raw_value': (((0x694699894c1f4c8c39e3014f9f4cc47f8a99e61f01b0674b8a661078565e40d3, -254), (0xd28d3312983e991873c6029f3e9988ff1533cc3e0360ce9714cc20f0acbc81c1, -255)), ((0x0, 0), (0x0, 0))),
        'radius': (0x955555555555555555555555555555555555555555555555555555555555558d, -330),
        'params': EMParams(N=32, k=6),
        'meets_target': True,
    },
    'round2_s2.5+25i@256': {
        'value': (((0xecf686dfaec1bbd2fdc7a8d4c8f5c604fb9cb12acfadc57f9756d627d0085a45cf9bff93, -288), (0xecf686dfaec1bbd2fe300c1c7ff107b0f487191ad09dd3328eac5fae21dc371663c7cca7, -288)), ((0x7a4be0fcb1208d766cfd3054a2ceff59a8dae91fc568d258fa877314f3cb5688cb007c1, -286), (0x1e92f83f2c48235d9ba7af5cdfaf018263212237f24a424935f7664b8ec6b272c6ebebdb, -288))),
        'raw_value': (((0xecf686dfaec1bbd2fdfbda78a47366daf811e522d025cc5913019aeaf8f248ae19b1e5f5, -288), (0xecf686dfaec1bbd2fdfbda78a47366daf811e522d025cc5913019aeaf8f248ae19b1e645, -288)), ((0x7a4be0fcb1208d766dcdf6e410c582b19aafb8ffc748edbee932862197731029f3581595, -290), (0x7a4be0fcb1208d766dcdf6e410c582b19aafb8ffc748edbee932862197731029f35815e7, -290))),
        'radius': (0x686347b6fb41abf8ea67f000f00db2f755898651d3dcd0942bccc27081f4b11949ccf4bb, -361),
        'params': EMParams(N=64, k=7),
        'meets_target': True,
    },
    'round3_s1.5+18i@256': {
        'value': (((0xc5ce52d286728233f9a178c453d0030ba06e7c90e1b534ff13840e217fad906b00d07cd14d27d7a1, -319), (0xc5ce52d286728233f9a178c459bd34d64282ae491716581c30d1a8fb6db16419538a569a3ed85d25, -319)), ((-0x9465206c170a24820062dfa655fff23f10401eb9d4c884afb4ba9e991f5286fdf4da74701e76c54b, -323), (-0x9465206c170a24820062dfa5f72cd594eefd03367eb652dddfe0f0fa3f154c18c93cd7e1036e745f, -323))),
        'raw_value': (((0x62e7296943394119fcd0bc622b634df878bc4ab67e32e346d1156dc73b57bd211516b4dae3000d03, -318), (0x317394b4a19ca08cfe685e3115b1a6fc3c5e255b3f1971a3688ab6e39dabde908a8b5a6d718006b, -313)), ((-0x9465206c170a24820062dfa6269663e9ff9e90f829bf6bc6ca4dc7c9af33e98b5f0ba62890f29eff, -323), (-0x9465206c170a24820062dfa6269663e9ff9e90f829bf6bc6ca4dc7c9af33e98b5f0ba62890f29aab, -323))),
        'radius': (0x5ed31caa21431b83561231d1d4d9ad9ee03d3ae52b9d9c8f1b084c96d1a7e4316c413414e0390aa9, -420),
        'params': EMParams(N=128, k=8),
        'meets_target': True,
    },
    'box_s3+10i@256': {
        'value': (((0x465f41483c7d12c8cf9dd75d69dd5c61350b2743922c69477ea0358c4ae3ee4da1da2e73, -286), (0x465f41483c7d12c8cf9dd7667f7e05dba11f5fba076eefb52ad6036660354bfbbf35144b, -286)), ((-0xc9848c4778dfd7713f18db25eedf6ff6a07fa7c38c87c688495188cc85a823e67c5c3f39, -292), (-0x32612311de37f5dc4fc6363821ad310575c14c2eedca49adc9c747925e8aa9ceb6adf043, -290))),
        'raw_value': (((0x465f41483c7d12c8cf9dd761f34259b8fdd3cadf33f50bf362e8a7ff03c94079c31f45ad, -286), (0x465f41483c7d12c8cf9dd761f6190883d856bc1e65a64d09468d90f3a74ff9cf9deffd11, -286)), ((-0xc9848c4778dfd7713f18da0395a01a046e56c0db1a5f1b8f3734ec1e4c5398de2b1670d1, -292), (-0x32612311de37f5dc4fc63680b7fd0682024b85e90a54746c0e4e6ebdecdfcc90caff63dd, -290))),
        'radius': (0x244b27eabe46451cdd0e45155f22439395c72a91610a28b9ccf4aee2158a0be6b6f65d09, -377),
        'params': EMParams(N=64, k=7),
        'meets_target': True,
    },
    'capped_s2@256': {
        'value': (((0x694699894c1f4c8c39ec48910059f9b5071f059d680c0b30e54111d3ecea28a21577b13d, -286), (0x34a34cc4a60fa6461cf62448874494721b271a664b9d9d300a3820818e0cabe8a2537045, -285)), ((-0x38bcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcd5, -385), (0x38bcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcd5, -385))),
        'raw_value': (((0x694699894c1f4c8c39ec48910771914c9eb69d34ffa3a2c87cd8a96b8481c039ad0f48d5, -286), (0x34a34cc4a60fa6461cf6244883b8c8a64f5b4e9a7fd1d1643e6c54b5c240e01cd687a479, -285)), ((0x0, 0), (0x0, 0))),
        'radius': (0x38bcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcd5, -385),
        'params': EMParams(N=64, k=7),
        'meets_target': False,
    },
}
