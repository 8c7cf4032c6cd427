"""Bit-exact outputs of the adaptive zeta evaluator.

``zeta_auto`` chooses (N, k, precision) from the target and makes one
``zeta_em`` call.  Every bit of what it returns is pinned here: the exact
``(man, exp)`` endpoints of ``value`` and ``remainder_radius``, plus
``params`` and ``meets_target``, at 128 and 256 bits.  The five cases
include a box of nonzero radius.  Their labels name the round of the earlier
doubling schedule that answered them; ``OLD_PINS`` keeps the value box that
schedule returned, and each new box must meet its target, contain mpmath's
value and intersect its old box.  ``EM_LOOP_PINS`` keeps the value box of
each case from before the remainder bound went to 64 bits and the Bernoulli
correction to Horner's rule; each new box must meet it and be no wider than it
by more than 2**-56 relative.  Regenerate ``PINS`` with
``python tests/test_zeta_auto_pins.py`` only for a change that is meant to move
outputs.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from zetaval.interval import ComplexBox, PrecisionContext, RealInterval
from zetaval.zeta import EMParams, zeta_auto

PRECS = (128, 256)

# label -> (re, im, half-width of the input box or None, target)
CASES = {
    "round1_s2": ("2", "0", None, "1e-12"),
    "round2_s2.5+25i": ("2.5", "25", None, "1e-17"),
    "round3_s1.5+18i": ("1.5", "18", None, "1e-27"),
    "box_s3+10i": ("3", "10", "1e-30", "1e-20"),
    "capped_s2": ("2", "0", None, "1e-40"),
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


def _run(label: str, prec: int):
    re, im, rad, target = CASES[label]
    ctx = PrecisionContext(prec)
    return zeta_auto(_box(ctx, re, im, rad), _exact(target), ctx)


def compute(label: str, prec: int) -> dict:
    enc = _run(label, prec)
    return {
        "value": _box_ends(enc.value),
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


def _fraction(x: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


@pytest.mark.parametrize("key", KEYS)
def test_zeta_auto_meets_target_contains_mpmath_and_meets_old_box(key):
    label, prec = key.rsplit("@", 1)
    re, im, _rad, target = CASES[label]
    value = _run(label, int(prec)).value
    assert max(value.re.width_fraction(), value.im.width_fraction()) <= _exact(target)
    with mpmath.workprec(2 * int(prec) + 32):
        z = mpmath.zeta(mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im)))
    assert value.contains_complex(_fraction(z.real), _fraction(z.imag))
    (re_lo, re_hi), (im_lo, im_hi) = OLD_PINS[key]
    assert value.intersects(ComplexBox(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi)))


@pytest.mark.parametrize("key", KEYS)
def test_zeta_auto_meets_the_loop_box_and_is_no_wider(key):
    label, prec = key.rsplit("@", 1)
    value = _run(label, int(prec)).value
    for c, (lo, hi) in zip((value.re, value.im), EM_LOOP_PINS[key]):
        old = RealInterval(lo, hi)
        assert c.intersects(old)
        assert c.width_fraction() <= old.width_fraction() * (1 + Fraction(1, 2**56))


def _render(v) -> str:
    if isinstance(v, (bool, EMParams)):
        return repr(v)
    if isinstance(v, tuple) and len(v) == 2 and all(isinstance(x, int) for x in v):
        return f"({v[0]:#x}, {v[1]})"
    if isinstance(v, tuple):
        return "(" + ", ".join(_render(x) for x in v) + ")"
    raise TypeError(v)


def _table() -> str:
    lines = ["PINS: dict = {"]
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
# value boxes of the doubling schedule that answered before parameters were
# chosen up front; each new box must meet its old one
OLD_PINS: dict = {
    'round1_s2@128': (((0x694699894c1f4c8c39d9abfa49f76f25, -126), (0xd28d3312983e991873d8ad49e94433bb, -127)), ((-0x4aaaaaaaaaaaaaaaaaaaaaaaaaaaaab3, -201), (0x4aaaaaaaaaaaaaaaaaaaaaaaaaaaaab3, -201))),
    'round2_s2.5+25i@128': (((0xecf686dfaec1bbd2fdc7a8d4c8f5c604fb9cb101, -160), (0x767b436fd760dde97f18060e3ff883d87a438ca5, -159)), ((0xf497c1f962411aecd9fa60a9459dfeb351b5d1d3, -163), (0xf497c1f962411aecdd3d7ae6fd780c1319091229, -163))),
    'round3_s1.5+18i@128': (((0xc5ce52d286728233f9a178c453d0030ba06e7c90e1b534a1, -191), (0xc5ce52d286728233f9a178c459bd34d64282ae4917165875, -191)), ((-0x128ca40d82e14490400c5bf4cabffe47e20803d73a9910df, -192), (-0x128ca40d82e14490400c5bf4bee59ab29ddfa066cfd6ca19, -192))),
    'box_s3+10i@128': (((0x465f41483c7d12c8cf9dd75d69dd5c6121b69011, -158), (0x8cbe829078fa25919f3baeccfefc0bb768e7edd5, -159)), ((-0x64c24623bc6febb89f8c6d92f76fb7fdbad3bf3f, -163), (-0xc9848c4778dfd7713f18d8e086b4c41101dd59fd, -164))),
    'capped_s2@128': (((0x694699894c1f4c8c39ec48910059f9b5071f058f, -158), (0x1a51a6625307d3230e7b122443a24a390d938d37, -156)), ((-0xe2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f3af, -259), (0xe2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f3af, -259))),
    'round1_s2@256': (((0xd28d3312983e991873b357f493eede546a89219358b623ec6a2176460211d6fb, -255), (0x34a34cc4a60fa6461cf62b527a510cea6ff79dba2b82de506fddb2e6d5d9cb1b, -253)), ((-0x955555555555555555555555555555555555555555555555555555555555558d, -330), (0x955555555555555555555555555555555555555555555555555555555555558d, -330))),
    'round2_s2.5+25i@256': (((0xecf686dfaec1bbd2fdc7a8d4c8f5c604fb9cb12acfadc57f9756d627d0085a45cf9bff93, -288), (0xecf686dfaec1bbd2fe300c1c7ff107b0f487191ad09dd3328eac5fae21dc371663c7cca7, -288)), ((0x7a4be0fcb1208d766cfd3054a2ceff59a8dae91fc568d258fa877314f3cb5688cb007c1, -286), (0x1e92f83f2c48235d9ba7af5cdfaf018263212237f24a424935f7664b8ec6b272c6ebebdb, -288))),
    'round3_s1.5+18i@256': (((0xc5ce52d286728233f9a178c453d0030ba06e7c90e1b534ff13840e217fad906b00d07cd14d27d7a1, -319), (0xc5ce52d286728233f9a178c459bd34d64282ae491716581c30d1a8fb6db16419538a569a3ed85d25, -319)), ((-0x9465206c170a24820062dfa655fff23f10401eb9d4c884afb4ba9e991f5286fdf4da74701e76c54b, -323), (-0x9465206c170a24820062dfa5f72cd594eefd03367eb652dddfe0f0fa3f154c18c93cd7e1036e745f, -323))),
    'box_s3+10i@256': (((0x465f41483c7d12c8cf9dd75d69dd5c61350b2743922c69477ea0358c4ae3ee4da1da2e73, -286), (0x465f41483c7d12c8cf9dd7667f7e05dba11f5fba076eefb52ad6036660354bfbbf35144b, -286)), ((-0xc9848c4778dfd7713f18db25eedf6ff6a07fa7c38c87c688495188cc85a823e67c5c3f39, -292), (-0x32612311de37f5dc4fc6363821ad310575c14c2eedca49adc9c747925e8aa9ceb6adf043, -290))),
    'capped_s2@256': (((0x694699894c1f4c8c39ec48910059f9b5071f059d680c0b30e54111d3ecea28a21577b13d, -286), (0x34a34cc4a60fa6461cf62448874494721b271a664b9d9d300a3820818e0cabe8a2537045, -285)), ((-0x38bcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcd5, -385), (0x38bcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcbcd5, -385))),
}

# value boxes of the Euler-Maclaurin loop that summed the Bernoulli terms one
# by one and bounded the remainder at the working precision; each new box must
# meet its old one and be no wider than it by more than 2**-56 relative
EM_LOOP_PINS: dict = {
    'round1_s2@128': (((0xd28d3312983e98ddb591f37f04a2827f, -127), (0x694699894c1f4c9205ba3b620b4c1fd, -122)), ((-0x8cabc5068a23eb7a3502e9157e3f8c75, -185), (0x8cabc5068a23eb7a3502e9157e3f8c75, -185))),
    'round2_s2.5+25i@128': (((0xecf686dfaec1bbd2fb7c476f6725f3f9, -128), (0x767b436fd760dde97f3ee1b8a1bf2ea7, -127)), ((0x7a4be0fcb1208d76662a4da9c972b88d, -130), (0x7a4be0fcb1208d7672303db13ad45d8f, -130))),
    'round3_s1.5+18i@128': (((0xc5ce52d286728233f9a178c458848d01, -127), (0xc5ce52d286728233f9a178c458851487, -127)), ((-0x9465206c170a24820062dfa6132c8fb7, -131), (-0x4a3290360b85124100316fd309920be3, -130))),
    'box_s3+10i@128': (((0x232fa0a41e3e896467ceebac2781126b, -125), (0x465f41483c7d12c8cf9dd766b5c01955, -126)), ((-0xc9848c4778dfd7713f18dc536fd9f1fb, -132), (-0xc9848c4778dfd7713f18d8b9c04eb05f, -132))),
    'capped_s2@128': (((0x694699894c1f4c8c39ec4891005d672f5ae446d5401, -170), (0x694699894c1f4c8c39ec4891005d672f5ae446d5413, -170)), ((-0x11c5f3734571fc28a0412f5fc24dac123b483820f5b, -341), (0x11c5f3734571fc28a0412f5fc24dac123b483820f5b, -341))),
    'round1_s2@256': (((0x694699894c1f4c6edac8f9bf82514140c347da10114a70b06679aebc31bde9ff, -254), (0xd28d3312983e99240b7476c416983f9c08043edf425b088aab7249fe379436eb, -255)), ((-0x4655e2834511f5bd1a81748abf1fc62729de7eec85d41862e7855e3358e2e3ef, -312), (0x4655e2834511f5bd1a81748abf1fc62729de7eec85d41862e7855e3358e2e3ef, -312))),
    'round2_s2.5+25i@256': (((0x3b3da1b7ebb06ef4bedf11dbd9c97d0353a2c09ac4f67de01c2bede353f4eb95, -254), (0xecf686dfaec1bbd2fe7dc371437e5d39d3ba0088789d803583f24275ffc53c53, -256)), ((0x3d25f07e589046bb331526d4e4b95c5a064738d3cd5691ed4ad3371f76af79b5, -257), (0xf497c1f962411aece4607b6275a8bacc4294d43a5b768d5dc56133c35a4a561f, -259))),
    'round3_s1.5+18i@256': (((0xc5ce52d286728233f9a178c458848d14412941e5f13afc272c267a665cae279, -251), (0xc5ce52d286728233f9a178c45885146b7222c23484a3ba2b11bc16335db3162d, -255)), ((-0x128ca40d82e14490400c5bf4c26591d3e42aa7d7b407b0abff2608b401e6e231, -256), (-0x4a3290360b85124100316fd309920c9608de9cea34d8d290cfeb4467ff741437, -258))),
    'box_s3+10i@256': (((0x8cbe829078fa25919f3baeb09e0449b2cbe8bb9da437aaaa510c87c666a4fa81, -255), (0x8cbe829078fa25919f3baecd6b8032a1db04ed1b7f9f77114917aab56d2a2ffd, -255)), ((-0xc9848c4778dfd7713f18dc536fd9f1c3983f715dc7832ecf1a183ee24e97f, -248), (-0xc9848c4778dfd7713f18d8b9c04eb08fca26d2ea0756e036ad5c58c4816c8891, -260))),
    'capped_s2@256': (((0xd28d3312983e991873d8912200bace5eb5c88daa81149c27beb240ffada78e4f, -255), (0xd28d3312983e991873d8912200bace5eb5c88daa811d7f217854f9fdc1f7aef7, -255)), ((-0x8e2f9b9a2b8fe14502097afe126d6091da41c1078f60ccb31c15e6d7c87ab699, -428), (0x8e2f9b9a2b8fe14502097afe126d6091da41c1078f60ccb31c15e6d7c87ab699, -428))),
}

PINS: dict = {
    'round1_s2@128': {
        'value': (((0xd28d3312983e98ddb591f37f04a281cd, -127), (0x694699894c1f4c9205ba3b620b4c2029, -126)), ((-0x8cabc5068a23eb7d, -121), (0x8cabc5068a23eb7d, -121))),
        'radius': (0x8cabc5068a23eb7d, -121),
        'params': EMParams(N=7, k=14),
        'meets_target': True,
    },
    'round2_s2.5+25i@128': {
        'value': (((0xecf686dfaec1bbd2fb7c476f6725f3f9, -128), (0x767b436fd760dde97f3ee1b8a1bf2ea7, -127)), ((0xf497c1f962411aeccc549b5392e5711b, -131), (0x7a4be0fcb1208d7672303db13ad45d8f, -130))),
        'radius': (0x3017c01dc58692c9, -133),
        'params': EMParams(N=15, k=20),
        'meets_target': True,
    },
    'round3_s1.5+18i@128': {
        'value': (((0xc5ce52d286728233f9a178c458848d01, -127), (0xc5ce52d286728233f9a178c458851487, -127)), ((-0x4a3290360b85124100316fd3099647db, -130), (-0x9465206c170a24820062dfa6132417c7, -131))),
        'radius': (0x875730f9804e936d, -176),
        'params': EMParams(N=18, k=31),
        'meets_target': True,
    },
    'box_s3+10i@128': {
        'value': (((0x465f41483c7d12c8cf9dd7584f0224d9, -126), (0x232fa0a41e3e896467ceebb35ae00ca9, -125)), ((-0xc9848c4778dfd7713f18dc536fd9f139, -132), (-0xc9848c4778dfd7713f18d8b9c04eb121, -132))),
        'radius': (0x3990222b56fb1c41, -153),
        'params': EMParams(N=13, k=23),
        'meets_target': True,
    },
    'capped_s2@128': {
        'value': (((0x694699894c1f4c8c39ec4891005d672f5ae446d5401, -170), (0x694699894c1f4c8c39ec4891005d672f5ae446d5413, -170)), ((-0x11c5f3734571fc29, -233), (0x11c5f3734571fc29, -233))),
        'radius': (0x11c5f3734571fc29, -233),
        'params': EMParams(N=20, k=45),
        'meets_target': True,
    },
    'round1_s2@256': {
        'value': (((0x694699894c1f4c6edac8f9bf825140e763a4fcbfd93bfa7ade1969dda6c402b9, -254), (0xd28d3312983e99240b7476c41698404ec749f97fb277f4f5bc32d3bb4d880577, -255)), ((-0x8cabc5068a23eb7d, -121), (0x8cabc5068a23eb7d, -121))),
        'radius': (0x8cabc5068a23eb7d, -121),
        'params': EMParams(N=7, k=14),
        'meets_target': True,
    },
    'round2_s2.5+25i@256': {
        'value': (((0x3b3da1b7ebb06ef4bedf11dbd9c97d035248a05e718eeef6be943f4069f31d5, -250), (0xecf686dfaec1bbd2fe7dc371437e5d39d9228179c63bbbdafa50fd01a7cc7567, -256)), ((0x7a4be0fcb1208d76662a4da9c972b8b3f6ec6de264343544bc2b84104d420f19, -258), (0xf497c1f962411aece4607b6275a8bacc6dd8dbc4c8686a89785708209a841ec1, -259))),
        'radius': (0x3017c01dc58692c9, -133),
        'params': EMParams(N=15, k=20),
        'meets_target': True,
    },
    'round3_s1.5+18i@256': {
        'value': (((0xc5ce52d286728233f9a178c458848d14412941e5f138db291ef1484cdd309ec7, -255), (0x62e7296943394119fcd0bc622c428a35b911611a4252ed948f78a4266e984f7b, -254)), ((-0x9465206c170a24820062dfa6132c8e9f21553ebda05f9540cc836738070f9e25, -259), (-0x9465206c170a24820062dfa61324192c11bd39d4698f9540cc836738070f9bd1, -259))),
        'radius': (0x875730f9804e936d, -176),
        'params': EMParams(N=18, k=31),
        'meets_target': True,
    },
    'box_s3+10i@256': {
        'value': (((0x8cbe829078fa25919f3baeb09e0449b8d99cf04b073e6643fa9baee031bb8a0d, -255), (0x8cbe829078fa25919f3baecd6b80329bcd50b86e1c98bb779f88839ce051a5b9, -255)), ((-0x64c24623bc6febb89f8c6e29b7ecf880f0dc6dd8b355ddccf419add4bfe2e35b, -259), (-0x19309188ef1bfaee27e31b173809d62a3015ad12cd05ca6d7be8277ad60fb325, -257))),
        'radius': (0x3990222b56fb1c41, -153),
        'params': EMParams(N=13, k=23),
        'meets_target': True,
    },
    'capped_s2@256': {
        'value': (((0xd28d3312983e991873d8912200bace5eb5c88daa81149c27beb240ffad8f9e9b, -255), (0xd28d3312983e991873d8912200bace5eb5c88daa811d7f217854f9fdc20f9eab, -255)), ((-0x11c5f3734571fc29, -233), (0x11c5f3734571fc29, -233))),
        'radius': (0x11c5f3734571fc29, -233),
        'params': EMParams(N=20, k=45),
        'meets_target': True,
    },
}
