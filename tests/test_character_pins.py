"""Bit-exact endpoints of everything built on Dirichlet character values.

Prime-modulus and Kronecker characters share one exponent representation, and
``l_truncated`` multiplies by chi(n) exactly at quarter turns.  These pins hold
the exact ``(man, exp)`` endpoints that representation feeds: truncated
L-series for Kronecker characters and for prime-modulus characters of order 4
and 6, at a real and a complex s and at 128 and 512 bits; product-mode
Dedekind zeta; direct-mode Dedekind zeta with its remainder radius;
``char_value`` over a full period; Gauss sums of prime-modulus
characters; and ``parity``.  Regenerate the table with
``python tests/test_character_pins.py`` only for a change that is meant to
move endpoints.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest

from zetaval.characters import char_value, gauss_sum, make_elementary, make_kronecker, parity
from zetaval.dedekind import DedekindParams, RealQuadraticField, dedekind_enclosure
from zetaval.dirichlet import l_truncated
from zetaval.interval import ComplexBox, PrecisionContext
from zetaval import rounding as rd
from zetaval.zeta import EMParams

PRECS = (128, 512)
L_TERMS = 60
S_VALUES = {"2.5": (Fraction(5, 2), 0), "2+3i": (2, 3)}
DIRECT_S_VALUES = {"2": Fraction(2), "3.5": Fraction(7, 2)}
L_CHARACTERS = {
    "kronecker(5)": lambda: make_kronecker(5),
    "kronecker(13)": lambda: make_kronecker(13),
    "elementary(5,1)": lambda: make_elementary(5, 1),
    "elementary(7,1)": lambda: make_elementary(7, 1),
}
PERIOD_CHARACTERS = {
    "elementary(7,1)": lambda: make_elementary(7, 1),
    "elementary(13,6)": lambda: make_elementary(13, 6),
}
PARITY_CHARACTERS = {
    "kronecker(5)": lambda: make_kronecker(5),
    "kronecker(3)": lambda: make_kronecker(3),
    "elementary(5,1)": lambda: make_elementary(5, 1),
    "elementary(5,2)": lambda: make_elementary(5, 2),
    "elementary(7,1)": lambda: make_elementary(7, 1),
    "elementary(13,6)": lambda: make_elementary(13, 6),
}


def _ends(iv):
    return (iv.lo, iv.hi)


def _box_ends(box: ComplexBox):
    return (_ends(box.re), _ends(box.im))


def compute(group: str) -> dict:
    out: dict = {}
    if group == "parity":
        return {name: (build().modulus, parity(build()).alpha)
                for name, build in PARITY_CHARACTERS.items()}
    if group == "dedekind_direct":
        ctx = PrecisionContext(128)
        params = DedekindParams(direct_terms=200)
        for D in (5, 13):
            K = RealQuadraticField.of(D)
            for label, s in DIRECT_S_VALUES.items():
                enc = dedekind_enclosure(K, ctx.interval(s), "direct", params, ctx)
                out[f"D={D}@{label}@128"] = (_box_ends(enc.value), enc.remainder_radius)
        return out
    for prec in PRECS:
        ctx = PrecisionContext(prec)
        if group == "l_truncated":
            for name, build in L_CHARACTERS.items():
                for label, (re, im) in S_VALUES.items():
                    s = ctx.box(re, im)
                    enc = l_truncated(build(), s, L_TERMS, ctx)
                    out[f"{name}@{label}@{prec}"] = _box_ends(enc.value)
        elif group == "dedekind_product":
            params = DedekindParams(em=EMParams(16, 4), l_terms=L_TERMS)
            for D in (5, 13):
                s = ctx.interval(Fraction(5, 2))
                enc = dedekind_enclosure(RealQuadraticField.of(D), s, "product", params, ctx)
                out[f"D={D}@{prec}"] = _box_ends(enc.value)
        elif group == "char_value":
            for name, build in PERIOD_CHARACTERS.items():
                chi = build()
                for n in range(chi.modulus + 1):
                    out[f"{name}({n})@{prec}"] = _box_ends(char_value(chi, n, ctx))
        else:
            for name, build in PERIOD_CHARACTERS.items():
                out[f"{name}@{prec}"] = _box_ends(gauss_sum(build(), ctx))
    return out


GROUPS = ["l_truncated", "dedekind_product", "dedekind_direct", "char_value", "gauss_sum_prime",
          "parity"]


@pytest.mark.parametrize("group", GROUPS)
def test_character_endpoints_pinned(group):
    got = compute(group)
    want = PINS[group]
    assert got.keys() == want.keys()
    moved = [k for k in want if got[k] != want[k]]
    assert not moved, f"{group}: endpoints moved at {moved}"


def _mp_fraction(y: mpmath.mpf) -> Fraction:
    sign, man, e, _ = y._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** e


def _product_value(D: int, prec: int) -> Fraction:
    """zeta(5/2) L(5/2, chi_D) from mpmath at twice the precision."""
    # D = 5 and 13 are primes 1 mod 4: chi_D(n) is the Legendre symbol (n/D)
    chi = [0] + [1 if pow(n, (D - 1) // 2, D) == 1 else -1 for n in range(1, D)]
    with mpmath.workprec(2 * prec + 32):
        s = mpmath.mpf(5) / 2
        return _mp_fraction(mpmath.zeta(s) * mpmath.dirichlet(s, chi))


PRODUCT_CASES = [(D, prec) for prec in PRECS for D in (5, 13)]


# EM_LOOP_PINS, at the end of the file, holds the product-mode boxes from
# before the zeta factor's remainder bound went to 64 bits and its Bernoulli
# correction to Horner's rule.  Each new box must contain zeta(s) L(s, chi_D),
# meet its old box and be no wider than it by more than 2**-56 relative.
@pytest.mark.parametrize("D,prec", PRODUCT_CASES)
def test_dedekind_product_contains_the_value_and_meets_the_loop_box(D, prec):
    new, old = PINS["dedekind_product"][f"D={D}@{prec}"], EM_LOOP_PINS[f"D={D}@{prec}"]
    value = _product_value(D, prec)
    for (lo, hi), (old_lo, old_hi), v in zip(new, old, (value, Fraction(0))):
        assert rd.to_fraction(lo) <= v <= rd.to_fraction(hi)
        assert rd.cmp(lo, old_hi) <= 0 and rd.cmp(old_lo, hi) <= 0
        old_width = rd.to_fraction(old_hi) - rd.to_fraction(old_lo)
        assert rd.to_fraction(hi) - rd.to_fraction(lo) <= old_width * (1 + Fraction(1, 2**56))


# CMUL_PRODUCT_PINS, at the end of the file, holds the product-mode boxes from
# before product mode multiplied only the real parts: at real s both factors
# are real, so each new box must lie inside its old one, with im exactly 0,
# and still contain zeta(s) L(s, chi_D).
@pytest.mark.parametrize("D,prec", PRODUCT_CASES)
def test_dedekind_product_is_real_and_inside_the_complex_product_box(D, prec):
    new, old = PINS["dedekind_product"][f"D={D}@{prec}"], CMUL_PRODUCT_PINS[f"D={D}@{prec}"]
    assert new[1] == (rd.ZERO, rd.ZERO)
    for (lo, hi), (old_lo, old_hi) in zip(new, old):
        assert rd.cmp(old_lo, lo) <= 0 and rd.cmp(hi, old_hi) <= 0
    (lo, hi), _ = new
    assert rd.to_fraction(lo) <= _product_value(D, prec) <= rd.to_fraction(hi)


# TRIVIAL_TAIL_PINS, at the end of the file, holds the l_truncated and
# Dedekind boxes from before the partial-summation tails.  Each radius is the
# smaller of the old bound and the new one, so each new box lies inside its
# old one, and a direct-mode remainder_radius is no larger than before.
@pytest.mark.parametrize("group", ["l_truncated", "dedekind_product", "dedekind_direct"])
def test_partial_summation_boxes_lie_inside_the_trivial_tail_boxes(group):
    new_pins, old_pins = PINS[group], TRIVIAL_TAIL_PINS[group]
    assert new_pins.keys() == old_pins.keys()
    for key, new in new_pins.items():
        old = old_pins[key]
        if group == "dedekind_direct":
            (new, radius), (old, old_radius) = new, old
            assert rd.cmp(radius, old_radius) <= 0, key
        for (lo, hi), (old_lo, old_hi) in zip(new, old):
            assert rd.cmp(old_lo, lo) <= 0 and rd.cmp(hi, old_hi) <= 0, key


# TWO_SIDED_TAIL_PINS, at the end of the file, holds the direct-mode boxes from
# when the partial sum was widened on both sides.  Every omitted term is >= 0,
# so the new box drops only the lower widening: it lies inside its old box,
# with the same upper end and the same remainder_radius bits.
def test_direct_mode_boxes_drop_only_the_lower_widening():
    new_pins = PINS["dedekind_direct"]
    assert new_pins.keys() == TWO_SIDED_TAIL_PINS.keys()
    for key, ((re, im), radius) in new_pins.items():
        (old_re, old_im), old_radius = TWO_SIDED_TAIL_PINS[key]
        assert radius == old_radius and im == old_im, key
        assert re[1] == old_re[1] and rd.cmp(old_re[0], re[0]) < 0, key


def _render(v) -> str:
    if isinstance(v, tuple) and len(v) == 2 and all(isinstance(x, int) for x in v):
        return f"({v[0]:#x}, {v[1]})"
    if isinstance(v, tuple):
        return "(" + ", ".join(_render(x) for x in v) + ")"
    raise TypeError(v)


def _table() -> str:
    lines = ["PINS: dict = {"]
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
    'l_truncated': {
        'kronecker(5)@2.5@128': (((0x6576809135f80919159605bc5b87140f, -127), (0xcaffce4f84c7120781674ddc1ebd8605, -128)), ((-0x259a5a31adffaaac7684c6cf5ebb659, -134), (0x259a5a31adffaaac7684c6cf5ebb659, -134))),
        'kronecker(5)@2+3i@128': (((0x98beb025c7efa9858496edbb75fc5647, -127), (0x9924bbe8f2e638c4f53832aed58e3e17, -127)), ((0x860d733e105e041d14709bdae8075c1d, -129), (0x21e96892af0e1046b5bd6bea1993beb3, -127))),
        'kronecker(13)@2.5@128': (((0x3881aa84659afe629d52459c8000a4b1, -126), (0xe23f1198e0f0f90a77fadd9c3710ac19, -128)), ((-0x70cf0e9509ff0005638e546e1c3230b, -134), (0x70cf0e9509ff0005638e546e1c3230b, -134))),
        'kronecker(13)@2+3i@128': (((0xf004d6531406d95b377f78589f0f3ab, -124), (0xf2691ce615ce34d7db47160cdc7aa89f, -128)), ((0x19bf60052a057744987955d7a7d6b315, -127), (0xd78c1a755749281752e9258e34634fb1, -130))),
        'elementary(5,1)@2.5@128': (((0x7d2253c6546c63a1b6156a71cfeae3f7, -127), (0xfa5774b9c1afc718c2661747078525bb, -128)), ((0x760420fa520c7f0a5714d7a84b0b6b63, -130), (0xec9eab5d6ad0fcbf6003c26bd391c483, -131))),
        'elementary(5,1)@2+3i@128': (((0xa2882a7f424aa77f94d615c7bd23d89f, -127), (0xa2ee36426d4136bf05775abb1cb5c071, -127)), ((-0xa75511b0b3f7c7b16dbbc87ad67f034b, -132), (-0x4d49cca5aa92efe1acc9950772210785, -131))),
        'elementary(7,1)@2.5@128': (((0x76f560ea5ef8a37add37d3a519c4e49f, -127), (0x3b81bd6618ccf1ad6ef222b7d3c43581, -126)), ((0xacfbf672b2ee8887857851f5df9a4acf, -130), (0x56b662c0a3fc43c3c56df02526db3e9b, -129))),
        'elementary(7,1)@2+3i@128': (((0x28ab65bc32577bec87ffe99a085205e9, -125), (0xa346a89589cfc69148f18dd530a2f34b, -127)), ((-0x9ccadb554dd25820c89f3887fdb9ce29, -131), (-0x499ce084a35a75171cc060db84060b57, -130))),
        'kronecker(5)@2.5@512': (((0x32bb40489afc048c8acb02de2dc38a0df50837b046cdf41f89b029916af5e6b24f91972ebe490593d12e50c63384e65193559176e2ea8a71ac2ecf9aaa4e8fc1, -510), (0x195ff9c9f098e240f02ce9bb83d7b0bd5375396a4fe53c9c5d3085c05c9391ef2baacf958077255435b3b190244cefe91abbdb1f0c5aaf3e65ca9e4ee5793d73, -509)), ((-0x12cd2d18d6ffd5563b426367af5db2c788ec9163f21464c2c387bd38c4f4b01f101ff10a95145268e449685453e6028888931cd72b502c7d99b40c828fac60f1, -521), (0x12cd2d18d6ffd5563b426367af5db2c788ec9163f21464c2c387bd38c4f4b01f101ff10a95145268e449685453e6028888931cd72b502c7d99b40c828fac60f1, -521))),
        'kronecker(5)@2+3i@512': (((0x98beb025c7efa9858496edbb75fc5664decfd57520e54a0bfb1abd7d5c3d41e9b6fc4f4df4609ca6e3120d8518ee7ef5a679d6b87a53eb600f68ce237a2652ed, -511), (0x9924bbe8f2e638c4f53832aed58e3e0196de76c3f377a95059010873ac279a011a7abd91d97e24efdd013acde5cfcbf1f10870131bdef8bbbd9e37fd42542ac3, -511)), ((0x860d733e105e041d14709bdae8075c3ab2e3c0862bf4557196135e932f61a4b556e7260fdba7fe3b8032d48f6b96b3c54f5743ca2b42ebc6b9601aba6ab53453, -513), (0x87a5a24abc38411ad6f5afa8664efaad931e45c1763dd2830dac8a6c6f0b0512e4e0df1f701e1f5f67ef89b29f1be7b67991a934b16f21357235c2218b6c930d, -513))),
        'kronecker(13)@2.5@512': (((0x71035508cb35fcc53aa48b3900014970a3f3f7b38aca70e186bfbf8a7b3dcff5754d601979d9c1010a03dcb854e6a5950a6a1c22c77073078457e8492bfd5f61, -511), (0x711f88cc70787c853bfd6ece1b8855fccf415a8da0b58f78aae50b2650653efda3e5900309b95f7ca75a4ad4d3647e98d736f8ce0a316b4a40be765befd4e21, -507)), ((-0x3867874a84ff8002b1c72a370e1918569ac5b42bd63d2e484a9737aa4ede105d305fd31fbf3cf73aacdc38fcfbb2079999b9568581f08578cd1c2587af0522d3, -521), (0x3867874a84ff8002b1c72a370e1918569ac5b42bd63d2e484a9737aa4ede105d305fd31fbf3cf73aacdc38fcfbb2079999b9568581f08578cd1c2587af0522d3, -521))),
        'kronecker(13)@2+3i@512': (((0xf004d6531406d95b377f78589f0f3acfb5eb74a2285087e0d85d03b3616d5aaf158543b4bbb2a785ec57ff77fd50e957c80ae31875454fe59a25ca89e40459f3, -512), (0xf2691ce615ce34d7db47160cdc7aa87c06433c7b17bec37b0bc2c57940eb6b3b6a7bd94c1a63d93bc7f30f2cca98b74187627b383e87a00baf6645a4951767f3, -512)), ((0xcdfb0029502bba24c3caaebd3eb598d72eed4f82c805af2a516b7be320b09ae7b6f9ca5b733d60e8f680e8b8d042a2d5e526a8a76d85a16ae17468edae55ccc3, -514), (0x35e3069d55d24a05d4ba49638d18d3e21c131bb9a16fa764c7c0a0bea7aa374642b5082e3b8089f0193b49e30158769f38a14249a4a3b880cd9d95561ca88101, -512))),
        'elementary(5,1)@2.5@512': (((0x3e9129e32a3631d0db0ab538e7f571fee632d2188a5fd1608b927a01bcd586f6bbc0eb6c6d9a59770cc8f951e1b5eb5ea1a8cb07f5a0f14be8cf642d09800b1f, -510), (0xfa5774b9c1afc718c2661747078525ae605434f38d7159e6f10d6fc42c1b108b0e13cda2c0fe7a2e9c082eafdb2b937d0f2bbf3cadaf155c20d744c0a88fd8f7, -512)), ((0x760420fa520c7f0a5714d7a84b0b6b6d75b4715f592c0a0e6d105b001dca6fa94b2ce8c1c24853ba3479ac3240984f3a73df347bc6efe8f57b10e068d7d334d5, -514), (0xec9eab5d6ad0fcbf6003c26bd391c47127b04749d1e8b742f03cf3ea01bc84d38edad10bd9394a07b015a3a723cfce892c0301de473a534ee2ef6135c423ccd7, -515))),
        'elementary(5,1)@2+3i@512': (((0x5144153fa12553bfca6b0ae3de91ec5d79f962e6d6323a3f256367ad5049b97b4dddb245557ec5327ea23363ad0057163ff48a8898b10554127d2bf6ddd01691, -510), (0xa2ee36426d4136bf05775abb1cb5c057ac01671c7ef6d3c2a8ad1a50f07dcb0dff39d2ce901b12adf733941026e1fb28ca77ae6bd2ed1803d32fc1c783ce04f7, -511)), ((-0x53aa88d859fbe3d8b6dde43d6b3f817cb29cded6ad40d093529415bc75b4a345f7c7990b4d44f1ab2e634f142b3f97d8650cf2b48e5e97b30d58e3352f88e3ff, -515), (-0x9a93994b5525dfc359932a0ee4420f62636593d30835b89ae85eccaeee1e439f7fc16999f6d8da371ee0f50eba5590277846ba14eb5b83f054048b315956d361, -516))),
        'elementary(7,1)@2.5@512': (((0x76f560ea5ef8a37add37d3a519c4e4ad60700ab28a91576e17d32bbabe2d539e5893b934d009fe683d338e0fc4c1ee105fc3e9448048493458f0d0f6d2041505, -511), (0x77037acc3199e35adde4456fa7886af37616bc1f9586e6b9a9e5d188a8c10b226fdfd12997f9cda60bdec51e0400da92462a579a21a8c555b724180033efd66b, -511)), ((0x567dfb3959774443c2bc28faefcd257431af214307e12bc01847321bfa7816fb4b8ed54b78d966a28066cb69e7c807f49736e696627e3bc20daf788013f32285, -513), (0x2b5b316051fe21e1e2b6f812936d9f464424f37b99dbb4773048e4a9d2637a85d45f9a8f4c4c51ccdd89d3d17261dcfe18684ff674001623c33e4a52cdd113e1, -512))),
        'elementary(7,1)@2+3i@512': (((0x1455b2de192bbdf643fff4cd042902f8450f98c575ef249ccc487ab90fdf797ae410efec414a6adf15ac1d1c88d22be4d141194d4d36c1ebde190f83f68ea457, -508), (0xa346a89589cfc69148f18dd530a2f32d3c92b821eb54b3ccef1d4639f6db4ffa35c524c7e1ffa3662447acd179e352a0f9deb0725c06a36876189ae660b9e661, -511)), ((-0x13995b6aa9ba4b041913e710ffb739b82d66130ca100b8766c496dbb4b3b14bc67a6f66fd8d110331544a37024e9e4a5f91a986c13e84fdb174104b90b4407cf, -512), (-0x9339c10946b4ea2e3980c1b7080c171029d179014a4cd54a94b466c2dbe063b1e95d5d214bc3bac13bb8dcadf22fed88cb7662e17a393e406506395d95d406d, -511))),
    },
    'dedekind_product': {
        'D=5@128': (((0x881c76b7649016049fd654c71c836abb, -127), (0x8829131fa5a3bb941161dcec9d5ff5f1, -127)), ((0x0, 0), (0x0, 0))),
        'D=13@128': (((0x979b03707d9c175bf74feeab39faf8fb, -127), (0x97c0d8a940d5e9eebc960cd713d7c7b, -123)), ((0x0, 0), (0x0, 0))),
        'D=5@512': (((0x22071dadd924058127f59531c720dab54832e0246d66eb90aa48c6364df6a57f6c1b1ee8a1f47c3c4aa5249f7dfcb51d626e8d56f3386a7e63ea367123f2a043, -509), (0x4414898fd2d1ddca08b0ee764eaffaec1eb7f5b807881a06e92004de47e505b707287d33f4d1465ca105c85396e9d163de4c01345721d012ef773f4b7878222b, -510)), ((0x0, 0), (0x0, 0))),
        'D=13@512': (((0x4bcd81b83ece0badfba7f7559cfd7c8c688d3caa305f9a7553f087e3bcdcdccfae52ee91ec273d83a658af6bf515c1472da4bf55b7da92a82081ae1251f88183, -510), (0x97c0d8a940d5e9eebc960cd713d7c79312e8c9470cc8832482c805f3b31b035d82b01bf68bf286e173955468a94827d003152b668b535587afdc11909a6e8a33, -511)), ((0x0, 0), (0x0, 0))),
    },
    'dedekind_direct': {
        'D=5@2@128': ((((0x946b0f0f294a3e11dac38b4ea076fb43, -127), (0x9a3f17010ca8e9c2949bf87553634d11, -127)), ((0x0, 0), (0x0, 0))), (0xba80fe3c6bd576173b0da4d65d8a33b3, -132)),
        'D=5@3.5@128': ((((0x40cd1f891e2c11882a55c80008cccaa7, -126), (0x819a78b8b53730b219387deb74da31b3, -127)), ((0x0, 0), (0x0, 0))), (0x734cf1be1b438919dbd6c681385c123b, -144)),
        'D=13@2@128': ((((0x587460227ff305ae947f1ae937b001a1, -126), (0x5b5e641b71a25b86f16b517c91262a8b, -126)), ((0x0, 0), (0x0, 0))), (0xba80fe3c6bd576173b0da4d65d8a33b3, -132)),
        'D=13@3.5@128': ((((0x86bf49341d40ff28e170ea121782c62f, -127), (0x435fc16d4b10066552feebfebd61b14d, -126)), ((0x0, 0), (0x0, 0))), (0x734cf1be1b438919dbd6c681385c123b, -144)),
    },
    'char_value': {
        'elementary(7,1)(0)@128': (((0x0, 0), (0x0, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(7,1)(1)@128': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(7,1)(2)@128': (((-0x40000000000000000000000000000003, -127), (-0x7ffffffffffffffffffffffffffffffb, -128)), ((0xddb3d742c265539d92ba16b83c5c1dc1, -128), (0x1bb67ae8584caa73b25742d7078b83b9, -125))),
        'elementary(7,1)(3)@128': (((0x7ffffffffffffffffffffffffffffffd, -128), (0x80000000000000000000000000000003, -128)), ((0xddb3d742c265539d92ba16b83c5c1dc3, -128), (0xddb3d742c265539d92ba16b83c5c1dc7, -128))),
        'elementary(7,1)(4)@128': (((-0x40000000000000000000000000000005, -127), (-0x7ffffffffffffffffffffffffffffff5, -128)), ((-0xddb3d742c265539d92ba16b83c5c1dcb, -128), (-0x6ed9eba16132a9cec95d0b5c1e2e0edf, -127))),
        'elementary(7,1)(5)@128': (((0xffffffffffffffffffffffffffffffed, -129), (0x20000000000000000000000000000003, -126)), ((-0x6ed9eba16132a9cec95d0b5c1e2e0ee5, -127), (-0xddb3d742c265539d92ba16b83c5c1dbd, -128))),
        'elementary(7,1)(6)@128': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(7,1)(7)@128': (((0x0, 0), (0x0, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(0)@128': (((0x0, 0), (0x0, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(1)@128': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(2)@128': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(3)@128': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(4)@128': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(5)@128': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(6)@128': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(7)@128': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(8)@128': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(9)@128': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(10)@128': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(11)@128': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(12)@128': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(13)@128': (((0x0, 0), (0x0, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(7,1)(0)@512': (((0x0, 0), (0x0, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(7,1)(1)@512': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(7,1)(2)@512': (((-0x40000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001, -511), (-0x3ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffd, -511)), ((0xddb3d742c265539d92ba16b83c5c1dc492ec1a6629ed23cc639053243722d3712485e7ecaf78aeded4c98557091147c3e6267926d1d0f634686699d00d6cd1c1, -512), (0x6ed9eba16132a9cec95d0b5c1e2e0ee249760d3314f691e631c829921b9169b89242f3f657bc576f6a64c2ab8488a3e1f3133c9368e87b1a34334ce806b668e3, -511))),
        'elementary(7,1)(3)@512': (((0x7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff, -512), (0x80000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003, -512)), ((0x376cf5d0b09954e764ae85ae0f17077124bb06998a7b48f318e414c90dc8b4dc492179fb2bde2bb7b5326155c24451f0f9899e49b4743d8d1a19a674035b347, -506), (0xddb3d742c265539d92ba16b83c5c1dc492ec1a6629ed23cc639053243722d3712485e7ecaf78aeded4c98557091147c3e6267926d1d0f634686699d00d6cd1c3, -512))),
        'elementary(7,1)(4)@512': (((-0x20000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003, -510), (-0x7ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffd, -512)), ((-0x376cf5d0b09954e764ae85ae0f17077124bb06998a7b48f318e414c90dc8b4dc492179fb2bde2bb7b5326155c24451f0f9899e49b4743d8d1a19a674035b3471, -510), (-0xddb3d742c265539d92ba16b83c5c1dc492ec1a6629ed23cc639053243722d3712485e7ecaf78aeded4c98557091147c3e6267926d1d0f634686699d00d6cd1bb, -512))),
        'elementary(7,1)(5)@512': (((0x7ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7, -512), (0x40000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003, -511)), ((-0xddb3d742c265539d92ba16b83c5c1dc492ec1a6629ed23cc639053243722d3712485e7ecaf78aeded4c98557091147c3e6267926d1d0f634686699d00d6cd1c7, -512), (-0x6ed9eba16132a9cec95d0b5c1e2e0ee249760d3314f691e631c829921b9169b89242f3f657bc576f6a64c2ab8488a3e1f3133c9368e87b1a34334ce806b668df, -511))),
        'elementary(7,1)(6)@512': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(7,1)(7)@512': (((0x0, 0), (0x0, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(0)@512': (((0x0, 0), (0x0, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(1)@512': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(2)@512': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(3)@512': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(4)@512': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(5)@512': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(6)@512': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(7)@512': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(8)@512': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(9)@512': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(10)@512': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(11)@512': (((-0x1, 0), (-0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(12)@512': (((0x1, 0), (0x1, 0)), ((0x0, 0), (0x0, 0))),
        'elementary(13,6)(13)@512': (((0x0, 0), (0x0, 0)), ((0x0, 0), (0x0, 0))),
    },
    'gauss_sum_prime': {
        'elementary(7,1)@128': (((-0x9c2b251afe4141e86286182684468ff9, -126), (-0x270ac946bf90507a18a18609a111a3fb, -124)), ((0x20b94b0b6ba90db3fd22585612c620fb, -125), (0x41729616d7521b67fa44b0ac258c4203, -126))),
        'elementary(13,6)@128': (((0x1cd82b446159f360fedeccf37f9e485d, -123), (0xe6c15a230acf9b07f6f6679bfcf24309, -126)), ((-0x5b, -129), (0x3b, -128))),
        'elementary(7,1)@512': (((-0x9c2b251afe4141e86286182684468ff2cba85a8ff048f95e2f884cbb5c3d2723784594b9f1ea9a8d79734b698a304694534ee017edef6355592554bba44b3fb9, -510), (-0x270ac946bf90507a18a18609a111a3fcb2ea16a3fc123e578be2132ed70f49c8de11652e7c7aa6a35e5cd2da628c11a514d3b805fb7bd8d55649552ee912cfeb, -508)), ((0x41729616d7521b67fa44b0ac258c41fe6b2bc27a0ada3865f3e43dd4b1c8ddd3ee3ce2a250d171d8ba812bef0921a1b1b15d363ea4e32a26437bbc1d87f8e087, -510), (0x41729616d7521b67fa44b0ac258c41fe6b2bc27a0ada3865f3e43dd4b1c8ddd3ee3ce2a250d171d8ba812bef0921a1b1b15d363ea4e32a26437bbc1d87f8e095, -510))),
        'elementary(13,6)@512': (((0xe6c15a230acf9b07f6f6679bfcf242f7136f191c4a96ec5a1d9f89f0f3ddb239c87ba6b17bd3208eacdb33f04812a6f61d53229fecdaf65073c821a3c12a0969, -510), (0xe6c15a230acf9b07f6f6679bfcf242f7136f191c4a96ec5a1d9f89f0f3ddb239c87ba6b17bd3208eacdb33f04812a6f61d53229fecdaf65073c821a3c12a0989, -510)), ((-0x7, -509), (0x3, -508))),
    },
    'parity': {
        'kronecker(5)': (0x5, 0),
        'kronecker(3)': (0xc, 0),
        'elementary(5,1)': (0x5, 1),
        'elementary(5,2)': (0x5, 0),
        'elementary(7,1)': (0x7, 1),
        'elementary(13,6)': (0xd, 0),
    },
}


# product-mode boxes of the Euler-Maclaurin loop that summed the Bernoulli
# terms one by one and bounded the remainder at the working precision
EM_LOOP_PINS: dict = {
    'D=5@128': (((0x21f8edb88fee95ecd46589491d5c2c97, -125), (0x221874bd329e5e892780be09bb55eafd, -125)), ((-0xfc3825157e456f23782355f5590a4647, -137), (0xfc3825157e456f23782355f5590a4647, -137))),
    'D=13@128': (((0x976ee00399d966dc0815346f542c48db, -127), (0x25fb3f05892626a7f71543223bb2964f, -125)), ((-0x7e1c128abf340a198f16c21d639be485, -136), (0x7e1c128abf340a198f16c21d639be485, -136))),
    'D=5@512': (((0x87e3b6e23fba57b3519625247570b2760fb808e4766f31c6e325e040b721a532e99bba725cbf9e2165fd76d39b6bf98300beaf41f85079f8a1c312f77f10a091, -511), (0x110c3a5e994f2f4493c05f04ddaaf57b481dcbe63bd8270bd5f0a3a8e69e1e7b41eb0ead10259328f3762c5fbf8e6df6626a917762a4e1a0ed3ab8906af9454d, -508)), ((-0x1f8704a2afc8ade46f046abeab2148c659f8d725b1d0ec5b5e646ec8b228bb1dee59fe906fd0d3d866c39551014d0661079c378acbc9e81f757aa49d5045f06f, -518), (0x1f8704a2afc8ade46f046abeab2148c659f8d725b1d0ec5b5e646ec8b228bb1dee59fe906fd0d3d866c39551014d0661079c378acbc9e81f757aa49d5045f06f, -518))),
    'D=13@512': (((0x25dbb800e67659b702054d1bd50b123e2b032c4698de81fd29ef838ee2d6e58b4b5bf7c527aacaf2c8549221d58c5a4415fe39899fe7701ad08a203248747f23, -509), (0x97ecfc1624989a9fdc550c88eeca591e3ed46ba05eb0cd66868deeecc4d06528bc90ed6ed058730706524a68cd919b658c97a4cb15b047eb1a34f83ce5de8539, -511)), ((-0xfc3825157e6814331e2d843ac737c8f5f28f2a53580516ffd46acbbcdc4681c23b76bc9dff1eca21ce4818b4bbe07d4c4ea61348d638231b9f60f4c1282d1fd1, -521), (0xfc3825157e6814331e2d843ac737c8f5f28f2a53580516ffd46acbbcdc4681c23b76bc9dff1eca21ce4818b4bbe07d4c4ea61348d638231b9f60f4c1282d1fd1, -521))),
}

# product-mode boxes from when the zeta and L boxes were multiplied as complex
# boxes, imaginary parts included
CMUL_PRODUCT_PINS: dict = {
    'D=5@128': (((0x87e3b6e23fba57b351962524756f3e43, -127), (0x8861d2f4ca797a249e02f826ed592165, -127)), ((-0x7e1c128abf22b791bc11aafaaf7006ad, -136), (0x7e1c128abf22b791bc11aafaaf7006ad, -136))),
    'D=13@128': (((0x4bb77001ccecb36e040a9a37aa155523, -126), (0x97ecfc1624989a9fdc550c88eecbf929, -127)), ((-0xfc3825157e6814331e2d843acdb780d5, -137), (0xfc3825157e6814331e2d843acdb780d5, -137))),
    'D=5@512': (((0x87e3b6e23fba57b351962524756f3e5cfc3a4191ea8fa8ea7bed719b5782140e785f1798cbd14f37a3659d13ca04403339759ccc7cc8f1290e20a131533815a1, -511), (0x8861d2f4ca797a249e02f826ed59214c05fc433f679298ced7dbf8d0f508cf221c53eb42dd52303216d64d8353cd627fcee0b5885a956e303f46404ba7267c77, -511)), ((-0x3f0e09455f915bc8de08d57d57b80351c1d5bbd4350248df13a467517c2cbe48d829d77d0538922bf271aff95c8cd97d9b623c5b05f4f9145b711189fcddeec3, -519), (0x3f0e09455f915bc8de08d57d57b80351c1d5bbd4350248df13a467517c2cbe48d829d77d0538922bf271aff95c8cd97d9b623c5b05f4f9145b711189fcddeec3, -519))),
    'D=13@512': (((0x976ee00399d966dc0815346f542aaa636ab06e5a851c2e765d5bb11491bd984b6bf864a9f35b261d030e2887101e65884a6f4a436eb75093f9a5b6ea0a28899, -507), (0x97ecfc1624989a9fdc550c88eecbf90c31c0cb1b3a007e78920eb8f81ee6ad2e19c73ada46dfc0b5dd237b2e9996d86a8e645805f07d901ba485cc1e210bbf53, -511)), ((-0xfc3825157e6814331e2d843acdb780c1a40d15c096c95f2dd792f9253566973714ac6a781c55857d130b2fe4d0d491538172feb40b58e544e2b079addd158739, -521), (0xfc3825157e6814331e2d843acdb780c1a40d15c096c95f2dd792f9253566973714ac6a781c55857d130b2fe4d0d491538172feb40b58e544e2b079addd158739, -521))),
}

# the three tail groups from when l_truncated and direct mode bounded every
# tail term by its largest |a_n|, before partial summation
TRIVIAL_TAIL_PINS: dict = {
    'l_truncated': {
        'kronecker(5)@2.5@128': (((0x654c32ebbe1449791390b05cb23c813d, -127), (0xcb54699a748e91478571f89b7152aba9, -128)), ((-0xbc03c2f865fe555e5097e20cd9a8fbd, -133), (0xbc03c2f865fe555e5097e20cd9a8fbd, -133))),
        'kronecker(5)@2+3i@128': (((0x96cf93e53b48cf031ac56e1303a327f3, -127), (0x9b13d8297f8d13475f09b25747e76c6b, -127)), ((0x3f28811deee14d09b6954e9c8f515167, -128), (0x8f62134ceed3ab247e3bae4a2fb3b41b, -129))),
        'kronecker(13)@2.5@128': (((0xe1c4dbf3bf7b7a1fc779ae16151ccad3, -128), (0x71406fdb5bf0bc3a92e522fc10fb3a05, -127)), ((-0xbc03c2f865fe555e5097e20cd9a8fbd, -133), (0xbc03c2f865fe555e5097e20cd9a8fbd, -133))),
        'kronecker(13)@2+3i@128': (((0x76795aac2853216aa28f81773cc056a1, -127), (0xf57b3de0d92ecb5dcda78b770209360d, -128)), ((0xc1b27c3e42a9600cfa48d914a87b62ef, -130), (0x71ea4f303265c1178e357d9b654ec2b5, -129))),
        'elementary(5,1)@2.5@128': (((0x7cf80620dc88a401b410151226a05125, -127), (0xfaac1004b1774658c670c2065a1a4b5f, -128)), ((0x74b1b3ce92ee820a46ea2cab00b6d4d1, -130), (0xef4385b4e90cf6bf80591866683af1a7, -131))),
        'elementary(5,1)@2+3i@128': (((0xa0990e3eb5a3ccfd2b04961f4acaaa4b, -127), (0xa4dd5282f9e811416f48da638f0eeec5, -127)), ((-0x394e26709234c5ffa9faef6248693371, -130), (-0xb960227380951eec3ec66a0132388923, -133))),
        'elementary(7,1)@2.5@128': (((0xed9ad9d5145f87ab0bf3cd23bae07b07, -128), (0xee56dd980cc586006a446505c7ba243b, -128)), ((0xabbc56740ca78b5ccb88e95bfcf511f, -126), (0xaeac657fee3f84b244cb48e4305bb615, -130))),
        'elementary(7,1)@2+3i@128': (((0xa0d7fda10774b8ff925677fc86d36337, -127), (0x14a3883ca9771fa87ad357881962f4f7, -124)), ((-0xba2470516c65c349a3321f41a50514f3, -131), (-0xebc0581a5042fe0abddbb5fac1819fc9, -132))),
        'kronecker(5)@2.5@512': (((0xca9865d77c2892f2272160b9647902935238b632d97674b8ba50c3722c614db0b27dccfe49853adc6cb5f8c3529a0e3ae6efafd9c36740fe7b8794325db3b75, -508), (0x32d51a669d23a451e15c7e26dc54aae3c7647cf8303ad02a157d04359904b7247a47c31a2cd60185216835b5a77842950f115bbe8ac618aed8e2272bddd41cd3, -510)), ((-0x5e01e17c32ff2aaf284bf1066cd47de5ac9ed6f3ba65f7cdd1a6b21bd8c7709b509fb534e9659c0c756f09a5a37e0caaaadf9033d890de7400843e8cce5de4b5, -520), (0x5e01e17c32ff2aaf284bf1066cd47de5ac9ed6f3ba65f7cdd1a6b21bd8c7709b509fb534e9659c0c756f09a5a37e0caaaadf9033d890de7400843e8cce5de4b5, -520))),
        'kronecker(5)@2+3i@512': (((0x4b67c9f29da467818d62b70981d194088c5a81fd34062bc603f5e06b310825e9a34cb226e2669f549ef3c103ae9e81a8d4cf80a1d47ba7f5e230b0771e0d8e4d, -510), (0x4d89ec14bfc689a3af84d92ba3f3b62aae7ca41f56284de82618028d532a480bc56ed4490488c176c115e325d0c0a3caf6f1a2c3f69dca180452d299402fb08b, -510)), ((0xfca20477bb853426da553a723d4545d734f0f536912116e392aed7ee8d5b98b72ab6f41e3ab50c89d7114d30f9a18a6ab7d7dbedcba0fbeb1a84cbcae510b61, -510), (0x11ec42699dda75648fc775c945f6767f957131758b3433905b4d0fa10af7dbad94cd916405cd72eabf9336f531bc3ac8cd9f9fe0fedc31e0d3ca6eded0732d8b, -510))),
        'kronecker(13)@2.5@512': (((0xe1c4dbf3bf7b7a1fc779ae16151ccaef8d88b36a37c59a6263d323feafca47827de250674ea9bae1a4e8b88382a7a62136f635609dc94d735115da668f03e36f, -512), (0xe280dfb6b7e1787525ca45f821f673eb58e1f1181f3a6651ff767162e77bd663b4838fd1b87c8619bdd39696cdeea23a8c4bf481057a6f303916e2e3a8a09f73, -512)), ((-0x5e01e17c32ff2aaf284bf1066cd47de5ac9ed6f3ba65f7cdd1a6b21bd8c7709b509fb534e9659c0c756f09a5a37e0caaaadf9033d890de7400843e8cce5de4b5, -520), (0x5e01e17c32ff2aaf284bf1066cd47de5ac9ed6f3ba65f7cdd1a6b21bd8c7709b509fb534e9659c0c756f09a5a37e0caaaadf9033d890de7400843e8cce5de4b5, -520))),
        'kronecker(13)@2+3i@512': (((0x76795aac2853216aa28f81773cc056b0cce98a252de1b0b4d6e5d02906740f587dde251e13637e0e4af0a1870fd8460431b935720ad119da3040e1e97c24ce45, -511), (0x3d5ecf78364bb2d77369e2ddc0824d7a8896e734b912fa7c8d950a36a55c29ce611134b12bd3e129479a72e5aa0e45243afebcdb278aaf0f3a429316e0348957, -510)), ((0x60d93e1f2154b0067d246c8a543db18f5f45e711cae88aa6d392f72ee74dd577a7eaf23c8fc759a1ce52fb88ace096cc296263eaf77c9852fd722708ffb56b9, -509), (0xe3d49e6064cb822f1c6afb36ca9d8540e0adf045b7f3376fc948107ff0bdcd1171f8069b41b0d565bec819337be34fba74e6e9f8111b52c81d067034218cf9a7, -514))),
        'elementary(5,1)@2.5@512': (((0x1f3e0188372229006d04054489a8144ae2dc63fa7cf7bd37983b40a66e7bf9d84c6763bea0d9514d2b64135e416bc44de40792c3c1c81b8cedc13ccf7b4f3499, -509), (0xfaac1004b1774658c670c2065a1a4b52e23c5d81cf32b5ac5d7d5297ab915da399dc5d5f709d55a1740b790556a51e887592553e75f1fe24560aeef8f41660ab, -512)), ((0x1d2c6cf3a4bba08291ba8b2ac02db536db84f3c99489a6be2ed433ec87fc4ed1c702aa73c0f3397bb51b20b714ac88c33691371d2979117529908de1ea6e4581, -512), (0xef4385b4e90cf6bf80591866683af19536f18bbbdff3956e53bc0a85fd6eed97ed1f4ef15630259e702ff652ff9c26e45f37b1ec895199908c8cb2f820580a79, -515))),
        'elementary(5,1)@2+3i@512': (((0xa0990e3eb5a3ccfd2b04961f4acaaa672dd7f452f38b81fe5797d2b3a6667ce02b58798a7b6a2c675819db499e4f3288830e3f9c60056f33d9f2eab87d94f6cf, -511), (0x526ea9417cf408a0b7a46d31c7877755b90e1c4b9be7e3214dee0b7bf555609237ce5ee75fd73855ce2f0fc6f149bb6663a941f05224d9bc0f1b977e60ec9da5, -510)), ((-0x729c4ce124698bff53f5dec490d266b91449f6823acff8928583e02c188404acfdf6490e467ad185810c06efe657521832ba4a01a4284ef7bdcfb689103c492d, -515), (-0xb960227380951eec3ec66a01323889d34016c8f7da2ed13904fe6f9f50ff01a2e6c8132808da3504f31f0aae884c374fb9d816f57f902acde62dc9132fe0120b, -517))),
        'elementary(7,1)@2.5@512': (((0x76cd6cea8a2fc3d585f9e691dd703d91786d13fd962eec17f9f3ab48a58acba816917554998d33391e4e7212118fa54afda1b0a7370c3ed5ce0a325c3c92c6b7, -511), (0x772b6ecc0662c30035223282e3dd120f5e19b2d489e9520fc7c551fac1639318b1e21509ce7698d52ac3e11bb7332357a84c90376ae4cfb4420ab69ac96124b9, -511)), ((0x55de2b3a0653c5ae65c474adfe7a890491a3466f36577e67a0c9305397edf7224385c5ca9ee639e604d25b731afee4df0eae04213d8e1247e214fe15be2de94d, -513), (0x2bab195ffb8fe12c9132d2390c16ed7e142ae0e582a08b236c07e58e03a88a725864224fb945e82b1b540bccd8c66e88dcacc13106782ae0d90b8787f8b3b07d, -512))),
        'elementary(7,1)@2+3i@512': (((0x2835ff6841dd2e3fe4959dff21b4d8d5641967412ad1328de1a39af7c6325af1a2410bfcb501d6c351ac8a2e2f860db067f466d3102f0dd064539a583a1d5893, -509), (0xa51c41e54bb8fd43d69abc40cb17a799d4a9e148ef890e7bcad2b0235d0db00acd487437184b9f518af66cfd025c7b05e415df9085007b85d592ada52cb9a6cd, -511)), ((-0x2e891c145b1970d268cc87d069414522bb28cab552d2dba84768831c2f3fa9bb2d5b2a9c8ad21013c544478e6bb86adf9b11ed50cbb8002bac6a546d4687114b, -513), (-0x1d780b034a085fc157bb76bf58303411aa17b9a441c1ca973657720b1e2e98aa1c4a198b79c0ff02b433367d5aa759ce8a00dc3fbaa6ef1a9b59435c35760007, -513))),
    },
    'dedekind_product': {
        'D=5@128': (((0x87e3b6e23fba57d6743dc478b6d204cf, -127), (0x8861d2f4ca797a017b5b58d2abf65ad9, -127)), ((0x0, 0), (0x0, 0))),
        'D=13@128': (((0x4bb77001ccecb37f955e69e1cac6b869, -126), (0x97ecfc1624989a7cb9ad6d34ad69329d, -127)), ((0x0, 0), (0x0, 0))),
        'D=5@512': (((0x87e3b6e23fba57d6743dc478b6d204e8c91b1677004333412d09d267da3ae342ef3cd79b4016174c959fb68bfe7c3be66c5b72aae8e8a79e89e942b5b33dc03f, -511), (0x8861d2f4ca797a017b5b58d2abf65ac0391b6e5a51df0e7826bf9804724fffeda5762b40690d681d249c340b1f5566cc9bfadfa9ee75b7bac37d9ec74720d1d9, -511)), ((0x0, 0), (0x0, 0))),
        'D=13@512': (((0x4bb77001ccecb37f955e69e1cac6b8779bc8a19fcd67dc66873c08f08a3b33bff16b125633cff718faa420ffa24b309dbeaa9010ed6b8384bab72c3735171a17, -510), (0x97ecfc1624989a7cb9ad6d34ad69328064dff636244cf421e0f2582b9c2dddf9a2e97ad7d29af8a0eae961b6651edcb75b7e8227845dd9a628bd2a99c10614b5, -511)), ((0x0, 0), (0x0, 0))),
    },
    'dedekind_direct': {
        'D=5@2@128': ((((0x7036de6b2a8429f762773c91229b3b89, -127), (0xb89f3fb32810522c530fda0c1e52bb2d, -127)), ((-0x121a1851ff630a0d3c26275ebeeddfdd, -126), (0x121a1851ff630a0d3c26275ebeeddfdd, -126))), (0x121a1851ff630a0d3c26275ebeeddfdd, -126)),
        'D=5@3.5@128': ((((0x81996d5b24ff40f6ef7fbc3cb08654ff, -127), (0x819b10c953b10529b9d763c372acd5d3, -127)), ((-0x346dc5d63886594af4f0d844d013a92d, -141), (0x346dc5d63886594af4f0d844d013a92d, -141))), (0x346dc5d63886594af4f0d844d013a92d, -141)),
        'D=13@2@128': ((((0x119691f42023fee856163ce29e308871, -124), (0x6a8e78747f560fbbd0a54247f69de199, -126)), ((-0x121a1851ff630a0d3c26275ebeeddfdd, -126), (0x121a1851ff630a0d3c26275ebeeddfdd, -126))), (0x121a1851ff630a0d3c26275ebeeddfdd, -126)),
        'D=13@3.5@128': ((((0x435f3bbe82f40e87be228b275b37c2f, -122), (0x43600d759a4cf0a1234e5eeabc4b035d, -126)), ((-0x346dc5d63886594af4f0d844d013a92d, -141), (0x346dc5d63886594af4f0d844d013a92d, -141))), (0x346dc5d63886594af4f0d844d013a92d, -141)),
    },
}

# direct-mode boxes from when the partial sum was widened by the tail radius on
# both sides, before it was widened upward only
TWO_SIDED_TAIL_PINS: dict = {
    'D=5@2@128': ((((0x8e97071d45eb926120eb1e27ed8aa9a5, -127), (0x9a3f17010ca8e9c2949bf87553634d11, -127)), ((0x0, 0), (0x0, 0))), (0xba80fe3c6bd576173b0da4d65d8a33b3, -132)),
    'D=5@3.5@128': ((((0x819a056bc379156e901ea214ae58f91f, -127), (0x819a78b8b53730b219387deb74da31b3, -127)), ((0x0, 0), (0x0, 0))), (0x734cf1be1b438919dbd6c681385c123b, -144)),
    'D=13@2@128': ((((0x2ac52e14c721d7eb1bc9722aef1cec69, -125), (0x5b5e641b71a25b86f16b517c91262a8b, -126)), ((0x0, 0), (0x0, 0))), (0xba80fe3c6bd576173b0da4d65d8a33b3, -132)),
    'D=13@3.5@128': ((((0x435f87c6d230f8c38e71fe135a2115, -118), (0x435fc16d4b10066552feebfebd61b14d, -126)), ((0x0, 0), (0x0, 0))), (0x734cf1be1b438919dbd6c681385c123b, -144)),
}
# fmt: on
