"""Character tables, parity, orthogonality, and Gauss sums."""

from collections import Counter

import mpmath
import pytest

from zetaval.characters import (
    char_value,
    gauss_sum,
    make_elementary,
    make_kronecker,
    parity,
)
from zetaval.errors import DomainError, NotPrime
from zetaval.exact import kronecker
from zetaval.interval import PrecisionContext

mpmath.mp.dps = 50

ctx = PrecisionContext(128)


def test_elementary_mod5_quadratic_values():
    chi = make_elementary(5, 2)
    assert [chi.sign(n) for n in (1, 2, 3, 4)] == [1, -1, -1, 1]


def test_elementary_mod5_principal():
    chi = make_elementary(5, 4)
    assert [chi.sign(n) for n in (1, 2, 3, 4)] == [1, 1, 1, 1]
    assert chi.is_principal()


def test_elementary_mod3():
    chi = make_elementary(3, 1)
    assert [chi.sign(n) for n in (1, 2)] == [1, -1]


def test_make_elementary_validation():
    with pytest.raises(NotPrime):
        make_elementary(8, 1)
    with pytest.raises(DomainError):
        make_elementary(5, 5)


def test_char_value_kronecker_exact():
    chi = make_kronecker(5)
    v = char_value(chi, 2, ctx)
    assert v.re.is_point() and v.re.contains(-1) and v.im.contains(0)


def test_char_value_elementary_i():
    chi = make_elementary(5, 1)
    v = char_value(chi, 2, ctx)  # nu(2) = 1, omega = i
    assert v.contains_complex(0, 1)
    assert v.re.is_point() and v.im.is_point()  # quarter turns are exact


def test_char_value_vanishes_on_modulus():
    for chi in (make_elementary(5, 1), make_kronecker(5)):
        v = char_value(chi, chi.modulus, ctx)
        assert v.re.is_point() and v.re.contains(0) and v.im.contains(0)


def test_char_value_generic_angle_encloses_root_of_unity():
    chi = make_elementary(7, 1)  # order-6 values
    e = chi.exponent(3)
    v = char_value(chi, 3, ctx)
    w = mpmath.exp(2j * mpmath.pi * e / 6)
    assert v.re.contains(mpmath.nstr(w.real, 40))
    assert v.im.contains(mpmath.nstr(w.imag, 40))


@pytest.mark.parametrize("D", [2, 3, 5, 6, 13, 17, 21, 30])
def test_kronecker_exponent_matches_symbol(D):
    chi = make_kronecker(D)
    delta = chi.modulus
    assert chi.order == 2
    for n in range(-2 * delta, 2 * delta + 1):
        # delta > 0, so (delta/-1) = 1 and (delta/n) = (delta/|n|); (delta/0) = 0
        want = kronecker(delta, abs(n)) if n else 0
        e = chi.exponent(n)
        assert (0 if e is None else (-1) ** e) == want, n


def test_elementary_exponent_table_period():
    chi = make_elementary(13, 6)
    assert chi.order == 12
    assert [chi.exponent(n) for n in range(-13, 14)] == [chi.exponent(n % 13) for n in range(-13, 14)]
    assert chi.exponent(0) is None and chi.exponent(26) is None


def test_parity_examples():
    assert parity(make_kronecker(5)).alpha == 0
    assert parity(make_elementary(5, 1)).alpha == 1
    assert parity(make_elementary(5, 2)).alpha == 0


def test_exponent_multiplicativity():
    for p, m in ((5, 1), (7, 2), (11, 3)):
        chi = make_elementary(p, m)
        order = p - 1
        for a in range(1, p):
            for b in range(1, p):
                lhs = chi.exponent(a * b % p)
                rhs = (chi.exponent(a) + chi.exponent(b)) % order
                assert lhs == rhs


def test_orthogonality_exact_on_representations():
    # nonprincipal prime-modulus characters: exponent classes are equidistributed
    for p, m in ((5, 1), (5, 2), (7, 3), (11, 5), (13, 6)):
        chi = make_elementary(p, m)
        if chi.is_principal():
            continue
        exps = [chi.exponent(n) for n in range(1, p)]
        order = p - 1
        d = order // __import__("math").gcd(m, order)
        assert d > 1
        counts = Counter(e % (order // d) for e in exps)
        # each residue class mod order/d collects d-th roots summing to zero
        assert all(c == len(exps) // len(counts) for c in counts.values())
    # Kronecker characters: plain integer sum over a full period
    for D in (5, 2, 13, 17):
        chi = make_kronecker(D)
        assert sum(chi.sign(n) for n in range(1, chi.modulus + 1)) == 0


def test_gauss_sum_mod5_is_sqrt5():
    tau = gauss_sum(make_kronecker(5), ctx)
    assert tau.re.contains(mpmath.nstr(mpmath.sqrt(5), 40))
    assert tau.im.contains(0)


def test_gauss_sum_mod3_is_i_sqrt3():
    tau = gauss_sum(make_elementary(3, 1), ctx)
    assert tau.re.contains(0)
    assert tau.im.contains(mpmath.nstr(mpmath.sqrt(3), 40))


@pytest.mark.parametrize("build", [
    lambda: make_elementary(3, 1),
    lambda: make_kronecker(5),
    lambda: make_kronecker(13),
    lambda: make_kronecker(17),
    lambda: make_elementary(13, 6),
])
def test_gauss_sum_modulus_squared(build):
    chi = build()
    tau = gauss_sum(chi, ctx)
    norm = ctx.cabs_sq(tau)
    assert norm.contains(chi.modulus)
    assert norm.width_float() < 1e-25
