"""Capped-precision arithmetic against exact integer oracles."""

import random
from fractions import Fraction

import pytest

from g3chabauty.errors import InputError, PrecisionError
from g3chabauty.padic import (INF, PadicNumber, hensel_lift_root, ord_p,
                              padic_sqrt, teichmuller_int)


def test_ord_p():
    assert ord_p(0, 7) == INF
    assert ord_p(98, 7) == 2
    assert ord_p(Fraction(3, 49), 7) == -2
    assert ord_p(Fraction(-14, 5), 7) == 1


def test_coercion_and_digits():
    a = PadicNumber.from_rational(Fraction(1, 3), 7, abs_prec=4)
    # 1/3 = 5 + 4*7 + 2*7^2 + 4*7^3 + ... since 3*5=15=1+2*7 etc.
    assert (a * 3).residue(4) == 1
    assert a.valuation == 0 and a.rel_prec == 4
    b = PadicNumber.from_rational(Fraction(5, 49), 7, abs_prec=2)
    assert b.valuation == -2 and b.abs_prec == 2 and b.rel_prec == 4


def test_arith_oracle_random():
    # oracle: exact Fractions compared at the tracked precision
    rng = random.Random(7)
    for p in (7, 11):
        for _ in range(300):
            va, vb = rng.randint(-2, 3), rng.randint(-2, 3)
            ua = rng.randrange(1, p ** 5)
            ub = rng.randrange(1, p ** 5)
            if ua % p == 0:
                ua += 1
            if ub % p == 0:
                ub += 1
            qa = Fraction(ua) * Fraction(p) ** va
            qb = Fraction(ub) * Fraction(p) ** vb
            a = PadicNumber(p, va, ua, 5)
            b = PadicNumber(p, vb, ub, 5)
            for got, exact in ((a + b, qa + qb), (a - b, qa - qb),
                               (a * b, qa * qb), (a / b, qa / qb)):
                want = PadicNumber.from_rational(exact, p,
                                                 abs_prec=got.abs_prec)
                assert got == want, (p, qa, qb, exact)


def test_addition_cancellation_tracks_precision():
    p = 7
    a = PadicNumber(p, 0, 1 + p ** 3, 5)       # 1 + 7^3 + O(7^5)
    b = PadicNumber(p, 0, p ** 5 - 1, 5)       # -1 + O(7^5)
    s = a + b                                   # 7^3 + O(7^5)
    assert s.valuation == 3 and s.rel_prec == 2
    t = a - a
    assert t.is_zero and t.abs_prec == 5


def test_mul_rel_precision():
    p = 7
    a = PadicNumber(p, 1, 2, 3)
    b = PadicNumber(p, -2, 3, 5)
    c = a * b
    assert c.valuation == -1 and c.rel_prec == 3
    d = a / b
    assert d.valuation == 3 and d.rel_prec == 3


def test_zero_semantics():
    p = 7
    z5 = PadicNumber.zero(p, 5)
    x = PadicNumber(p, 0, 3, 10)
    assert (z5 + x).abs_prec == 5
    assert (z5 * x).is_zero and (z5 * x).abs_prec == 5
    with pytest.raises(ZeroDivisionError):
        x / z5
    ez = PadicNumber.zero(p)
    assert (ez + x).abs_prec == 10
    assert (ez * x).valuation == INF


def test_exact_zero_is_not_zero_at_precision():
    p = 7
    exact, capped = PadicNumber.zero(p), PadicNumber.zero(p, 5)
    unit = PadicNumber.from_rational(3, p, abs_prec=5)
    assert exact.is_zero and exact.is_exact_zero
    assert capped.is_zero and not capped.is_exact_zero
    assert not unit.is_zero and not unit.is_exact_zero
    # a difference of equal values is zero at precision, never exact
    assert (unit - unit).is_zero and not (unit - unit).is_exact_zero


def test_zero_digit_results_raise():
    p = 7
    with pytest.raises(PrecisionError):
        PadicNumber(p, 0, 3, 0)   # nonzero with no known digits
    with pytest.raises(PrecisionError):
        # coercing a nonzero exact value with no finite target
        PadicNumber.from_rational(3, p, abs_prec=INF)


def test_underflow_window():
    p = 7
    a = PadicNumber(p, 5, 1, 2)
    b = PadicNumber(p, 0, 1, 3)
    s = a + b
    assert s.abs_prec == 3 and s.valuation == 0


def test_eq_and_residue():
    p = 7
    a = PadicNumber.from_rational(Fraction(1, 2), p, abs_prec=4)
    assert a == Fraction(1, 2)
    assert a.residue(1) == 4
    with pytest.raises(PrecisionError):
        a.residue(9)
    neg = PadicNumber.from_rational(-1, p, abs_prec=3)
    assert neg.residue(3) == 7 ** 3 - 1


def test_teichmuller_exhaustive_oracle():
    # oracle: the unique x = 3 mod 7 with x^7 = x mod 7^3, by exhaustion
    p, n = 7, 3
    want = [x for x in range(p ** n) if x % p == 3 and pow(x, p, p ** n) == x]
    assert len(want) == 1
    assert teichmuller_int(3, p, n) == want[0]
    # fixed point of frobenius to full precision
    r = teichmuller_int(3, p, 40)
    assert r % p == 3 and pow(r, p, p ** 40) == r


def test_sqrt_squaring_oracle():
    # oracle: exhaustive squares mod 7^5
    p, n = 7, 5
    a = PadicNumber.from_rational(2, p, abs_prec=n)
    r = padic_sqrt(a)
    assert (r * r) == a
    assert 1 <= r.unit % p <= (p - 1) // 2   # canonical branch
    r2 = padic_sqrt(a, branch=4)
    assert r2.unit % p == 4 and (r2 * r2) == a
    brute = [x for x in range(p ** n) if x * x % p ** n == 2]
    assert r.residue(n) in brute and r2.residue(n) in brute


def test_sqrt_rejects_nonresidue_and_odd_val():
    p = 7
    with pytest.raises(InputError):
        padic_sqrt(PadicNumber.from_rational(3, p, abs_prec=4))  # 3 not QR mod 7
    with pytest.raises(InputError):
        padic_sqrt(PadicNumber.from_rational(7, p, abs_prec=4))


def test_sqrt_even_valuation():
    p = 7
    a = PadicNumber.from_rational(2 * 49, p, abs_prec=6)
    r = padic_sqrt(a)
    assert r.valuation == 1 and (r * r) == a


def test_hensel_lift_oracle():
    # root of x^3 - 2 over Z_5? use p=7: x^3 = 6 has root 3 mod 7 (27=6)
    p = 7
    f = [-6 % 7 ** 8, 0, 0, 1]
    r = hensel_lift_root(f, 3, p, 8)
    v = r.residue(8)
    assert (v ** 3 - 6) % 7 ** 8 == 0
    # oracle at small precision by exhaustion
    small = [x for x in range(7 ** 3) if (x ** 3 - 6) % 7 ** 3 == 0 and x % 7 == 3]
    assert v % 7 ** 3 == small[0]


def test_pow_and_shift():
    p = 7
    a = PadicNumber.from_rational(3, p, abs_prec=6)
    assert (a ** 4).residue(6) == pow(3, 4, 7 ** 6)
    assert a.shift(2).valuation == 2
    assert a.shift(-1).valuation == -1


def test_expansion_str_matches_digit_convention():
    p = 7
    a = PadicNumber.from_rational(741, p, abs_prec=4)   # 741 = 6 + 7^2 + 2*7^3
    assert a.expansion_str() == "6 + 1*7^2 + 2*7^3 + O(7^4)"
