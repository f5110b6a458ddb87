"""Capped-precision arithmetic against exact integer oracles."""

import random
from fractions import Fraction

import pytest

from g3chabauty import _kernels as kernels
from g3chabauty.errors import InputError, PrecisionError
from g3chabauty.padic import (INF, PadicNumber, hensel_lift_root, ord_p,
                              teichmuller_point)
from g3chabauty.recognize import rational_reconstruct

from oracles import padic_sqrt, sqrt_mod_pn


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
                assert (got - want).is_zero, (p, qa, qb, exact)


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


def test_only_zero_is_exact():
    # a nonzero value has finitely many known digits; a nonzero rational
    # cannot be added to the exact zero, but times it is the exact zero
    p = 7
    with pytest.raises(PrecisionError):
        PadicNumber(p, 0, 5, INF)
    with pytest.raises(PrecisionError):
        PadicNumber.zero(p) + 3
    with pytest.raises(PrecisionError):
        PadicNumber.zero(p) - Fraction(1, 3)
    assert (PadicNumber.zero(p) * 3).is_exact_zero
    three = PadicNumber.from_rational(3, p, abs_prec=1)
    assert not (PadicNumber.zero(p) - three).is_zero
    assert rational_reconstruct(PadicNumber.zero(p)) == 0
    assert PadicNumber.zero(p).expansion_str() == "0"


def test_zero_keeps_its_stated_precision():
    # zero at abs_prec k is known only mod p^k; with rel_prec, or with no
    # precision, it is the exact zero, so x * 0 stays exact
    p = 7
    zero = PadicNumber.from_rational(0, p, abs_prec=5)
    assert not zero.is_exact_zero
    assert zero.is_zero and zero.abs_prec == 5
    assert zero.expansion_str() == "O(7^5)"
    assert PadicNumber.from_rational(Fraction(0), p,
                                     abs_prec=INF).is_exact_zero
    assert PadicNumber.from_rational(0, p, rel_prec=5).is_exact_zero
    assert PadicNumber.from_rational(0, p).is_exact_zero
    assert (PadicNumber.from_rational(3, p, abs_prec=4) * 0).is_exact_zero


def test_zero_digit_results_raise():
    p = 7
    with pytest.raises(PrecisionError):
        PadicNumber(p, 0, 3, 0)   # nonzero with no known digits
    with pytest.raises(PrecisionError):
        # coercing a nonzero exact value with no finite target
        PadicNumber.from_rational(3, p, abs_prec=INF)
    with pytest.raises(PrecisionError):
        PadicNumber.from_rational(3, p, rel_prec=INF)


def test_underflow_window():
    p = 7
    a = PadicNumber(p, 5, 1, 2)
    b = PadicNumber(p, 0, 1, 3)
    s = a + b
    assert s.abs_prec == 3 and s.valuation == 0


def test_eq_and_residue():
    p = 7
    a = PadicNumber.from_rational(Fraction(1, 2), p, abs_prec=4)
    assert (a - Fraction(1, 2)).is_zero
    assert a.residue(1) == 4
    with pytest.raises(PrecisionError):
        a.residue(9)
    neg = PadicNumber.from_rational(-1, p, abs_prec=3)
    assert neg.residue(3) == 7 ** 3 - 1
    assert PadicNumber.zero(p).residue(3) == 0


def test_equality_is_refused():
    # equality at the lower of two precisions is not transitive, so ==, !=
    # and `in` raise instead of falling back to identity; values compare by
    # (a - b).is_zero
    p = 7
    a = PadicNumber.from_rational(3, p, abs_prec=4)
    b = PadicNumber.from_rational(3, p, abs_prec=2)
    for compare in (lambda: a == a, lambda: a != b, lambda: a == 3,
                    lambda: a in [b]):
        with pytest.raises(TypeError, match="is_zero"):
            compare()
    # containment tries identity before ==, so only another object raises
    assert a in [a]
    assert (a - b).is_zero


def test_teichmuller_point_exhaustive_oracle():
    # oracle: the unique (x, y) = (2, 2) mod 7 on y^2 = x^7 + 2 with
    # x^7 = x mod 7^3, by exhaustion
    p, n = 7, 3
    m = p ** n
    f = [2, 0, 0, 0, 0, 0, 0, 1]
    want = [(x, y) for x in range(2, m, p) for y in range(2, m, p)
            if pow(x, p, m) == x and (y * y - x ** 7 - 2) % m == 0]
    assert [teichmuller_point(f, 2, 2, p, n)] == want
    # the Frobenius-fixed point to full precision, the same mod 7^3
    big = p ** 40
    x, y = teichmuller_point(f, 2, 2, p, 40)
    assert pow(x, p, big) == x and (y * y - x ** 7 - 2) % big == 0
    assert y % p == 2 and (x % m, y % m) == want[0]
    # the mirror residue picks the other root
    assert teichmuller_point(f, 2, p - 2, p, 40) == (x, big - y)
    # f(1) = 3 is no square mod 7, and y = 0 lies under no generic disk
    with pytest.raises(PrecisionError):
        teichmuller_point(f, 1, 1, p, n)
    with pytest.raises(PrecisionError):
        teichmuller_point(f, 5, 0, p, n)


def test_teichmuller_point_matches_the_search_oracle():
    # the oracle iterates x -> x^p until x stops changing, searches the
    # residues for a square root of f(x) and picks the one over ybar;
    # teichmuller_point takes both in closed form
    rng = random.Random(44)
    primes = [7, 11, 13, 29, 53, 101]
    fails = 0
    for _ in range(300):
        p, n = rng.choice(primes), rng.randint(1, 30)
        m = p ** n
        f = [rng.randrange(m) for _ in range(7)] + [1]
        xbar = rng.randrange(p)
        x, prev = xbar, None
        while x != prev:
            x, prev = pow(x, p, m), x
        y = sqrt_mod_pn(kernels.poly_eval_mod(f, x, m), p, n)
        # mostly a residue over the curve, else any
        ybar = rng.randrange(p) if y is None or rng.random() < 0.25 \
            else rng.choice((y, -y)) % p
        if y is None or ybar == 0 or (y * y - ybar * ybar) % p:
            fails += 1
            with pytest.raises(PrecisionError, match="no Teichmuller point"):
                teichmuller_point(f, xbar, ybar, p, n)
            continue
        want = (x, y if (y - ybar) % p == 0 else m - y)
        assert teichmuller_point(f, xbar, ybar, p, n) == want, (p, n, xbar)
    assert 50 < fails < 250


def test_sqrt_squaring_oracle():
    # oracle: exhaustive squares mod 7^5
    p, n = 7, 5
    a = PadicNumber.from_rational(2, p, abs_prec=n)
    r = padic_sqrt(a)
    assert (r * r - a).is_zero
    assert 1 <= r.unit % p <= (p - 1) // 2   # canonical branch
    r2 = padic_sqrt(a, branch=4)
    assert r2.unit % p == 4 and (r2 * r2 - a).is_zero
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
    assert r.valuation == 1 and (r * r - a).is_zero


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
    assert (a * a * a * a).residue(6) == pow(3, 4, 7 ** 6)
    assert a.shift(2).valuation == 2
    assert a.shift(-1).valuation == -1


def test_expansion_str_matches_digit_convention():
    p = 7
    a = PadicNumber.from_rational(741, p, abs_prec=4)   # 741 = 6 + 7^2 + 2*7^3
    assert a.expansion_str() == "6 + 1*7^2 + 2*7^3 + O(7^4)"
