"""Power series ring operations against exact Fraction oracles."""

import random
from fractions import Fraction

import pytest

from g3chabauty.errors import InputError, PrecisionError
from g3chabauty.padic import PadicNumber, ord_p
from g3chabauty.series import (PadicPowerSeries, evaluate_polynomial,
                               min_tail_valuation, sqrt_series)

P = 7
PREC = 12


def S(fracs, t_prec=10):
    return PadicPowerSeries(P, [Fraction(c) for c in fracs], t_prec,
                            coeff_prec=PREC)


def test_mul_convolution_oracle():
    rng = random.Random(3)
    for _ in range(40):
        a = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 6))]
        b = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 6))]
        sa, sb = S(a), S(b)
        prod = sa * sb
        # exact convolution
        want = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                want[i + j] += ai * bj
        for k in range(min(len(want), prod.t_prec)):
            assert prod[k] == want[k]


def test_geometric_series_inverse():
    one_minus_t = S([1, -1])
    inv = one_minus_t.invert_unit()
    for k in range(10):
        assert inv[k] == 1
    assert (one_minus_t * inv)[0] == 1
    for k in range(1, 10):
        assert (one_minus_t * inv)[k] == 0


def test_invert_needs_unit():
    with pytest.raises(InputError):
        S([0, 1]).invert_unit()


def test_sqrt_series_squares_back():
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [Fraction(rng.randint(1, 30)) for _ in range(6)]
        coeffs[0] = Fraction(2)  # QR mod 7
        s = S(coeffs, t_prec=8)
        r = sqrt_series(s)
        sq = r * r
        for k in range(8):
            assert sq[k] == s[k], k


def test_sqrt_series_branch():
    s = S([2, 1], t_prec=6)
    r = sqrt_series(s, branch=4)
    assert r[0].unit % P == 4


def test_formal_integral_tracks_loss():
    # integral of t^6: coefficient t^7/7 loses one digit of absolute precision
    s = S([0, 0, 0, 0, 0, 0, 1], t_prec=8)
    F = s.formal_integral()
    c7 = F[7]
    assert c7.valuation == -1
    assert c7.abs_prec == PREC - 1
    assert F[0].is_zero


def test_derivative_and_integral_inverse():
    s = S([3, 1, 4, 1, 5], t_prec=6)
    assert all((s.formal_integral().derivative())[k] == s[k] for k in range(5))


def test_evaluate_integral_series_tail_bound():
    # f(t) = sum t^i truncated at t^5, evaluated at t0 = 7: tail O(7^5)
    s = S([1, 1, 1, 1, 1], t_prec=5)
    t0 = PadicNumber.from_rational(P, P, abs_prec=PREC)
    v = s.evaluate(t0)
    exact = sum(Fraction(P) ** i for i in range(5))
    assert v.abs_prec == 5
    assert v == PadicNumber.from_rational(exact, P, abs_prec=5)


def test_evaluate_requires_disk():
    s = S([1, 1])
    with pytest.raises(InputError):
        s.evaluate(PadicNumber.from_rational(3, P, abs_prec=5))


def test_evaluate_non_integral_needs_bound():
    s = PadicPowerSeries(P, [Fraction(1, P)], 4, coeff_prec=6)
    t0 = PadicNumber.from_rational(P, P, abs_prec=6)
    with pytest.raises(PrecisionError):
        s.evaluate(t0)
    v = s.evaluate(t0, tail_bound=3)
    assert v.abs_prec == 3


def test_reduction_order():
    s = PadicPowerSeries(P, [Fraction(P), Fraction(2 * P), Fraction(3)], 6,
                         coeff_prec=8)
    assert s.reduction_order() == 2
    z = PadicPowerSeries(P, [Fraction(P), Fraction(P * 5)], 6, coeff_prec=8)
    assert z.reduction_order() is None


def test_min_tail_valuation_brute():
    for start in (5, 14, 18, 22):
        for w in (1, 2, 3):
            got = min_tail_valuation(start, w, P)
            brute = min(i * w - ord_p(i, P) for i in range(start, start + 3000))
            assert got == brute
    assert min_tail_valuation(9, 2, P) == 18


def test_evaluate_polynomial_horner():
    x = PadicNumber.from_rational(3, P, abs_prec=8)
    v = evaluate_polynomial([1, 2, 1], x)     # (1+x)^2 = 16
    assert v == 16


def test_scale_and_shift_t():
    s = S([1, 2, 3], t_prec=5)
    two = PadicNumber.from_rational(2, P, rel_prec=PREC)
    assert (s.scale(two))[1] == 4
    sh = s.shift_t(2)
    assert sh[0].is_zero and sh[2] == 1 and sh.t_prec == 7


def test_mul_gains_t_precision_from_exact_zero_factor():
    # multiplying O(t^4) data by an exactly-known t^2 shifts the unknown tail
    s = S([1, 1], t_prec=4)
    t2 = S([0, 0, 1], t_prec=6)
    prod = s * t2
    assert prod.t_prec == 6
    assert prod[2] == 1 and prod[3] == 1
