"""Root isolation checked against planted factorizations.

Test series are built as prod_i (t - r_i) * (1 + p w(t)).  The second
factor is a unit at every point of the open disk, so the zero set is
exactly the planted list and the solver has no wiggle room.
"""

import random
from fractions import Fraction

import pytest

from g3chabauty.errors import InputError, PrecisionError
from g3chabauty.padic import PadicNumber
from g3chabauty.series import (PadicPowerSeries, series_roots_in_disk,
                               truncation_order)

PREC = 9


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rational_series(p, coeffs, t_prec, prec):
    """The series of the rationals coeffs, each known to prec digits."""
    return PadicPowerSeries(
        p, [PadicNumber.from_rational(c, p, abs_prec=prec) for c in coeffs],
        t_prec)


def planted_series(p, roots, wcoeffs, prec, t_prec=48):
    poly = [1]
    for r in roots:
        poly = poly_mul(poly, [-r, 1])
    poly = poly_mul(poly, [1] + [p * c for c in wcoeffs])
    return rational_series(p, poly, t_prec, prec)


def contains(root, value, p):
    probe = PadicNumber.from_rational(value, p, abs_prec=root.abs_prec)
    return (root - probe).is_zero


def test_truncation_order_frozen_values():
    assert truncation_order(18, 7) == 18
    assert truncation_order(21, 7) == 22
    assert truncation_order(10, 11) == 10
    assert truncation_order(11, 11) == 12
    assert truncation_order(12, 13) == 12
    assert truncation_order(13, 13) == 14


@pytest.mark.parametrize("p", [7, 11, 13])
def test_planted_roots_random(p):
    rng = random.Random(p)
    for trial in range(100):
        nroots = rng.randrange(4)
        ks = []
        while len(ks) < nroots:
            k = rng.randint(-p ** 3, p ** 3)
            if all(k % p != other % p for other in ks):
                ks.append(k)
        roots = [p * k for k in ks]
        wcoeffs = [rng.randint(-5, 5) for _ in range(3)]
        series = planted_series(p, roots, wcoeffs, PREC)
        found = series_roots_in_disk(series, PREC)
        assert len(found) == len(roots)
        for r in roots:
            assert sum(contains(f, r, p) for f in found) == 1
        if p == 7:
            # raw scan: reported cosets must evaluate to 0 mod p^4
            poly = [1]
            for r in roots:
                poly = poly_mul(poly, [-r, 1])
            poly = poly_mul(poly, [1] + [p * c for c in wcoeffs])
            m4 = p ** 4
            for f in found:
                rep = 0 if f.is_zero else f.unit * p ** f.valuation
                acc = 0
                for c in reversed(poly):
                    acc = (acc * rep + c) % m4
                assert acc == 0


def test_close_pair_separated():
    p = 7
    r1, r2 = p, p + p ** 4
    series = planted_series(p, [r1, r2], [1], 14)
    found = series_roots_in_disk(series, 14)
    assert len(found) == 2
    hits = {r1: 0, r2: 0}
    for f in found:
        for r in hits:
            hits[r] += contains(f, r, p)
    assert hits == {r1: 1, r2: 1}


def test_double_root_raises():
    p = 7
    series = planted_series(p, [p, p], [1], 10)
    with pytest.raises(PrecisionError):
        series_roots_in_disk(series, 10)


def test_zero_like_series_raises():
    p = 7
    fuzzy = PadicPowerSeries(p, [PadicNumber.zero(p, 4)] * 3, 30)
    with pytest.raises(PrecisionError, match="indistinguishable from zero"):
        series_roots_in_disk(fuzzy, PREC)
    with pytest.raises(PrecisionError, match="indistinguishable from zero"):
        series_roots_in_disk(PadicPowerSeries(p, [], 30), PREC)


def test_non_integral_series_rejected():
    p = 7
    bad = rational_series(p, [Fraction(0), Fraction(1, p * p)], 30, PREC)
    with pytest.raises(InputError):
        series_roots_in_disk(bad, PREC)


def test_short_series_rejected():
    p = 7
    series = planted_series(p, [p], [1], PREC, t_prec=5)
    with pytest.raises(PrecisionError):
        series_roots_in_disk(series, PREC)


def test_root_at_zero():
    p = 7
    series = planted_series(p, [0], [2], PREC)
    found = series_roots_in_disk(series, PREC)
    assert len(found) == 1
    assert found[0].is_zero and found[0].valuation >= 8


def test_antiderivative_shaped_coefficients():
    # truncated log(1+t): coefficient denominators realize the worst-case
    # tail model and the only zero on the disk is t = 0
    p = 7
    coeffs = [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, 40)]
    series = rational_series(p, coeffs, 40, PREC)
    found = series_roots_in_disk(series, PREC)
    assert len(found) == 1 and found[0].is_zero
