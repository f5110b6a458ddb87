"""Cohomology-side zeta numerators against naive point counting, plus the
pullback identity that ties matrix and primitives together."""

import hashlib
import math

import pytest

from g3chabauty import _kernels as kernels
from g3chabauty.frobenius import (brute_zeta_numerator, frobenius_data,
                                  identity_check, zeta_numerator)
from g3chabauty.jacobian import MumfordDivisorFp
from g3chabauty.padic import sqrt_mod_pn

from test_jacobian import brute_zeta_coeffs


@pytest.fixture(scope="module")
def fd_a7(curve_a):
    return frobenius_data(curve_a, 7, 10)


def test_zeta_matches_brute_curve_a(curve_a):
    assert zeta_numerator(curve_a, 7) == \
        brute_zeta_coeffs(curve_a.f_coeffs_mod(7, 1), 7)


def test_zeta_matches_brute_curve_b(curve_b):
    for p in (7, 11):
        assert zeta_numerator(curve_b, p) == \
            brute_zeta_coeffs(curve_b.f_coeffs_mod(p, 1), p)


def test_zeta_matches_brute_curve_c(curve_c):
    assert zeta_numerator(curve_c, 11) == \
        brute_zeta_coeffs(curve_c.f_coeffs_mod(11, 1), 11)


def test_library_brute_agrees_with_oracle(curve_a):
    assert brute_zeta_numerator(curve_a, 7) == \
        brute_zeta_coeffs(curve_a.f_coeffs_mod(7, 1), 7)


def test_zeta_shape(curve_a, curve_b, curve_c):
    for curve, p in ((curve_a, 7), (curve_b, 7), (curve_c, 11)):
        b = zeta_numerator(curve, p)
        assert b[0] == 1 and b[6] == p ** 3
        assert b[5] == p * p * b[1] and b[4] == p * b[2]
        for i, bi in enumerate(b):
            assert bi * bi <= math.comb(6, i) ** 2 * p ** i


def test_jacobian_order_annihilates(curve_a, fd_a7):
    p = 7
    n = fd_a7.jacobian_order()
    f = curve_a.f_coeffs_mod(p, 1)
    for q in curve_a.fp_points(p)[:8]:
        d = MumfordDivisorFp.from_point(q, p, f)
        assert (n * d).is_identity


# SHA-256 of repr((matrix_ints, pole_prims, deg_prims, zeta)), from the
# per-column pole reduction that preceded the shared Q-adic digits
FROBENIUS_DIGESTS = {
    ("curve_a", 7, 10):
        "dbd7500fdf6bd1f0ebce470fd9ea23ed5e5daa69d5b19f51cc3456499fe23630",
    ("curve_b", 7, 18):
        "ab85177823f2f4d03d05a454133dac01862264c1d241303efbef167ab66df8ca",
    ("curve_c", 11, 26):
        "22e5538754cf3b20eee8e4cb7f1c817aa9e982224ee190eaa7f4d6674ca6fd26",
}


@pytest.mark.parametrize("curve,p,prec", sorted(FROBENIUS_DIGESTS))
def test_frobenius_bookkeeping_pinned(curve, p, prec, request):
    fd = frobenius_data(request.getfixturevalue(curve), p, prec)
    data = (fd.matrix_ints, fd.pole_prims, fd.deg_prims, fd.zeta)
    digest = hashlib.sha256(repr(data).encode()).hexdigest()
    assert digest == FROBENIUS_DIGESTS[curve, p, prec]


def test_matrix_is_integral(fd_a7):
    for row in fd_a7.matrix():
        for entry in row:
            assert entry.is_zero or entry.valuation >= 0


def test_pullback_identity_generic_points(fd_a7):
    # residues with F(x) a nonzero square mod 7: 3 and 4 for this curve
    for xbar in (3, 4):
        digits = identity_check(fd_a7, xbar)
        assert digits >= fd_a7.prec - 4


def test_primitive_dx_finite_difference(curve_a, fd_a7):
    p, K = 7, fd_a7.prec
    m = p ** fd_a7.work_exp
    Q = curve_a.f_coeffs_mod(p, fd_a7.work_exp)
    x0 = 3
    step = p ** 5
    y0 = sqrt_mod_pn(kernels.poly_eval_mod(Q, x0, m), p, fd_a7.work_exp)
    y1 = sqrt_mod_pn(kernels.poly_eval_mod(Q, x0 + step, m), p,
                     fd_a7.work_exp)
    if (y1 - y0) % p ** 5 != 0:
        y1 = m - y1   # match the branch of the disk
    assert (y1 - y0) % p ** 4 == 0
    for col in range(6):
        h0 = fd_a7.primitive_value(col, x0, y0)
        h1 = fd_a7.primitive_value(col, x0 + step, y1)
        deriv = fd_a7.primitive_dx(col, x0, y0)
        diff = (h1 - h0) - deriv * step
        # second-order remainder is O(step^2) = O(p^10), cut by prim scale
        assert diff.is_zero and diff.valuation >= 8


def test_zeta_random_curves_small():
    # a couple of random-ish good models exercised end to end
    from g3chabauty.curve import CurveModel
    samples = [
        [1, 2, 0, 1, 0, 0, 1, 1],
        [3, 0, 1, 0, 2, 1, 0, 1],
    ]
    for coeffs in samples:
        curve = CurveModel(coeffs)
        for p in (7, 11):
            if not curve.is_good_prime(p):
                continue
            assert zeta_numerator(curve, p) == \
                brute_zeta_coeffs(curve.f_coeffs_mod(p, 1), p)
