"""Curve model normalization, reduction, and point search."""

from fractions import Fraction

import pytest

from conftest import CURVE_B_COEFFS, make_curve
from g3chabauty.curve import CurveModel, FpPoint, RationalPoint, eval_exact
from g3chabauty.errors import BadReductionError, InputError


def test_default_normalization_is_monic_integral(curve_a):
    # F_i = g_i * 4^(6-i) for leading coefficient 4
    g = [8, 32, 32, -16, -36, -8, 9, 4]
    want = [Fraction(g[i] * 4 ** (6 - i)) for i in range(7)] + [Fraction(1)]
    assert list(curve_a.F) == want
    assert curve_a.scale_x == Fraction(1, 4)
    assert curve_a.scale_y == Fraction(1, 64)


def test_point_maps_roundtrip(curve_a):
    p = RationalPoint.affine(Fraction(-1), Fraction(-1))
    assert curve_a.is_on_curve_original(p)
    m = curve_a.to_monic(p)
    assert m.x == -4 and m.y == -64
    assert m.y ** 2 == eval_exact(curve_a.F, m.x)
    assert RationalPoint.affine(m.x * curve_a.scale_x,
                                m.y * curve_a.scale_y) == p


def test_explicit_scaling_model(curve_b):
    # v^2 = g7 u^7 with (u, v) = (-4, 256); monic, 7-integral but not Z-integral
    assert curve_b.F[7] == 1
    assert curve_b.F[6] == Fraction(3, 2)
    pt = RationalPoint.affine(Fraction(0), Fraction(1))
    m = curve_b.to_monic(pt)
    back = RationalPoint.affine(m.x * curve_b.scale_x, m.y * curve_b.scale_y)
    assert back == pt and curve_b.is_on_curve_original(back)
    assert m.y ** 2 == eval_exact(curve_b.F, m.x)


def test_bad_scaling_rejected():
    with pytest.raises(InputError):
        make_curve(CURVE_B_COEFFS, scaling=["2", "3"])


def test_fbar_and_fp_points_match_frozen_list(curve_b):
    # reduction mod 7 of the scaled model, frozen from a hand computation
    assert curve_b.f_coeffs_mod(7, 1) == [4, 2, 0, 0, 4, 0, 5, 1]
    labels = {pt.label() for pt in curve_b.fp_points(7)}
    assert labels == {"infinity", "(0,2)", "(0,5)", "(1,4)", "(1,3)",
                      "(2,4)", "(2,3)", "(4,4)", "(4,3)", "(5,2)", "(5,5)"}
    assert curve_b.coleman_bound(7) == 11 + 4


def test_prime_selection(curve_a, curve_b, curve_c):
    assert curve_a.choose_prime() == 7
    assert curve_b.choose_prime() == 7
    assert curve_b.is_good_prime(11)
    assert curve_c.choose_prime() == 11  # 7 divides disc: conductor has a 7
    with pytest.raises(BadReductionError):
        curve_c.check_prime(7)
    with pytest.raises(InputError):
        curve_a.check_prime(8)
    with pytest.raises(InputError):
        curve_a.check_prime(5)


def test_reduce_point_disks(curve_a):
    p = 7
    inf = RationalPoint.infinity()
    assert curve_a.reduce_point(inf, p).is_infinity
    m = curve_a.to_monic(RationalPoint.affine(Fraction(-1), Fraction(-1)))
    d = curve_a.reduce_point(m, p)
    assert d == FpPoint("affine", 3, 6)
    # x with p in the denominator reduces into the infinity disk
    far = RationalPoint.affine(Fraction(1, 7), Fraction(1))
    assert curve_a.reduce_point(far, p).is_infinity


def test_canonical_disk():
    p = 7
    d = FpPoint("affine", 2, 5)
    assert d.canonical(p) == FpPoint("affine", 2, 2)
    assert d.involution(p) == FpPoint("affine", 2, 2)
    w = FpPoint("affine", 3, 0)
    assert w.canonical(p) == w
    assert FpPoint.infinity().canonical(p).is_infinity


def test_weierstrass_points(curve_a, curve_c):
    ws = curve_a.weierstrass_points_qp(7, 8)
    for w in ws:
        v = w["x"].residue(8)
        num = sum(int(curve_a.F[i] * 1) * pow(v, i, 7 ** 8) for i in range(8))
        assert num % 7 ** 8 == 0
        assert not w["rational"]
    # curve_c has the rational Weierstrass point x = 0
    ws_c = curve_c.weierstrass_points_qp(11, 8)
    rats = [w for w in ws_c if w["rational"]]
    assert len(rats) == 1 and rats[0]["x_rational"] == 0


def test_search_rational_points(curve_b, curve_c):
    pts = curve_b.search_rational_points(4)
    got = {p.coord_strings() if p.is_infinity else tuple(p.coord_strings())
           for p in pts}
    assert got == {"infinity", ("0", "-1"), ("0", "1"), ("1", "-1"), ("1", "1")}
    pts_c = curve_c.search_rational_points(2)
    got_c = {p.coord_strings() if p.is_infinity else tuple(p.coord_strings())
             for p in pts_c}
    assert got_c == {"infinity", ("0", "0"), ("1", "-2"), ("1", "2")}


def test_curve_json_roundtrip(curve_b):
    obj = {"coeffs": curve_b.coeff_strings(), "scaling": ["-4", "256"]}
    again = CurveModel.from_json(obj)
    assert again.F == curve_b.F
    with pytest.raises(InputError):
        CurveModel.from_json({"coeffs": ["1", "2"]})
    with pytest.raises(InputError):
        CurveModel.from_json({"coeffs": ["0"] * 7 + ["x"]})


def test_singular_curve_rejected():
    # y^2 = x^7: zero discriminant
    with pytest.raises(InputError):
        make_curve([0, 0, 0, 0, 0, 0, 0, 1])
