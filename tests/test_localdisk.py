"""Chart expansions, tiny integrals, disk centers and mod-p vanishing
orders."""

from fractions import Fraction

import pytest

from g3chabauty.coleman import ColemanContext
from g3chabauty.curve import CurvePoint, FpPoint
from g3chabauty.errors import InputError
from g3chabauty.localdisk import (DifferentialForm, LocalExpansion,
                                  curve_point_from_rational, disk_center,
                                  tiny_integral)
from g3chabauty.padic import INF, PadicNumber
from g3chabauty.series import evaluate_polynomial

PREC = 12
TPREC = 14


def monic_point(curve, x, y, p, prec=PREC):
    from g3chabauty.curve import RationalPoint
    pt = curve.to_monic(RationalPoint.affine(Fraction(x), Fraction(y)))
    return curve_point_from_rational(curve, pt, p, prec)


def f_at(curve, x):
    coeffs = [PadicNumber.from_rational(c, x.prime, abs_prec=PREC)
              for c in curve.F]
    return evaluate_polynomial(coeffs, x)


def assert_on_curve(curve, pt, digits=4):
    lhs = pt.y * pt.y
    rhs = f_at(curve, pt.x)
    diff = lhs - rhs
    assert diff.is_zero and diff.valuation >= digits


def basis_forms(p):
    return [DifferentialForm.basis(i, p, PREC) for i in range(3)]


def center_of(curve, disk, p):
    return disk_center(curve, disk, p, PREC, PREC)[0]


# -- charts satisfy the curve equation -----------------------------------


def test_generic_chart_equation(curve_a):
    p = 7
    center = monic_point(curve_a, -1, -1, p)   # monic (-4, -64)
    exp = LocalExpansion(curve_a, center, p, TPREC, PREC)
    assert exp.kind == "generic"
    diff = exp.y_series * exp.y_series - _f_series(curve_a, exp.x_series, p)
    for c in diff.coeffs:
        assert c.is_zero


def test_weierstrass_chart_equation(curve_a):
    p = 7
    center = center_of(curve_a, FpPoint("affine", 2, 0), p)
    exp = LocalExpansion(curve_a, center, p, TPREC, PREC)
    assert exp.kind == "weierstrass"
    y = exp.center.y + _t_series(p)
    diff = y * y - _f_series(curve_a, exp.x_series, p)
    for c in diff.coeffs:
        assert c.is_zero


def test_infinity_chart_equation(curve_a):
    p = 7
    exp = LocalExpansion(curve_a, CurvePoint.infinity(), p, TPREC, PREC)
    assert exp.kind == "infinity"
    u = exp.u_series
    upows = [None] * 8
    upows[0] = u.truncate(u.t_prec) * u.invert_unit()   # the constant 1
    for k in range(1, 8):
        upows[k] = upows[k - 1] * u
    g = upows[7] - upows[6]
    for i in range(7):
        if curve_a.F[i] == 0:
            continue
        ci = PadicNumber.from_rational(curve_a.F[i], p, abs_prec=PREC)
        g = g + upows[i].shift_t(2 * (7 - i)).scale(ci).truncate(g.t_prec)
    for c in g.coeffs:
        assert c.is_zero or c.valuation >= PREC - 2


def _f_series(curve, x_series, p):
    from g3chabauty.localdisk import _poly_on_series
    return _poly_on_series(curve.F, x_series, p, PREC)


def _t_series(p):
    from g3chabauty.series import PadicPowerSeries
    return PadicPowerSeries.identity(p, TPREC, PREC)


# -- parameter / point round trips ----------------------------------------


def test_point_roundtrip_generic(curve_a):
    p = 7
    center = monic_point(curve_a, -1, -1, p)
    exp = LocalExpansion(curve_a, center, p, TPREC, PREC)
    t0 = PadicNumber.from_rational(7, p, abs_prec=PREC)
    q = exp.point_at(t0)
    assert_on_curve(curve_a, q, digits=8)
    t1 = exp.t_of(q)
    assert t1 == t0


def test_point_roundtrip_weierstrass(curve_a):
    p = 7
    center = center_of(curve_a, FpPoint("affine", 5, 0), p)
    assert_on_curve(curve_a, center, digits=10)
    exp = LocalExpansion(curve_a, center, p, TPREC, PREC)
    t0 = PadicNumber.from_rational(14, p, abs_prec=PREC)
    q = exp.point_at(t0)
    assert_on_curve(curve_a, q, digits=8)
    assert exp.t_of(q) == t0
    # the chart parameter is the y offset
    assert (q.y - center.y) == t0


def test_point_roundtrip_infinity(curve_a):
    p = 7
    exp = LocalExpansion(curve_a, CurvePoint.infinity(), p, TPREC, PREC)
    t0 = PadicNumber.from_rational(7, p, abs_prec=PREC)
    q = exp.point_at(t0)
    assert not q.is_infinity
    assert q.x.valuation == -2 and q.y.valuation == -7
    # y^2 has valuation -14, so the certified agreement sits below 0
    assert_on_curve(curve_a, q, digits=-3)
    assert exp.t_of(q) == t0
    # t(infinity) = 0 exactly
    z = exp.t_of(CurvePoint.infinity())
    assert z.is_zero and z.valuation == INF
    assert exp.point_at(z).is_infinity


# -- fundamental theorem of calculus on exact differentials ----------------


def test_ftc_coordinate_functions_generic(curve_a):
    p = 7
    center = monic_point(curve_a, -1, -1, p)
    exp = LocalExpansion(curve_a, center, p, TPREC, PREC)
    t0 = PadicNumber.from_rational(21, p, abs_prec=PREC)
    q = exp.point_at(t0)
    for series, coord in ((exp.x_series, "x"), (exp.y_series, "y")):
        anti = series.derivative().formal_integral()
        got = exp.evaluate_antiderivative(anti, t0)
        want = (q.x - center.x) if coord == "x" else (q.y - center.y)
        d = got - want
        assert d.is_zero and d.valuation >= 6, coord


def test_ftc_coordinate_functions_weierstrass(curve_a):
    p = 7
    center = center_of(curve_a, FpPoint("affine", 2, 0), p)
    exp = LocalExpansion(curve_a, center, p, TPREC, PREC)
    t0 = PadicNumber.from_rational(7, p, abs_prec=PREC)
    q = exp.point_at(t0)
    anti = exp.x_series.derivative().formal_integral()
    got = exp.evaluate_antiderivative(anti, t0)
    d = got - (q.x - center.x)
    assert d.is_zero and d.valuation >= 6


# -- tiny integrals ---------------------------------------------------------


def test_tiny_integral_additivity(curve_a):
    p = 7
    P = monic_point(curve_a, -1, -1, p)
    exp = LocalExpansion(curve_a, P, p, TPREC, PREC)
    Q = exp.point_at(PadicNumber.from_rational(7, p, abs_prec=PREC))
    R = exp.point_at(PadicNumber.from_rational(-14, p, abs_prec=PREC))
    for form in basis_forms(p):
        whole = tiny_integral(curve_a, form, P, R, p, TPREC, PREC)
        part1 = tiny_integral(curve_a, form, P, Q, p, TPREC, PREC)
        part2 = tiny_integral(curve_a, form, Q, R, p, TPREC, PREC)
        d = whole - (part1 + part2)
        assert d.is_zero and d.valuation >= 6


def test_tiny_integral_involution_antisymmetry(curve_a):
    p = 7
    P = monic_point(curve_a, -1, -1, p)
    exp = LocalExpansion(curve_a, P, p, TPREC, PREC)
    Q = exp.point_at(PadicNumber.from_rational(7, p, abs_prec=PREC))
    for form in basis_forms(p):
        fwd = tiny_integral(curve_a, form, P, Q, p, TPREC, PREC)
        bwd = tiny_integral(curve_a, form, P.involution(), Q.involution(),
                            p, TPREC, PREC)
        d = fwd + bwd
        assert d.is_zero and d.valuation >= 6


def test_tiny_integral_reversal(curve_a):
    p = 7
    P = monic_point(curve_a, -1, -1, p)
    exp = LocalExpansion(curve_a, P, p, TPREC, PREC)
    Q = exp.point_at(PadicNumber.from_rational(7, p, abs_prec=PREC))
    form = basis_forms(p)[2]
    fwd = tiny_integral(curve_a, form, P, Q, p, TPREC, PREC)
    bwd = tiny_integral(curve_a, form, Q, P, p, TPREC, PREC)
    d = fwd + bwd
    assert d.is_zero and d.valuation >= 6
    assert not fwd.is_zero


def test_tiny_integral_from_infinity(curve_a):
    p = 7
    exp = LocalExpansion(curve_a, CurvePoint.infinity(), p, TPREC, PREC)
    Q = exp.point_at(PadicNumber.from_rational(7, p, abs_prec=PREC))
    forms = basis_forms(p)
    v2 = tiny_integral(curve_a, forms[2], CurvePoint.infinity(), Q,
                       p, TPREC, PREC)
    assert (not v2.is_zero) and v2.valuation == 1
    v0 = tiny_integral(curve_a, forms[0], CurvePoint.infinity(), Q,
                       p, TPREC, PREC)
    # integrand vanishes to order 4 at infinity, so the value is O(p^5)
    assert v0.is_zero or v0.valuation >= 5


def test_tiny_integral_rejects_disk_mismatch(curve_a):
    p = 7
    P = monic_point(curve_a, -1, -1, p)
    Q = monic_point(curve_a, 1, 5, p)
    assert curve_a.reduce_curve_point(P, p) != curve_a.reduce_curve_point(Q, p)
    with pytest.raises(InputError):
        tiny_integral(curve_a, basis_forms(p)[0], P, Q, p, TPREC, PREC)


# -- centers ----------------------------------------------------------------


def test_simple_disk_centers_lie_on_curve(curve_a):
    p = 7
    for disk in curve_a.fp_points(p):
        c = center_of(curve_a, disk, p)
        if disk.is_infinity:
            assert c.is_infinity
            continue
        assert_on_curve(curve_a, c, digits=10)
        assert curve_a.reduce_curve_point(c, p) == disk


def test_teichmuller_center_is_frobenius_fixed(curve_a):
    p = 7
    disk = FpPoint("affine", 3, 6)
    c, (x_t, y_t) = disk_center(curve_a, disk, p, PREC, PREC + 3)
    assert_on_curve(curve_a, c, digits=10)
    xr = c.x.residue(PREC)
    assert pow(xr, p, p ** PREC) == xr
    assert curve_a.reduce_curve_point(c, p) == disk
    # the integer residues carry the same point to the work precision
    assert x_t % p ** PREC == xr and y_t % p ** PREC == c.y.residue(PREC)
    assert pow(x_t, p, p ** (PREC + 3)) == x_t


# -- mod-p vanishing orders -------------------------------------------------


def vanishing_orders(ctx, disk):
    return [w.reduction_order() for w in ctx.disk_data(disk)[0].forms]


def test_vanishing_orders_frozen(curve_a):
    ctx = ColemanContext(curve_a, 7, PREC)
    assert vanishing_orders(ctx, FpPoint.infinity()) == [4, 2, 0]
    assert vanishing_orders(ctx, FpPoint("affine", 3, 6)) == [0, 0, 0]
    assert vanishing_orders(ctx, FpPoint("affine", 0, 1)) == [0, 1, 2]
    assert vanishing_orders(ctx, FpPoint("affine", 2, 0)) == [0, 0, 0]


def test_vanishing_orders_weierstrass_x_zero(curve_c):
    # x = 0 is a root of F for this curve, so w1, w2 pick up extra zeros
    ctx = ColemanContext(curve_c, 11, PREC)
    assert vanishing_orders(ctx, FpPoint("affine", 0, 0)) == [0, 2, 4]
