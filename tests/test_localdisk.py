"""Chart expansions, tiny integrals, disk centers and mod-p vanishing
orders."""

import hashlib
from fractions import Fraction

import pytest

from g3chabauty.coleman import ColemanContext
from g3chabauty.curve import CurvePoint, FpPoint
from g3chabauty.errors import InputError
from g3chabauty.localdisk import LocalExpansion, disk_center, form_series
from g3chabauty.padic import INF, PadicNumber, teichmuller_point

from conftest import (CURVE_A_COEFFS, CURVE_B_COEFFS, CURVE_B_SCALING,
                      CURVE_C_COEFFS, make_curve)
from oracles import tiny_integral
from series_oracle import ReferenceSeries, as_reference

PREC = 12


def monic_point(curve, x, y, p, prec=PREC):
    from g3chabauty.curve import RationalPoint
    return curve.padic_point(RationalPoint.affine(Fraction(x), Fraction(y)),
                             p, prec)


def f_at(curve, x):
    acc = PadicNumber.zero(x.prime)
    for c in reversed(curve.F):
        acc = acc * x + PadicNumber.from_rational(c, x.prime, abs_prec=PREC)
    return acc


def assert_on_curve(curve, pt, digits=4):
    lhs = pt.y * pt.y
    rhs = f_at(curve, pt.x)
    diff = lhs - rhs
    assert diff.is_zero and diff.valuation >= digits


def basis_forms(p):
    """The coefficient triples of w0, w1, w2."""
    one = PadicNumber.from_rational(1, p, rel_prec=PREC)
    zero = PadicNumber.zero(p)
    return [tuple(one if j == i else zero for j in range(3)) for i in range(3)]


def center_of(curve, disk, p):
    return disk_center(curve, disk, p, PREC)


# -- charts satisfy the curve equation -----------------------------------


def _chart_params(kind):
    """(curve, p, disk) for every canonical disk of this kind on curves
    A, B and C at each good p in 7, 11, 13."""
    params = []
    for name, curve in (("A", make_curve(CURVE_A_COEFFS)),
                        ("B", make_curve(CURVE_B_COEFFS, CURVE_B_SCALING)),
                        ("C", make_curve(CURVE_C_COEFFS))):
        for p in (7, 11, 13):
            if not curve.is_good_prime(p):
                continue
            for disk in sorted({d.canonical(p) for d in curve.fp_points(p)}):
                if disk.is_infinity:
                    disk_kind, where = "infinity", "inf"
                else:
                    disk_kind = "weierstrass" if disk.y == 0 else "generic"
                    where = "x%d-y%d" % (disk.x, disk.y)
                if disk_kind == kind:
                    params.append(pytest.param(
                        curve, p, disk, id="%s%d-%s" % (name, p, where)))
    return params


def _f_series(curve, x_series, p):
    """F(x(t)) by Horner on the reference series, independent of the
    chart solver."""
    x = as_reference(x_series)
    acc = ReferenceSeries.zero(p, x.t_prec)
    for c in reversed(curve.F):
        acc = acc * x + ReferenceSeries.constant(c, p, x.t_prec, PREC)
    return acc


@pytest.mark.parametrize("curve,p,disk", _chart_params("generic"))
def test_generic_chart_equation(curve, p, disk):
    center = center_of(curve, disk, p)
    exp = LocalExpansion(curve, center, p, PREC)
    assert exp.kind == "generic"
    # the root on the center's branch
    assert exp.y_series[0].residue(1) == center.y.residue(1) == disk.y
    y = as_reference(exp.y_series)
    diff = y * y - _f_series(curve, exp.x_series, p)
    for c in diff.coeffs:
        assert c.is_zero


@pytest.mark.parametrize("curve,p,disk", _chart_params("weierstrass"))
def test_weierstrass_chart_equation(curve, p, disk):
    center = center_of(curve, disk, p)
    exp = LocalExpansion(curve, center, p, PREC)
    assert exp.kind == "weierstrass"
    t = ReferenceSeries.identity(p, exp.t_prec, PREC)
    diff = t * t - _f_series(curve, exp.x_series, p)
    for c in diff.coeffs:
        assert c.is_zero


@pytest.mark.parametrize("curve,p,disk", _chart_params("infinity"))
def test_infinity_chart_equation(curve, p, disk):
    exp = LocalExpansion(curve, center_of(curve, disk, p), p, PREC)
    assert exp.kind == "infinity"
    u = as_reference(exp.u_series)
    upows = [None] * 8
    upows[0] = u.truncate(u.t_prec) * u.invert_unit()   # the constant 1
    for k in range(1, 8):
        upows[k] = upows[k - 1] * u
    g = upows[7] - upows[6]
    for i in range(7):
        if curve.F[i] == 0:
            continue
        ci = PadicNumber.from_rational(curve.F[i], p, abs_prec=PREC)
        g = g + upows[i].shift_t(2 * (7 - i)).scale(ci).truncate(g.t_prec)
    for c in g.coeffs:
        assert c.is_zero or c.valuation >= PREC - 2


# SHA-256 of repr of, for every canonical disk in sorted order, (kind,
# t_prec, the coordinate series, the three basis forms), each series as
# (t_prec, (valuation, unit, rel_prec) per coefficient), at the N of the
# key (18 and 26 are the defaults 2p + 4) and the t_prec N + 4 of
# LocalExpansion.  The first two come from the Newton solver that ran
# every step at full t-precision; the other three were computed before
# the charts moved to integer vectors.  C@11 has a Weierstrass disk over
# x = 0, whose w2 has an O(p^2N) constant term, and B@7 and A@37 at
# N = 10 are the census regime
CHART_DIGESTS = {
    ("curve_a", 7, 18):
        "145533a079fa629ab52dc7458e90408c77dbf9a2291238bad5301f937493066b",
    ("curve_b", 11, 26):
        "4ec1a72d253f083881a1162b1d7575c1ab8a36dc282aa953d3bbee777ccf7aa5",
    ("curve_c", 11, 26):
        "ddbbc15c2f54ad5d8006237bca6a6369d45af1f1686a3c36178d7e08855495bb",
    ("curve_b", 7, 10):
        "e70ecb00d383b3ccf288181d8651d2dec7a7b6235f729d99f584c35dcdb75689",
    ("curve_a", 37, 10):
        "83e16def08a41c4c42071d957fea8d97e56c79ed6a9386b69a2117ad754bfbbe",
}


def _series_data(s):
    return (s.t_prec,
            tuple((c.valuation, c.unit, c.rel_prec) for c in s.coeffs))


def _charts(curve, p, prec):
    """(disk, chart) for every canonical disk of the curve at p, sorted."""
    return [(disk, LocalExpansion(curve, disk_center(curve, disk, p, prec),
                                  p, prec))
            for disk in sorted({d.canonical(p) for d in curve.fp_points(p)})]


def _coordinates(exp):
    """The chart's coordinate series, by attribute name."""
    return {name: getattr(exp, name) for name in
            ("x_series", "y_series", "u_series") if hasattr(exp, name)}


def _chart_id(key):
    curve, p, prec = key
    return "%s-%d" % (curve, p) + ("" if prec == 2 * p + 4 else "-N%d" % prec)


@pytest.mark.parametrize("curve,p,prec", [
    pytest.param(*key, id=_chart_id(key)) for key in sorted(CHART_DIGESTS)])
def test_chart_digits_pinned(curve, p, prec, request):
    charts = [(exp.kind, exp.t_prec,
               tuple(_series_data(s) for s in _coordinates(exp).values()),
               tuple(_series_data(w) for w in exp.differential_series()))
              for _, exp in _charts(request.getfixturevalue(curve), p, prec)]
    digest = hashlib.sha256(repr(charts).encode()).hexdigest()
    assert digest == CHART_DIGESTS[curve, p, prec]


def _structural_zero(kind, name, i):
    """Whether coefficient i of a chart series is an exact zero by the
    chart's shape: x = x(P) + t on a generic chart and y = t on a
    Weierstrass one; the odd coefficients of the even series on a
    Weierstrass or infinity chart; and t^4 | w0, t^2 | w1 at infinity."""
    if kind == "generic":
        return name == "x_series" and i >= 2
    if name == "y_series":
        return i != 1
    return i % 2 == 1 or (kind == "infinity" and
                          i < {"w0": 4, "w1": 2}.get(name, 0))


@pytest.mark.parametrize("curve,p,prec", [
    ("curve_a", 7, 18), ("curve_b", 11, 26), ("curve_c", 11, 26),
    ("curve_a", 7, 10), ("curve_b", 7, 10), ("curve_c", 11, 10),
    ("curve_a", 37, 10)])
def test_chart_precision_structure(curve, p, prec, request):
    """Every chart series has t_prec N + 4; each coefficient is an exact
    zero where the chart's shape makes it one, and is known to exactly N
    digits everywhere else.  The one exception is w2's constant term x(P)^2
    w0(0) on a disk over x = 0, where x(P) = O(p^N) makes it O(p^2N)."""
    for disk, exp in _charts(request.getfixturevalue(curve), p, prec):
        series = dict(_coordinates(exp))
        series.update(zip(("w0", "w1", "w2"), exp.differential_series()))
        for name, s in series.items():
            where = (disk.label(), name)
            assert s.t_prec == prec + 4, where
            for i in range(s.t_prec):
                c = s[i]
                if _structural_zero(exp.kind, name, i):
                    assert c.is_exact_zero, where + (i,)
                    continue
                want = prec
                if name == "w2" and i == 0 and not disk.is_infinity \
                        and disk.x == 0:
                    want = 2 * prec
                assert c.abs_prec == want, where + (i, c.abs_prec)


# -- parameter / point round trips ----------------------------------------


def test_point_roundtrip_generic(curve_a):
    p = 7
    center = monic_point(curve_a, -1, -1, p)
    exp = LocalExpansion(curve_a, center, p, PREC)
    t0 = PadicNumber.from_rational(7, p, abs_prec=PREC)
    q = exp.point_at(t0)
    assert_on_curve(curve_a, q, digits=8)
    t1 = exp.t_of(q)
    assert t1 == t0


def test_point_roundtrip_weierstrass(curve_a):
    p = 7
    center = center_of(curve_a, FpPoint("affine", 5, 0), p)
    assert_on_curve(curve_a, center, digits=10)
    exp = LocalExpansion(curve_a, center, p, PREC)
    t0 = PadicNumber.from_rational(14, p, abs_prec=PREC)
    q = exp.point_at(t0)
    assert_on_curve(curve_a, q, digits=8)
    assert exp.t_of(q) == t0
    # the chart parameter is the y offset
    assert (q.y - center.y) == t0


def test_point_roundtrip_infinity(curve_a):
    p = 7
    exp = LocalExpansion(curve_a, CurvePoint.infinity(), p, PREC)
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
    exp = LocalExpansion(curve_a, center, p, PREC)
    t0 = PadicNumber.from_rational(21, p, abs_prec=PREC)
    q = exp.point_at(t0)
    for series, coord in ((exp.x_series, "x"), (exp.y_series, "y")):
        anti = series.derivative().formal_integral()
        got = anti.evaluate_antiderivative(t0)
        want = (q.x - center.x) if coord == "x" else (q.y - center.y)
        d = got - want
        assert d.is_zero and d.valuation >= 6, coord


def test_ftc_coordinate_functions_weierstrass(curve_a):
    p = 7
    center = center_of(curve_a, FpPoint("affine", 2, 0), p)
    exp = LocalExpansion(curve_a, center, p, PREC)
    t0 = PadicNumber.from_rational(7, p, abs_prec=PREC)
    q = exp.point_at(t0)
    anti = exp.x_series.derivative().formal_integral()
    got = anti.evaluate_antiderivative(t0)
    d = got - (q.x - center.x)
    assert d.is_zero and d.valuation >= 6


# -- tiny integrals ---------------------------------------------------------


def test_tiny_integral_additivity(curve_a):
    p = 7
    P = monic_point(curve_a, -1, -1, p)
    exp = LocalExpansion(curve_a, P, p, PREC)
    Q = exp.point_at(PadicNumber.from_rational(7, p, abs_prec=PREC))
    R = exp.point_at(PadicNumber.from_rational(-14, p, abs_prec=PREC))
    for form in basis_forms(p):
        whole = tiny_integral(curve_a, form, P, R, p, PREC)
        part1 = tiny_integral(curve_a, form, P, Q, p, PREC)
        part2 = tiny_integral(curve_a, form, Q, R, p, PREC)
        d = whole - (part1 + part2)
        assert d.is_zero and d.valuation >= 6


def test_tiny_integral_involution_antisymmetry(curve_a):
    p = 7
    P = monic_point(curve_a, -1, -1, p)
    exp = LocalExpansion(curve_a, P, p, PREC)
    Q = exp.point_at(PadicNumber.from_rational(7, p, abs_prec=PREC))
    for form in basis_forms(p):
        fwd = tiny_integral(curve_a, form, P, Q, p, PREC)
        bwd = tiny_integral(curve_a, form, P.involution(), Q.involution(),
                            p, PREC)
        d = fwd + bwd
        assert d.is_zero and d.valuation >= 6


def test_tiny_integral_reversal(curve_a):
    p = 7
    P = monic_point(curve_a, -1, -1, p)
    exp = LocalExpansion(curve_a, P, p, PREC)
    Q = exp.point_at(PadicNumber.from_rational(7, p, abs_prec=PREC))
    form = basis_forms(p)[2]
    fwd = tiny_integral(curve_a, form, P, Q, p, PREC)
    bwd = tiny_integral(curve_a, form, Q, P, p, PREC)
    d = fwd + bwd
    assert d.is_zero and d.valuation >= 6
    assert not fwd.is_zero


def test_tiny_integral_from_infinity(curve_a):
    p = 7
    exp = LocalExpansion(curve_a, CurvePoint.infinity(), p, PREC)
    Q = exp.point_at(PadicNumber.from_rational(7, p, abs_prec=PREC))
    forms = basis_forms(p)
    v2 = tiny_integral(curve_a, forms[2], CurvePoint.infinity(), Q,
                       p, PREC)
    assert (not v2.is_zero) and v2.valuation == 1
    v0 = tiny_integral(curve_a, forms[0], CurvePoint.infinity(), Q,
                       p, PREC)
    # integrand vanishes to order 4 at infinity, so the value is O(p^5)
    assert v0.is_zero or v0.valuation >= 5


def test_tiny_integral_rejects_disk_mismatch(curve_a):
    p = 7
    P = monic_point(curve_a, -1, -1, p)
    Q = monic_point(curve_a, 1, 5, p)
    assert curve_a.reduce_curve_point(P, p) != curve_a.reduce_curve_point(Q, p)
    with pytest.raises(InputError):
        tiny_integral(curve_a, basis_forms(p)[0], P, Q, p, PREC)


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
    c = center_of(curve_a, disk, p)
    assert_on_curve(curve_a, c, digits=10)
    xr = c.x.residue(PREC)
    assert pow(xr, p, p ** PREC) == xr
    assert curve_a.reduce_curve_point(c, p) == disk
    # the lift at a higher precision, as Frobenius makes it, is the same
    # point to the center's digits
    x_t, y_t = teichmuller_point(curve_a.f_coeffs_mod(p, PREC + 3), 3, 6, p,
                                 PREC + 3)
    assert x_t % p ** PREC == xr and y_t % p ** PREC == c.y.residue(PREC)
    assert pow(x_t, p, p ** (PREC + 3)) == x_t


# -- mod-p vanishing orders -------------------------------------------------


def vanishing_orders(ctx, disk):
    return [w.reduction_order()
            for w in ctx.disk_data(disk).expansion.differential_series()]


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


# -- forms as coefficient triples --------------------------------------------


def test_form_series_skips_exact_zeros_and_rejects_zero_form(curve_a):
    p = 7
    exp = LocalExpansion(curve_a, monic_point(curve_a, -1, -1, p), p, PREC)
    ws = exp.differential_series()
    assert len(ws) == 3
    zero = PadicNumber.zero(p)
    two = PadicNumber.from_rational(2, p, rel_prec=PREC)
    got = form_series((zero, two, zero), ws)
    want = ws[1].scale(two)
    assert got.t_prec == want.t_prec
    assert [(c.valuation, c.unit, c.rel_prec) for c in got.coeffs] == \
        [(c.valuation, c.unit, c.rel_prec) for c in want.coeffs]
    # a zero known only to finite precision still bounds the sum
    blurred = form_series((PadicNumber.zero(p, 3), two, zero), ws)
    assert blurred.coeffs[0].abs_prec == 3
    with pytest.raises(InputError):
        form_series((zero, zero, zero), ws)
