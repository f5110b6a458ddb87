"""Coleman integration checks against facts the construction cannot fake.

Torsion classes have vanishing holomorphic integrals, and on a rank-1
Jacobian the integral vectors of any two degree-zero classes are
proportional.  Both facts see the Frobenius matrix, the primitives, the
Teichmuller system solve and the disk charts at full strength.
"""

from fractions import Fraction

import pytest

from g3chabauty.coleman import ColemanContext, padic_linsolve
from g3chabauty.errors import PrecisionError
from g3chabauty.localdisk import (DifferentialForm, LocalExpansion,
                                  curve_point_from_rational, disk_center,
                                  tiny_integral)
from g3chabauty.curve import CurvePoint, RationalPoint
from g3chabauty.padic import INF, PadicNumber, padic_sqrt

PREC_A = 12
PREC_C = 10


@pytest.fixture(scope="module")
def ctx_a7(curve_a):
    return ColemanContext(curve_a, 7, PREC_A)


@pytest.fixture(scope="module")
def ctx_c11(curve_c):
    return ColemanContext(curve_c, 11, PREC_C)


def monic_point(curve, x, y, p, prec):
    pt = curve.to_monic(RationalPoint.affine(Fraction(x), Fraction(y)))
    return curve_point_from_rational(curve, pt, p, prec)


def assert_small(value, digits):
    v = value.valuation
    assert v == INF or v >= digits, value.expansion_str()


def test_torsion_point_integrals_vanish(ctx_a7, curve_a):
    # (0, sqrt(F(0))) generates a torsion class, so its logs are 0.  This
    # exercises tiny integrals in two disks plus the fixed-point system.
    f0 = PadicNumber.from_rational(curve_a.F[0], 7, rel_prec=PREC_A)
    x0 = PadicNumber.from_rational(0, 7)
    for branch in (1, -1):
        y0 = padic_sqrt(f0) if branch == 1 else -padic_sqrt(f0)
        pt = CurvePoint.affine(x0, y0)
        vals = ctx_a7.integral_holomorphic(CurvePoint.infinity(), pt)
        for v in vals:
            assert_small(v, PREC_A - 3)


def test_rank_one_logs_proportional(ctx_a7, curve_a):
    # rank 1 means all integral vectors of rational classes sit on one line
    p1 = monic_point(curve_a, -1, -1, 7, PREC_A)
    p2 = monic_point(curve_a, 1, 5, 7, PREC_A)
    inf = CurvePoint.infinity()
    v1 = ctx_a7.integral_holomorphic(inf, p1)
    v2 = ctx_a7.integral_holomorphic(inf, p2)
    assert any(not v.is_zero for v in v1)
    for i in range(3):
        for j in range(i + 1, 3):
            assert_small(v1[i] * v2[j] - v1[j] * v2[i], PREC_A - 4)


def test_rank_one_logs_proportional_second_curve(ctx_c11, curve_c):
    # one endpoint at a rational Weierstrass point, one generic pair
    w = monic_point(curve_c, 0, 0, 11, PREC_C)
    q = monic_point(curve_c, 1, 2, 11, PREC_C)
    v1 = ctx_c11.integral_holomorphic(CurvePoint.infinity(), q)
    v2 = ctx_c11.integral_holomorphic(w, q)
    assert any(not v.is_zero for v in v1)
    for i in range(3):
        for j in range(i + 1, 3):
            assert_small(v1[i] * v2[j] - v1[j] * v2[i], PREC_C - 4)


def test_same_disk_agrees_with_direct_expansion(ctx_a7, curve_a):
    # inside one disk the context must reproduce the plain termwise integral
    # computed in a chart centered at the start point itself
    p1 = monic_point(curve_a, -1, -1, 7, PREC_A)
    chart = LocalExpansion(curve_a, p1, 7, PREC_A + 4, PREC_A)
    p2 = chart.point_at(PadicNumber.from_rational(21, 7, abs_prec=PREC_A))
    vals = ctx_a7.integral_holomorphic(p1, p2)
    for i in range(3):
        form = DifferentialForm.basis(i, 7, PREC_A)
        direct = tiny_integral(curve_a, form, p1, p2, 7, PREC_A + 4, PREC_A)
        assert_small(vals[i] - direct, PREC_A - 3)


def test_reversal_and_identity(ctx_a7, curve_a):
    p1 = monic_point(curve_a, -1, 1, 7, PREC_A)
    p2 = monic_point(curve_a, 1, -5, 7, PREC_A)
    fwd = ctx_a7.integral_holomorphic(p1, p2)
    bwd = ctx_a7.integral_holomorphic(p2, p1)
    for a, b in zip(fwd, bwd):
        assert_small(a + b, PREC_A - 2)
    for v in ctx_a7.integral_holomorphic(p1, p1):
        assert_small(v, PREC_A - 2)


def test_precision_stability(ctx_a7, curve_a):
    lo = 8
    vals_lo = ColemanContext(curve_a, 7, lo).integral_holomorphic(
        CurvePoint.infinity(), monic_point(curve_a, 1, 5, 7, lo))
    vals_hi = ctx_a7.integral_holomorphic(
        CurvePoint.infinity(), monic_point(curve_a, 1, 5, 7, PREC_A))
    for a, b in zip(vals_lo, vals_hi):
        assert_small(a - b, lo - 2)


def test_integrate_form_combines_basis(ctx_a7, curve_a):
    # a combined form, integrated termwise in one chart, matches the same
    # combination of the context's basis integrals
    p1 = monic_point(curve_a, -1, -1, 7, PREC_A)
    chart = LocalExpansion(curve_a, p1, 7, PREC_A + 4, PREC_A)
    p2 = chart.point_at(PadicNumber.from_rational(14, 7, abs_prec=PREC_A))
    coeffs = tuple(PadicNumber.from_rational(c, 7, abs_prec=PREC_A)
                   for c in (3, -2, 5))
    whole = tiny_integral(curve_a, DifferentialForm(*coeffs), p1, p2,
                          7, PREC_A + 4, PREC_A)
    parts = ctx_a7.integral_holomorphic(p1, p2)
    manual = coeffs[0] * parts[0] + coeffs[1] * parts[1] + coeffs[2] * parts[2]
    assert not whole.is_zero
    assert_small(whole - manual, PREC_A - 2)


@pytest.mark.parametrize("ctx_name", ["ctx_a7", "ctx_c11"])
def test_mirror_primitive_is_negated_accumulator(ctx_name, request):
    # _build_disk takes h_i at (x_t, m - y_t) as the wrapped -acc mod m
    ctx = request.getfixturevalue(ctx_name)
    fd, p = ctx.fd, ctx.p
    m = p ** fd.work_exp
    disks = sorted({d.canonical(p) for d in ctx.curve.fp_points(p)})
    generic = 0
    for disk in disks:
        _, residues = disk_center(ctx.curve, disk, p, ctx.prec, fd.work_exp)
        if residues is None:
            continue
        generic += 1
        x_t, y_t = residues
        for i in range(6):
            acc = fd._primitive_acc(i, x_t, y_t)
            assert -acc % m == fd._primitive_acc(i, x_t, m - y_t)
            mirror = fd._wrap_scaled(-acc % m)
            direct = fd.primitive_value(i, x_t, m - y_t)
            assert (mirror.valuation, mirror.unit, mirror.rel_prec) == \
                (direct.valuation, direct.unit, direct.rel_prec)
    assert generic >= 2


def test_linsolve_pivoting():
    p = 7

    def num(x):
        return PadicNumber.from_rational(Fraction(x), p, rel_prec=10)

    # leading entry divisible by p: naive elimination would shed digits
    rows = [[num(7), num(1)], [num(1), num(1)]]
    rhs = [num(8), num(2)]
    sol = padic_linsolve(rows, rhs)
    assert_small(sol[0] - num(1), 9)
    assert_small(sol[1] - num(1), 9)
    with pytest.raises(PrecisionError):
        padic_linsolve([[num(7), num(7)], [num(7), num(7)]],
                       [num(1), num(1)])
