"""Coleman integration checks against facts the construction cannot fake.

Torsion classes have vanishing holomorphic integrals, and on a rank-1
Jacobian the integral vectors of any two degree-zero classes are
proportional.  Both facts see the Frobenius matrix, the primitives, the
Teichmuller system solve and the disk charts at full strength.
"""

from fractions import Fraction

import pytest

from g3chabauty import coleman
from g3chabauty.coleman import ColemanContext, padic_linsolve
from g3chabauty.frobenius import frobenius_data
from g3chabauty.localdisk import LocalExpansion
from g3chabauty.curve import CurvePoint, RationalPoint
from g3chabauty.padic import INF, PadicNumber, ord_p, teichmuller_point

from oracles import padic_sqrt, tiny_integral
from test_frobenius import _primitive_acc_full, _spy_reduction

PREC_A = 12
PREC_C = 10


@pytest.fixture(scope="module")
def ctx_a7(curve_a):
    return ColemanContext(curve_a, 7, PREC_A)


@pytest.fixture(scope="module")
def ctx_c11(curve_c):
    return ColemanContext(curve_c, 11, PREC_C)


def monic_point(curve, x, y, p, prec):
    return curve.padic_point(RationalPoint.affine(Fraction(x), Fraction(y)),
                             p, prec)


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
    chart = LocalExpansion(curve_a, p1, 7, PREC_A)
    p2 = chart.point_at(PadicNumber.from_rational(21, 7, abs_prec=PREC_A))
    vals = ctx_a7.integral_holomorphic(p1, p2)
    one = PadicNumber.from_rational(1, 7, rel_prec=PREC_A)
    zero = PadicNumber.zero(7)
    for i in range(3):
        coeffs = tuple(one if j == i else zero for j in range(3))
        direct = tiny_integral(curve_a, coeffs, p1, p2, 7, PREC_A)
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
    chart = LocalExpansion(curve_a, p1, 7, PREC_A)
    p2 = chart.point_at(PadicNumber.from_rational(14, 7, abs_prec=PREC_A))
    coeffs = tuple(PadicNumber.from_rational(c, 7, abs_prec=PREC_A)
                   for c in (3, -2, 5))
    whole = tiny_integral(curve_a, coeffs, p1, p2, 7, PREC_A)
    parts = ctx_a7.integral_holomorphic(p1, p2)
    manual = coeffs[0] * parts[0] + coeffs[1] * parts[1] + coeffs[2] * parts[2]
    assert not whole.is_zero
    assert_small(whole - manual, PREC_A - 2)


@pytest.mark.parametrize("ctx_name", ["ctx_a7", "ctx_c11"])
def test_mirror_primitive_is_negated_accumulator(ctx_name, request,
                                                 monkeypatch):
    # h_i is odd in y: at (x_t, m - y_t) it is -acc mod m, so
    # ColemanContext.halfint reads the mirror disk as the canonical one's
    # values, negated.  That oddness, h(P) - h(iota P) = 2 h(P), is what
    # lets _build_disk solve for a generic disk's constant from h(P) alone
    ctx = request.getfixturevalue(ctx_name)
    fd, p = ctx.fd, ctx.p
    m = p ** fd.work_exp
    with monkeypatch.context() as patch:
        columns, _ = _spy_reduction(patch)
        assert frobenius_data(ctx.curve, p, ctx.prec) == fd
    assert len(columns) == 6
    disks = sorted({d.canonical(p) for d in ctx.curve.fp_points(p)})
    generic = 0
    for disk in disks:
        if disk.is_infinity or disk.y == 0:
            continue
        generic += 1
        x_t, y_t = teichmuller_point(ctx.curve.f_coeffs_mod(p, fd.work_exp),
                                     disk.x, disk.y, p, fd.work_exp)
        for i, terms in enumerate(columns):
            acc = fd.teich_prims[disk][i]
            assert acc == _primitive_acc_full(fd, terms, x_t, y_t)
            assert -acc % m == _primitive_acc_full(fd, terms, x_t, m - y_t)
    assert generic >= 2


# each curve at p and N = 2p + 4, with the digits its disk constants keep:
# N - v_p(#J(F_p)), as #J(F_p) = 480, 1536 and 343 = 7^3
SOLVE_CASES = {"ctx_a7": ("curve_a", 7, 18), "ctx_c11": ("curve_c", 11, 26),
               "anomalous": ("curve_anomalous", 7, 15)}


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_disk_constant_solves_the_frobenius_system(name, request,
                                                   monkeypatch):
    """Every generic disk's constant v solves (I - M^T) v = h(P): on the
    integers matrix_ints and p^C h(P) from the per-term oracle on the
    terms the reduction made, sum_j (delta_ij - M_ji) v_j
    - h_i(P) vanishes mod p^abs_prec(v), in all six rows.  The solve keeps
    only v_0, v_1, v_2, the constants of the basis forms w0, w1, w2 and of
    the disk's half-integral series; v_3, v_4, v_5 come from the whole of
    fd.adjugate here.  The Cramer solve loses exactly v_p(#J(F_p)) of the
    N digits."""
    curve_name, p, keep = SOLVE_CASES[name]
    with monkeypatch.context() as patch:
        columns, _ = _spy_reduction(patch)
        ctx = ColemanContext(request.getfixturevalue(curve_name), p,
                             2 * p + 4)
    assert len(columns) == 6
    fd = ctx.fd
    full_adj = [[PadicNumber.from_rational(v, p, abs_prec=fd.prec) if v
                 else PadicNumber.zero(p, fd.prec) for v in row]
                for row in fd.adjugate]
    solutions = []

    def spy(*args):
        solutions.append(padic_linsolve(*args))
        return solutions[-1]
    monkeypatch.setattr(coleman, "padic_linsolve", spy)

    def value(c):
        if c.is_zero:
            return Fraction(0)
        return c.unit * Fraction(p) ** c.valuation
    generic = 0
    for disk in sorted({d.canonical(p) for d in ctx.curve.fp_points(p)}):
        if disk.is_infinity or disk.y == 0:
            continue
        generic += 1
        data = ctx.disk_data(disk)
        solved = solutions[-1]
        v = padic_linsolve(full_adj, fd.jacobian_order(),
                           fd.primitives_at(disk))
        assert len(solved) == 3
        assert [c.abs_prec for c in v] == [keep] * 6
        for h, c, want in zip(data.halfints, solved, v):
            got = h.coeffs[0]
            assert (got.valuation, got.unit, got.rel_prec) == \
                (c.valuation, c.unit, c.rel_prec) == \
                (want.valuation, want.unit, want.rel_prec)
        residues = teichmuller_point(ctx.curve.f_coeffs_mod(p, fd.work_exp),
                                     disk.x, disk.y, p, fd.work_exp)
        for i, terms in enumerate(columns):
            h_i = Fraction(_primitive_acc_full(fd, terms, *residues),
                           p ** fd.scale_exp)
            lhs = sum(((i == j) - fd.matrix_ints[j][i]) * value(v[j])
                      for j in range(6))
            assert ord_p(lhs - h_i, p) >= keep
    assert len(solutions) == generic >= 1
