"""Cantor arithmetic: group axioms, small-case oracles, orders."""

import random

import pytest

from g3chabauty.errors import PrecisionError
from g3chabauty.jacobian import MumfordDivisorFp

from oracles import _last_rootless_low, count_points_euler


def brute_zeta_coeffs(fbar, p):
    """Oracle: numerator coefficients b_0..b_6 of Z(C/F_p) from point counts
    over F_p, F_p^2, F_p^3 via Newton's identities and the functional
    equation.  Independent of the cohomology machinery and of the kernels:
    the counts are by Euler's criterion on a modulus of the oracle's own."""
    counts = [count_points_euler(fbar, p, k, _last_rootless_low(p, k)) + 1
              for k in (1, 2, 3)]
    s = [p ** k + 1 - counts[k - 1] for k in (1, 2, 3)]
    e1 = s[0]
    e2 = (e1 * s[0] - s[1]) // 2
    e3 = (e2 * s[0] - e1 * s[1] + s[2]) // 3
    b = [1, -e1, e2, -e3, p * e2, -p * p * e1, p ** 3]
    return b


def jac_order_from_zeta(b):
    return sum(b)


@pytest.fixture(scope="module")
def setup_b7(curve_b):
    p = 7
    f = curve_b.f_coeffs_mod(p, 1)
    pts = curve_b.fp_points(p)
    b = brute_zeta_coeffs(f, p)
    return curve_b, p, f, pts, jac_order_from_zeta(b)


def test_group_axioms_random(setup_b7):
    curve, p, f, pts, n = setup_b7
    rng = random.Random(41)
    affine = [q for q in pts if not q.is_infinity]

    def rand_divisor():
        d = MumfordDivisorFp.identity(p, f)
        for _ in range(rng.randint(0, 3)):
            d = d + MumfordDivisorFp.from_point(rng.choice(affine), p, f)
        return d

    e = MumfordDivisorFp.identity(p, f)
    for _ in range(40):
        a, b_, c = rand_divisor(), rand_divisor(), rand_divisor()
        assert (a + b_) + c == a + (b_ + c)
        assert a + b_ == b_ + a
        assert a + e == a
        # n kills every class, so (n - 1) a is the inverse of a
        assert (a + (n - 1) * a).is_identity


def test_degree_two_composition_oracle(setup_b7):
    curve, p, f, pts, n = setup_b7
    # adding distinct non-opposite points: u = (x-x1)(x-x2), v = the secant
    affine = [q for q in pts if not q.is_infinity]
    for P in affine:
        for Q in affine:
            if P.x == Q.x:
                continue
            D = MumfordDivisorFp.from_point(P, p, f) + \
                MumfordDivisorFp.from_point(Q, p, f)
            want_u = [(P.x * Q.x) % p, (-(P.x + Q.x)) % p, 1]
            lam = (Q.y - P.y) * pow(Q.x - P.x, -1, p) % p
            mu = (P.y - lam * P.x) % p
            want_v = [mu, lam]
            while want_v and want_v[-1] == 0:
                want_v.pop()
            assert list(D.u) == want_u
            assert list(D.v) == want_v


def test_group_order_annihilates(setup_b7):
    curve, p, f, pts, n = setup_b7
    for q in pts[:6]:
        d = MumfordDivisorFp.from_point(q, p, f)
        assert (n * d).is_identity


def test_element_order(setup_b7):
    curve, p, f, pts, n = setup_b7
    orders = set()
    for q in pts:
        d = MumfordDivisorFp.from_point(q, p, f)
        o = d.order(n)
        assert n % o == 0
        assert (o * d).is_identity
        if o > 1:
            assert not ((o // next(iter(_pf(o)))) * d).is_identity
        orders.add(o)
    assert 1 in orders  # infinity


def _pf(n):
    from g3chabauty.jacobian import _prime_factors
    return _prime_factors(n)


def test_weierstrass_class_is_two_torsion(setup_b7):
    curve, p, f, pts, n = setup_b7
    w = [q for q in pts if not q.is_infinity and q.y == 0]
    for q in w:
        d = MumfordDivisorFp.from_point(q, p, f)
        assert (d + d).is_identity and not d.is_identity


def test_involution_gives_inverse(setup_b7):
    curve, p, f, pts, n = setup_b7
    for q in pts:
        d = MumfordDivisorFp.from_point(q, p, f)
        di = MumfordDivisorFp.from_point(q.involution(p), p, f)
        assert (d + di).is_identity


def test_reduction_class_and_flags(curve_a):
    p = 7
    f = curve_a.f_coeffs_mod(p, 1)
    b = brute_zeta_coeffs(f, p)
    n = jac_order_from_zeta(b)
    from g3chabauty.curve import RationalPoint
    from fractions import Fraction
    pt = RationalPoint.affine(Fraction(-1), Fraction(-1))
    disk = curve_a.reduce_curve_point(curve_a.padic_point(pt, p, 4), p)
    d = MumfordDivisorFp.from_point(disk, p, f)
    o = d.order(n)
    assert o > 1 and n % o == 0
    assert (o * d).is_identity


def test_negative_multiple_is_refused(curve_a):
    """n D is defined for n >= 0 only (there is no negation, and the
    doubling loop would not end on a negative n): -1 * D raises TypeError
    at once.  order() still gives 12 on the classes of A@7's torsion
    zeros (0, +-sqrt 8), whose disks are the points of C(F_7) over x = 0,
    as the pinned report does."""
    p = 7
    f = curve_a.f_coeffs_mod(p, 1)
    n = jac_order_from_zeta(brute_zeta_coeffs(f, p))
    disks = [q for q in curve_a.fp_points(p)
             if not q.is_infinity and q.x == 0]
    assert len(disks) == 2
    for q in disks:
        d = MumfordDivisorFp.from_point(q, p, f)
        with pytest.raises(TypeError):
            -1 * d
        assert d.order(n) == 12


def test_validation_errors(setup_b7):
    curve, p, f, pts, n = setup_b7
    with pytest.raises(PrecisionError):
        MumfordDivisorFp(p, f, [1, 1], [5])   # v^2 - f check fails


def test_order_with_a_wrong_group_order_is_a_failed_audit(setup_b7):
    # a group order that does not kill the class is the program's own
    # arithmetic failing (exit 4), not malformed input (exit 2)
    curve, p, f, pts, n = setup_b7
    d = next(MumfordDivisorFp.from_point(q, p, f) for q in pts
             if not q.is_infinity and q.y != 0)
    assert d.order(n) > 1
    with pytest.raises(PrecisionError, match="does not annihilate"):
        d.order(n + 1)


def test_constructor_checks_the_mumford_conditions(setup_b7):
    # u monic of degree <= 3 and deg v < deg u, as the README states, and
    # classes add only on one curve
    _, p, f, _, _ = setup_b7
    with pytest.raises(PrecisionError, match="u must be monic"):
        MumfordDivisorFp(p, f, [1, 2], [])
    with pytest.raises(PrecisionError, match="unreduced divisor"):
        MumfordDivisorFp(p, f, [0, 0, 0, 0, 1], [])
    with pytest.raises(PrecisionError, match="deg v must be < deg u"):
        MumfordDivisorFp(p, f, [1, 1], [1, 1])
    other = [(c + 1) % p for c in f[:-1]] + [f[-1]]
    one = MumfordDivisorFp.identity(p, f)
    with pytest.raises(PrecisionError, match="divisors on different curves"):
        one + MumfordDivisorFp.identity(p, other)
    with pytest.raises(PrecisionError, match="divisors on different curves"):
        one + MumfordDivisorFp.identity(11, f)
