"""Cantor arithmetic: group axioms, small-case oracles, orders."""

import random

import pytest

from g3chabauty import _kernels as kernels
from g3chabauty.errors import InputError
from g3chabauty.jacobian import MumfordDivisorFp


def brute_zeta_coeffs(fbar, p):
    """Oracle: numerator coefficients b_0..b_6 of Z(C/F_p) from point counts
    over F_p, F_p^2, F_p^3 via Newton's identities and the functional
    equation.  Independent of the cohomology machinery."""
    # fixed irreducible quadratics/cubics mod small p: find one by scanning
    def irreducible(k):
        rng = random.Random(p * 100 + k)
        while True:
            low = [rng.randrange(p) for _ in range(k)]
            # T^k + low(T): irreducible iff no roots (k<=3) and, for k=2,3,
            # no linear factor suffices only for k<=3
            poly = low + [1]
            if all(kernels.poly_eval_mod(poly, x, p) % p for x in range(p)):
                if k == 2:
                    return low
                # cubic with no roots is irreducible
                return low

    counts = []
    for k in (1, 2, 3):
        modulus = None if k == 1 else irreducible(k)
        affine = kernels.count_points_gf(fbar, p, k, modulus)
        counts.append(affine + 1)
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
        assert (a + (-a)).is_identity


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
    pt = curve_a.to_monic(RationalPoint.affine(Fraction(-1), Fraction(-1)))
    d = MumfordDivisorFp.from_point(curve_a.reduce_point(pt, p), p, f)
    o = d.order(n)
    assert o > 1 and n % o == 0
    assert (o * d).is_identity


def test_validation_errors(setup_b7):
    curve, p, f, pts, n = setup_b7
    with pytest.raises(InputError):
        MumfordDivisorFp(p, f, [1, 1], [5])   # v^2 - f check fails
