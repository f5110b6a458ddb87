"""Curve model normalization, reduction, point search, and the exact
algebra over Z (primality, the squarefree tests over Q and F_p, factoring)
against sympy."""

import pickle
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt

import pytest
import sympy

from conftest import CURVE_B_COEFFS, make_curve
from g3chabauty.curve import (PRIME_CAP, CurveModel, CurvePoint, FpPoint,
                              RationalPoint, estimated_seconds, is_prime)
from g3chabauty.errors import BadReductionError, InputError
from g3chabauty.recognize import eval_exact, rational_sqrt


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


def test_prime_selection(curve_a, curve_b, curve_c):
    assert curve_a.choose_prime() == 7
    assert curve_b.choose_prime() == 7
    assert curve_b.is_good_prime(11)
    assert curve_c.choose_prime() == 11  # 7 divides disc: conductor has a 7
    primes = [p for p in range(7, PRIME_CAP + 1) if is_prime(p)]
    for curve, bad in ((curve_a, []), (curve_b, []), (curve_c, [7, 53])):
        assert [p for p in primes if not curve.is_good_prime(p)] == bad
    with pytest.raises(BadReductionError):
        curve_c.check_prime(7)
    with pytest.raises(InputError):
        curve_a.check_prime(8)
    with pytest.raises(InputError):
        curve_a.check_prime(5)
    with pytest.raises(InputError, match="above the cap"):
        curve_a.check_prime(1000003)


# The rows the cost model was fitted to: wall seconds of
# `g3chabauty analyze --job data/job_ex1.json --p P --N N` on a 2-vCPU
# host, keyed by (p, N), the rows of at least 5 s in the curve.py comment.
COST_ROWS = {(7, 120): 5.1, (7, 200): 20.0, (37, 40): 6.6, (37, 78): 42.8,
             (101, 20): 9.9, (101, 40): 50.4, (101, 80): 489.0,
             (211, 10): 11.0, (293, 10): 21.2, (293, 20): 82.4}


def test_cost_model_is_an_upper_envelope_of_its_rows():
    # the cost cap admits a job by its estimate, so the estimate must not
    # fall below a measured run; the fit alone put p = 101 at N = 80 at
    # 382 s against 489 s measured.  The worst row sets the scale, so the
    # envelope touches it
    ratios = [estimated_seconds(p, N) / s for (p, N), s in COST_ROWS.items()]
    assert min(ratios) >= 1.0
    assert min(ratios) < 1.01


def test_is_prime_matches_sympy():
    # every n that check_prime_number passes to is_prime, and far beyond
    assert PRIME_CAP < 2 * 10 ** 5
    for n in range(-3, 2 * 10 ** 5):
        assert is_prime(n) == sympy.isprime(n), n
    near_cap = range(10 ** 6 - 2000, 10 ** 6 + 2000)
    assert sum(map(sympy.isprime, near_cap)) > 100
    for n in list(near_cap) + [997 ** 2, 997 * 1009, 1009 ** 2, 10 ** 9 + 7]:
        assert is_prime(n) == sympy.isprime(n), n


def test_reduce_point_disks(curve_a):
    p = 7

    def disk(pt):
        return curve_a.reduce_curve_point(curve_a.padic_point(pt, p, 8), p)

    assert disk(RationalPoint.infinity()).is_infinity
    # (-1, -1) is (-4, -64) on the monic model
    assert disk(RationalPoint.affine(-1, -1)) == FpPoint("affine", 3, 6)
    # x with p in the denominator reduces into the infinity disk
    far = RationalPoint.affine(Fraction(1, 7), Fraction(1))
    assert disk(far).is_infinity


def test_canonical_disk():
    p = 7
    d = FpPoint("affine", 2, 5)
    assert d.canonical(p) == FpPoint("affine", 2, 2)
    assert d.involution(p) == FpPoint("affine", 2, 2)
    w = FpPoint("affine", 3, 0)
    assert w.canonical(p) == w
    assert FpPoint.infinity().canonical(p).is_infinity


def test_point_types_share_infinity_and_involution(curve_a):
    inf = CurvePoint.infinity()
    assert inf.is_infinity and inf.involution().is_infinity
    pt = curve_a.padic_point(RationalPoint.affine(-1, -1), 7, 8)
    mirror = pt.involution()
    assert not mirror.is_infinity and mirror.x is pt.x
    assert (mirror.y + pt.y).is_zero and not mirror.y.is_zero
    assert RationalPoint.affine(1, 5).involution() == \
        RationalPoint.affine(1, -5)
    assert RationalPoint.infinity().involution() == RationalPoint.infinity()
    # the batch pool pickles points between processes
    for q in (RationalPoint.infinity(), RationalPoint.affine(Fraction(1, 3), -2),
              FpPoint.infinity(), FpPoint("affine", 2, 5)):
        back = pickle.loads(pickle.dumps(q))
        assert back == q and type(back) is type(q)


def test_weierstrass_points(curve_a, curve_c):
    # {monic residue: (x, min poly of x)}, both in the original model, so x
    # is a root of g and of its min poly; curve_a has three, none rational
    ws = curve_a.weierstrass_points_qp(7, 8)
    fbar = curve_a.f_coeffs_mod(7, 1)
    assert sorted(ws) == [r for r in range(7) if sum(
        c * r ** i for i, c in enumerate(fbar)) % 7 == 0]
    g = [int(c) for c in curve_a.original]
    for x, min_poly in ws.values():
        v = x.residue(8)
        for poly in (g, min_poly):
            assert sum(c * v ** i for i, c in enumerate(poly)) % 7 ** 8 == 0
        assert len(min_poly) > 2
    # curve_c has the rational Weierstrass point x = 0: min poly x
    ws_c = curve_c.weierstrass_points_qp(11, 8)
    assert [mp for _, mp in ws_c.values() if len(mp) == 2] == [(0, 1)]


def test_search_rational_points(curve_b, curve_c):
    pts = curve_b.search_rational_points(4)
    got = {p.coord_strings() if p.is_infinity else tuple(p.coord_strings())
           for p in pts}
    assert got == {"infinity", ("0", "-1"), ("0", "1"), ("1", "-1"), ("1", "1")}
    pts_c = curve_c.search_rational_points(2)
    got_c = {p.coord_strings() if p.is_infinity else tuple(p.coord_strings())
             for p in pts_c}
    assert got_c == {"infinity", ("0", "0"), ("1", "-2"), ("1", "2")}


@pytest.mark.parametrize("r,s", [
    (0, 0), (1, 1), (4, 2), (49, 7), (10 ** 40, 10 ** 20),
    (Fraction(9, 4), Fraction(3, 2)), (Fraction(1, 49), Fraction(1, 7)),
    # non-squares: a square numerator or denominator alone is not enough
    (2, None), (8, None), (Fraction(2, 9), None), (Fraction(4, 3), None),
    (10 ** 40 + 1, None),
    # negatives have no rational square root
    (-1, None), (-4, None), (Fraction(-9, 4), None), (-140, None),
])
def test_rational_sqrt(r, s):
    assert rational_sqrt(r) == s


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


def test_validate_is_fast_on_huge_coefficients():
    # Euclid on Fractions must not blow up: a singular a^2 b with
    # 150-digit factors, and a random curve with 1000-digit coefficients
    rng = random.Random(30)

    def poly(d, digits):
        return sum(rng.randrange(1, 10 ** digits) * rng.choice([1, -1])
                   * X ** i for i in range(d + 1))

    singular = sympy.Poly(poly(2, 150) ** 2 * poly(3, 150), X)
    start = time.perf_counter()
    with pytest.raises(InputError, match="singular"):
        make_curve([int(c) for c in singular.all_coeffs()[::-1]])
    assert time.perf_counter() - start < 5
    coeffs = [rng.randrange(1, 10 ** 1000) * rng.choice([1, -1])
              for _ in range(8)]
    start = time.perf_counter()
    CurveModel(coeffs).validate()
    assert time.perf_counter() - start < 5


# -- discriminant and factors against sympy -----------------------------------

X = sympy.Symbol("x")


def sympy_disc_and_factors(F):
    """sympy's discriminant of F and its factors as primitive tuples, or
    None for the factors when F is not squarefree."""
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(F)], X)
    disc = Fraction(str(poly.discriminant()))
    _, factors = poly.factor_list()
    if any(mult != 1 for _, mult in factors):
        return disc, None
    prims = [sympy.Poly(f, X).primitive()[1].all_coeffs()[::-1]
             for f, _ in factors]
    return disc, sorted(tuple(int(c) * (1 if f[-1] > 0 else -1) for c in f)
                        for f in prims)


def p_unit(q, p):
    return q.numerator % p != 0 and q.denominator % p != 0


def assert_matches_sympy(coeffs, scaling=None):
    """validate() raises exactly when sympy's discriminant of F is 0; at
    every prime 7 <= p <= 97, is_good_prime(p) exactly when v_p(disc) = 0,
    the scaling and g7 are p-units and F is p-integral; the factors of F
    are sympy's.  Returns sympy's discriminant."""
    curve = CurveModel([Fraction(c) for c in coeffs], scaling)
    disc, factors = sympy_disc_and_factors(curve.F)
    if disc == 0:
        with pytest.raises(InputError, match="singular"):
            curve.validate()
    else:
        curve.validate()
    units = (curve.scale_x, curve.scale_y, curve.original[7])
    for p in sympy.primerange(7, 98):
        good = (disc != 0 and p_unit(disc, p)
                and all(p_unit(q, p) for q in units)
                and all(c.denominator % p for c in curve.F))
        assert curve.is_good_prime(p) == good, (coeffs, p)
    if factors is None:
        assert disc == 0
        with pytest.raises(InputError, match="not squarefree"):
            curve.weierstrass_x_factors()
    else:
        assert curve.weierstrass_x_factors() == factors, coeffs
    return disc


def test_reference_curves_match_sympy(curve_a, curve_b, curve_c):
    # curve B's monic model has F_6 = 3/2, so its denominators are cleared
    for curve in (curve_a, curve_b, curve_c):
        scaling = (curve.scale_x, curve.scale_y)
        assert assert_matches_sympy(curve.original, scaling) != 0
    assert [len(f) - 1 for f in curve_a.weierstrass_x_factors()] == [5, 2]
    assert [len(f) - 1 for f in curve_c.weierstrass_x_factors()] == [1, 6]


def random_factor(rng, d):
    return rng.choice([1, 2, -3]) * X ** d + sum(
        rng.randint(-5, 5) * X ** i for i in range(d))


def random_degree7(rng):
    """Integer or rational coefficient lists (the rational ones with a
    square leading coefficient), products of small factors, and products
    a^2 b with a repeated factor (singular)."""
    kind = rng.randrange(4)
    if kind == 0:
        return [rng.randint(-30, 30) for _ in range(7)] + [rng.choice(
            [1, -1, 2, 3, -5])]
    if kind == 1:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for _ in range(7)] + [Fraction(rng.randint(1, 4),
                                               rng.randint(1, 3)) ** 2]
    if kind == 2:
        factors = [random_factor(rng, d) for d in rng.choice(
            [[1, 6], [2, 5], [3, 4], [1, 2, 4], [2, 2, 3], [1, 1, 1, 4],
             [1] * 7])]
    else:
        d = rng.choice([1, 2, 3])
        a = random_factor(rng, d)
        factors = [a, a, random_factor(rng, 7 - 2 * d)]
    poly = rng.choice([1, -1, 2, -3]) * sympy.prod(factors)
    return [int(c) for c in sympy.Poly(poly, X).all_coeffs()[::-1]]


def test_random_degree7_match_sympy():
    rng = random.Random(20261018)
    singular = rational = done = 0
    while done < 200:
        coeffs = random_degree7(rng)
        if len(coeffs) != 8 or coeffs[7] == 0:
            continue
        scaling = None
        if isinstance(coeffs[7], Fraction):
            # (1, sqrt(g7)) keeps the denominators: F = g / g7
            lead = coeffs[7]
            scaling = (Fraction(1), Fraction(isqrt(lead.numerator),
                                             isqrt(lead.denominator)))
        curve = CurveModel([Fraction(c) for c in coeffs], scaling)
        rational += any(c.denominator != 1 for c in curve.F)
        singular += assert_matches_sympy(coeffs, scaling) == 0
        done += 1
    assert 20 < singular < 100 and 20 < rational < 100


def cyclotomic_products():
    """Every product of cyclotomic polynomials Phi_k, k <= 30, of degree 7,
    repeated factors included."""
    phi = {k: sympy.cyclotomic_poly(k, X) for k in range(1, 31)}
    small = [k for k in phi if sympy.totient(k) <= 7]
    for r in range(1, 8):
        for ks in combinations_with_replacement(small, r):
            if sum(map(sympy.totient, ks)) == 7:
                yield sympy.prod(phi[k] for k in ks)


SWINNERTON_DYER = X ** 4 - 10 * X ** 2 + 1  # splits modulo every prime
ADVERSARIAL = (
    [SWINNERTON_DYER * c for c in (X ** 3 - 2, X ** 3 + X + 1,
                                   (X - 1) * (X + 2) * (X - 3),
                                   (X ** 2 + 1) * (X + 5), 2 * X ** 3 + 3)]
    + [a * b for a in (X - 3, 2 * X + 1)
       for b in (X ** 6 + X + 1, X ** 6 - 2, 3 * X ** 6 + X ** 3 - 1)]
    + [a * b for a in (X ** 2 + 1, X ** 2 - 2, 3 * X ** 2 + X - 7)
       for b in (X ** 5 - X - 1, X ** 5 + 2, 2 * X ** 5 - 5 * X + 3)]
    + [a * b for a in (X ** 3 - 2, X ** 3 - 3 * X - 1)
       for b in (X ** 4 + 1, X ** 4 - 2, X ** 4 + X + 1)]
    + [(X ** 2 - 2) * (X ** 2 - 3) * (X ** 3 - 5),
       (X ** 2 - 2) * (X ** 2 - 3) * (X - 5) * (X - 7) * (X + 1)])


def test_adversarial_products_match_sympy():
    cases = ADVERSARIAL + list(cyclotomic_products())
    assert len(cases) > 100
    for poly in cases:
        assert_matches_sympy(
            [int(c) for c in sympy.Poly(poly, X).all_coeffs()[::-1]])
    # a rescaled x keeps the Swinnerton-Dyer factor splitting mod every p
    assert_matches_sympy(
        [int(c) for c in sympy.Poly(
            (SWINNERTON_DYER * (X ** 3 - 2)).subs(X, 3 * X / 2) * 2 ** 7,
            X).all_coeffs()[::-1]])
