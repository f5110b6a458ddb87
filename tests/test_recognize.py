"""Planted-value tests for rational and quadratic recognition."""

import random
from fractions import Fraction
from math import gcd

import pytest

from g3chabauty.padic import INF, PadicNumber
from g3chabauty.recognize import (QuadraticElement, _lll, element_min_poly,
                                  element_sqrt, eval_exact, exact_point,
                                  format_polynomial,
                                  is_irreducible_quadratic,
                                  quadratic_relation, rational_reconstruct,
                                  rational_sqrt, small_integer_relation)

from conftest import CURVE_B_COEFFS
from oracles import nonsquare_qr, padic_sqrt


def from_frac(q, p, prec):
    return PadicNumber.from_rational(Fraction(q), p, abs_prec=prec)


def primitive(vec):
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    out = [c // g for c in vec]
    if next(c for c in reversed(out) if c) < 0:
        out = [-c for c in out]
    return tuple(out)


@pytest.mark.parametrize("p", [7, 11])
def test_rational_roundtrip(p):
    # each fraction comes back exactly when its digits vouch for its
    # height: (2h + 1)^2 p^3 <= p^n, h = |num * den| for num and den prime
    # to p; 20 digits vouch for every one of these, 12 for some
    rng = random.Random(p)
    back = 0
    for _ in range(100):
        num = rng.randint(-2000, 2000)
        den = rng.randint(1, 2000)
        while num % p == 0:
            num += 1
        while den % p == 0:
            den += 1
        q = Fraction(num, den)
        h = abs(q.numerator * q.denominator)
        fits = (2 * h + 1) ** 2 * p ** 3 <= p ** 12
        assert rational_reconstruct(from_frac(q, p, 12)) == (
            q if fits else None)
        assert rational_reconstruct(from_frac(q, p, 20)) == q
        back += fits
    assert 0 < back < 100


def test_rational_reconstruct_rejects_irrational():
    s = padic_sqrt(PadicNumber.from_rational(2, 7, rel_prec=12))
    assert rational_reconstruct(s) is None
    assert rational_reconstruct(from_frac(Fraction(1, 3), 7, 3)) is None


@pytest.mark.parametrize("n,want", [(1, None), (2, None), (3, None),
                                    (4, 0), (9, 0), (INF, 0)])
def test_rational_reconstruct_zero_needs_four_digits(n, want):
    # like any other fraction: an inexact zero is 0 only from 4 digits on
    assert rational_reconstruct(PadicNumber.zero(7, n)) == want


@pytest.mark.parametrize("q,p,n,trusted", [
    # (2h + 1)^2 p^3 <= p^n, h = |num * den| of the unit part
    (0, 7, 2, False), (0, 7, 3, False),      # n = abs_prec for zero
    (-1, 7, 4, False), (-1, 7, 5, True), (-1, 11, 4, True),
    (Fraction(-3, 2), 7, 5, False), (Fraction(-3, 2), 7, 6, True),
    (Fraction(1, 49), 7, 5, True),           # p-power: unit part 1
    (98, 7, 5, True), (Fraction(3593, 186681), 7, 14, False),
    (Fraction(3593, 186681), 7, 40, True), (Fraction(3593, 49), 7, 5, False)])
def test_trusted_rational_height_gate(q, p, n, trusted):
    # rational_reconstruct returns q only when its digits vouch for it
    value = PadicNumber.from_rational(q, p, rel_prec=n) if q \
        else PadicNumber.zero(p, n)
    assert rational_reconstruct(value) == (q if trusted else None)


# from p = 13 on, the library's own N = 2p + 4
PLANTED_PREC = {7: 20, 11: 20, 13: 30, 17: 38, 19: 42}


@pytest.mark.parametrize("p", sorted(PLANTED_PREC))
def test_quadratic_planted(p):
    n = PLANTED_PREC[p]
    rng = random.Random(100 + p)
    for _ in range(60):
        d = nonsquare_qr(p, rng)
        a = rng.randint(-12, 12)
        b = rng.choice([i for i in range(-9, 10) if i])
        c = rng.choice([1, 2, 3, 5, 6])
        while c % p == 0:
            c += 1
        root = padic_sqrt(PadicNumber.from_rational(d, p, rel_prec=n))
        x = ((from_frac(a, p, n) + from_frac(b, p, n) * root)
             / from_frac(c, p, n))
        expected = primitive((a * a - b * b * d, -2 * a * c, c * c))
        assert quadratic_relation(x) == expected


def test_quadratic_relation_of_rationals():
    # at p = 11, N = 26 sympy's LLL failed its own assert on these
    assert quadratic_relation(from_frac(2, 11, 26)) == (-2, 1, 0)
    for q in (Fraction(-3), Fraction(1, 2), Fraction(5, 7)):
        rel = quadratic_relation(from_frac(q, 11, 26))
        assert rel == (-q.numerator, q.denominator, 0)


def test_lll_reduces_random_lattices():
    # the relation lattices of small_integer_relation: the result must be
    # LLL-reduced for delta = 3/4 and span the same lattice
    rng = random.Random(3)
    for _ in range(200):
        p = rng.choice([7, 11, 13, 17, 19, 23])
        m = p ** rng.randint(4, 70)
        res = [1, rng.randrange(m), rng.randrange(m)]
        rows = [[m, 0, 0], [-res[1] % m, 1, 0], [-res[2] % m, 0, 1]]
        red = _lll(rows)
        assert abs(det3(red)) == m
        assert all(sum(c * r for c, r in zip(v, res)) % m == 0 for v in red)
        star, mu = [], {}
        for i, v in enumerate(red):
            w = [Fraction(c) for c in v]
            for j in range(i):
                mu[i, j] = dot(v, star[j]) / dot(star[j], star[j])
                w = [a - mu[i, j] * b for a, b in zip(w, star[j])]
            star.append(w)
        assert all(abs(u) <= Fraction(1, 2) for u in mu.values())
        for k in (1, 2):
            assert dot(star[k], star[k]) >= \
                (Fraction(3, 4) - mu[k, k - 1] ** 2) * dot(star[k - 1],
                                                           star[k - 1])


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def test_quadratic_rejects_noise():
    rng = random.Random(5)
    for _ in range(20):
        v = PadicNumber.from_rational(
            rng.randint(1, 7 ** 12 - 1) * 7 + 1, 7, abs_prec=12)
        rel = quadratic_relation(v)
        if rel is not None:
            # a found relation must at least really vanish mod p^12
            c0, c1, c2 = rel
            acc = (c0 + c1 * v + c2 * v * v)
            assert acc.is_zero and acc.valuation >= 12
            assert False, "noise recognized as algebraic: %r" % (rel,)


def test_relation_from_unbalanced_basis():
    # curve A at p = 7, N = 40: with entries in [0, 7^40) the lattice basis
    # [[7^40, 0, 0], [c, 1, 0], [7^40 - 8, 0, 1]] tripped an assert in
    # sympy's lll(); balanced entries span the same lattice
    values = [from_frac(v, 7, 40)
              for v in (1, 1017976814372970571320298394767723, 8)]
    assert small_integer_relation(values) == (-8, 0, 1)


def test_quadratic_element_arithmetic():
    mp = (1, -1, 1)
    g = QuadraticElement.generator(mp)
    assert g * g == QuadraticElement(-1, 1, mp)
    assert eval_exact([1, -1, 1], g) == 0
    h = QuadraticElement.generator((3, 0, 1))
    assert h * h + 3 == 0


def random_field(rng, negative):
    """An irreducible (c0, c1, c2) whose discriminant has the given sign."""
    while True:
        rel = (rng.randint(-20, 20), rng.randint(-9, 9), rng.randint(1, 5))
        disc = rel[1] ** 2 - 4 * rel[0] * rel[2]
        if (disc < 0) == negative and is_irreducible_quadratic(rel):
            return rel, disc


def random_element(rng, mp):
    return QuadraticElement(Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                            mp)


@pytest.mark.parametrize("negative", [True, False], ids=["d<0", "d>0"])
def test_element_sqrt_of_squares(negative):
    rng = random.Random(40 + negative)
    for _ in range(100):
        mp, _ = random_field(rng, negative)
        w = random_element(rng, mp)
        root = element_sqrt(w * w)
        assert root is not None and (root == w or root == w * -1)


@pytest.mark.parametrize("negative", [True, False], ids=["d<0", "d>0"])
def test_element_sqrt_of_non_squares(negative):
    # delta w^2 is a square only when delta is: a rational delta is a
    # square in Q(sqrt D) when delta or delta D is a rational square, and
    # an element whose norm is no rational square is none
    rng = random.Random(50 + negative)
    tested = 0
    for _ in range(100):
        mp, disc = random_field(rng, negative)
        w = random_element(rng, mp)
        if w == 0:
            continue
        delta = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        if delta and rational_sqrt(delta) is None \
                and rational_sqrt(delta * disc) is None:
            assert element_sqrt(w * w * delta) is None
            tested += 1
        delta = random_element(rng, mp)
        if rational_sqrt(delta.trace_norm()[1]) is None:
            assert element_sqrt(w * w * delta) is None
            tested += 1
    assert tested > 100


def test_element_sqrt_trace_zero_and_zero():
    # sqrt(-3) in Q(sqrt -3), as t for t^2 + 3 and as 2t - 1 for t^2 - t + 1
    # (curve B's y^2 + 3 over x^2 - x + 1)
    for mp, want in (((3, 0, 1), (0, 1)), ((1, -1, 1), (-1, 2))):
        root = element_sqrt(QuadraticElement(-3, 0, mp))
        assert (root.u, root.v) in (want, tuple(-c for c in want))
    assert element_sqrt(QuadraticElement(-2, 0, (3, 0, 1))) is None
    assert element_sqrt(QuadraticElement(4, 0, (3, 0, 1))) in (2, -2)
    assert element_sqrt(QuadraticElement(0, 0, (1, -1, 1))) == 0


def test_is_irreducible_quadratic():
    assert is_irreducible_quadratic((1, -1, 1))
    assert is_irreducible_quadratic((3, 0, 1))
    assert not is_irreducible_quadratic((-1, 0, 1))
    assert not is_irreducible_quadratic((4, 4, 0))


def test_format_polynomial():
    assert format_polynomial((1, -1, 1), "x") == "x^2 - x + 1"
    assert format_polynomial((3, 0, 1), "y") == "y^2 + 3"
    assert format_polynomial((-8, 0, 1), "y") == "y^2 - 8"
    assert format_polynomial((0, 2, 0), "x") == "2*x"
    assert format_polynomial((0, 0, 0), "x") == "0"
    assert format_polynomial((-5, 1), "x") == "x - 5"


def test_exact_point_follows_the_sign_of_y_on_b7():
    # B@7's zeros: x a root of x^2 - x + 1, y = +-(2x - 1), a root of y^2 + 3
    # (a rational square: test_rational_x_takes_y_from_the_curve_equation)
    g = [Fraction(c) for c in CURVE_B_COEFFS]
    p, n = 7, 12
    x_o = (padic_sqrt(from_frac(-3, p, n)) + 1) / 2
    assert rational_reconstruct(x_o) is None
    for sign in (1, -1):
        y_o = (x_o * 2 - 1) * sign
        x, y = exact_point(g, x_o, y_o, None)
        assert element_min_poly(x) == (1, -1, 1)
        assert element_min_poly(y) == (3, 0, 1)
        assert y == (x * 2 + -1) * sign
        assert y * y == eval_exact(g, x)
        assert exact_point(g, x_o, y_o + from_frac(p ** 5, p, n), None) is None
