"""Planted-value tests for rational and quadratic recognition."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from g3chabauty.padic import INF, PadicNumber, padic_sqrt
from g3chabauty.recognize import (QuadraticElement, format_polynomial,
                                  is_irreducible_quadratic, linear_relation,
                                  quadratic_relation, rational_reconstruct,
                                  small_integer_relation)


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


def nonsquare_qr(p, rng):
    while True:
        d = rng.randint(2, 200)
        if isqrt(d) ** 2 == d:
            continue
        if pow(d % p, (p - 1) // 2, p) == 1:
            return d


@pytest.mark.parametrize("p", [7, 11])
def test_rational_roundtrip(p):
    rng = random.Random(p)
    for _ in range(100):
        num = rng.randint(-2000, 2000)
        den = rng.randint(1, 2000)
        while den % p == 0:
            den += 1
        q = Fraction(num, den)
        assert rational_reconstruct(from_frac(q, p, 12)) == q


def test_rational_reconstruct_rejects_irrational():
    s = padic_sqrt(PadicNumber.from_rational(2, 7, rel_prec=12))
    assert rational_reconstruct(s) is None
    assert rational_reconstruct(from_frac(Fraction(1, 3), 7, 3)) is None


def test_rational_reconstruct_exact_input():
    assert rational_reconstruct(PadicNumber(7, 0, 5, INF)) == 5
    assert rational_reconstruct(PadicNumber.zero(7)) == 0


@pytest.mark.parametrize("p", [7, 11])
def test_quadratic_planted(p):
    rng = random.Random(100 + p)
    for _ in range(60):
        d = nonsquare_qr(p, rng)
        a = rng.randint(-12, 12)
        b = rng.choice([i for i in range(-9, 10) if i])
        c = rng.choice([1, 2, 3, 5, 6])
        while c % p == 0:
            c += 1
        root = padic_sqrt(PadicNumber.from_rational(d, p, rel_prec=20))
        x = (from_frac(a, p, 20) + from_frac(b, p, 20) * root) / from_frac(c, p, 20)
        expected = primitive((a * a - b * b * d, -2 * a * c, c * c))
        assert quadratic_relation(x) == expected


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


def test_linear_relation_planted():
    p = 7
    rng = random.Random(9)
    for _ in range(40):
        d = nonsquare_qr(p, rng)
        mp = (-d, 0, 1)
        a, b = rng.randint(-9, 9), rng.choice([1, 2, 3, -1, -2])
        u, v = rng.randint(-9, 9), rng.choice([1, 2, -1, -3])
        root = padic_sqrt(PadicNumber.from_rational(d, p, rel_prec=20), branch=None)
        x = from_frac(a, p, 20) + from_frac(b, p, 20) * root
        y = from_frac(u, p, 20) + from_frac(v, p, 20) * x
        rel = linear_relation(y, x)
        assert rel is not None and rel[1] != 0
        x_el = QuadraticElement(a, b, mp)
        y_el = QuadraticElement(u, 0, mp) + QuadraticElement(v, 0, mp) * x_el
        total = (QuadraticElement.rational(rel[0], mp)
                 + QuadraticElement.rational(rel[1], mp) * y_el
                 + QuadraticElement.rational(rel[2], mp) * x_el)
        assert total.is_zero


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
    assert QuadraticElement.evaluate_poly([1, -1, 1], g).is_zero
    h = QuadraticElement.generator((3, 0, 1))
    assert (h * h + 3).is_zero


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
