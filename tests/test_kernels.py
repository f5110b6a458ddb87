"""Oracle tests for the polynomial-mod-N kernels."""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from g3chabauty import _kernels as kernels

from conftest import (CURVE_A_COEFFS, CURVE_B_COEFFS, CURVE_B_SCALING,
                      CURVE_C_COEFFS, make_curve)


def test_poly_mul_oracle():
    rng = random.Random(11)
    mod = 7 ** 20
    for _ in range(30):
        a = [rng.randrange(mod) for _ in range(rng.randint(0, 9))]
        b = [rng.randrange(mod) for _ in range(rng.randint(0, 9))]
        got = kernels.poly_mul_mod(a, b, mod)
        want = [0] * (len(a) + len(b) - 1 if a and b else 0)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                want[i + j] = (want[i + j] + ai * bj) % mod
        while want and want[-1] == 0:
            want.pop()
        assert got == want


def test_poly_divmod_oracle():
    rng = random.Random(13)
    mod = 11 ** 12
    for _ in range(30):
        b = [rng.randrange(mod) for _ in range(rng.randint(1, 5))] + [1]
        q = [rng.randrange(mod) for _ in range(rng.randint(0, 6))]
        r = [rng.randrange(mod) for _ in range(len(b) - 1)]
        a = kernels.poly_mul_mod(q, b, mod)
        a = a + [0] * (max(0, len(b) - 1 + len(q) - len(a)))
        for i, c in enumerate(r):
            if i < len(a):
                a[i] = (a[i] + c) % mod
            else:
                a.append(c)
        qq, rr = kernels.poly_divmod_monic_mod(a, b, mod)
        assert qq == kernels.poly_trim([c % mod for c in q])
        assert rr == kernels.poly_trim([c % mod for c in r])


def test_poly_eval_oracle():
    mod = 7 ** 8
    coeffs = [3, 0, 5, 1]
    for x in (0, 1, 5, 7 ** 4 + 2):
        want = (3 + 5 * x * x + x ** 3) % mod
        assert kernels.poly_eval_mod(coeffs, x, mod) == want


def test_fp_curve_points_brute():
    rng = random.Random(17)
    for p in (7, 11, 13):
        f = [rng.randrange(p) for _ in range(7)] + [1]
        got = kernels.fp_curve_points(f, p)
        want = sorted((x, y) for x in range(p) for y in range(p)
                      if (y * y - sum(f[i] * x ** i for i in range(8))) % p == 0)
        assert got == want


def test_count_points_gf_quadratic_extension():
    # GF(49) = F_7[T]/(T^2 + 6T + 3) (T^2 = -6T - 3); brute-force oracle
    p, k = 7, 2
    modulus_low = [3, 6]
    f = [1, 2, 0, 0, 0, 0, 0, 1]

    def fmul(u, v):
        c0 = u[0] * v[0]
        c1 = u[0] * v[1] + u[1] * v[0]
        c2 = u[1] * v[1]
        return [(c0 - 3 * c2) % p, (c1 - 6 * c2) % p]

    count = 0
    elems = [[a, b] for a in range(p) for b in range(p)]
    for x in elems:
        fx = [0, 0]
        for c in reversed(f):
            fx = fmul(fx, x)
            fx = [(fx[0] + c) % p, fx[1]]
        for y in elems:
            yy = fmul(y, y)
            if yy == fx:
                count += 1
    assert kernels.count_points_gf(f, p, k, modulus_low) == count


def test_search_x_squares_oracle():
    # y^2 = x^7 + 1: rational points with small height have x in {-1, 0}
    cnum = [1, 0, 0, 0, 0, 0, 0, 1]
    hits = kernels.search_x_squares(cnum, 1, 3)
    assert set(hits) == {(-1, 1), (0, 1)}
    # denominator case: y^2 = x^7 + x: x = 1/4 gives (1 + 4^6)/4^7, non-square
    cnum2 = [0, 1, 0, 0, 0, 0, 0, 1]
    hits2 = kernels.search_x_squares(cnum2, 1, 4)
    brute = set()
    from math import gcd
    for b in range(1, 5):
        for a in range(-4, 5):
            if gcd(a, b) != 1:
                continue
            val = Fraction(a, b) ** 7 + Fraction(a, b)
            if val < 0:
                continue
            num, den = val.numerator, val.denominator
            import math
            if math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den:
                brute.add((a, b))
    assert set(hits2) == brute


def test_poly_helpers_oracle():
    # add/sub/pow against naive lists; extended gcd against Bezout
    rng = random.Random(29)

    def naive_mul(a, b, m):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % m
        return kernels.poly_trim(out)

    def rand_poly(p, deg):
        return [rng.randrange(p) for _ in range(deg + 1)]

    for p in (7, 11, 13):
        for _ in range(40):
            a = rand_poly(p, rng.randint(-1, 7))
            b = rand_poly(p, rng.randint(-1, 7))
            n = max(len(a), len(b))
            pa, pb = a + [0] * (n - len(a)), b + [0] * (n - len(b))
            assert kernels.poly_add_mod(a, b, p) == \
                kernels.poly_trim([(x + y) % p for x, y in zip(pa, pb)])
            assert kernels.poly_sub_mod(a, b, p) == \
                kernels.poly_trim([(x - y) % p for x, y in zip(pa, pb)])
            e = rng.randint(0, 5)
            want = [1]
            for _ in range(e):
                want = naive_mul(want, a, p)
            assert kernels.poly_pow_mod(a, e, p) == want

            common = rand_poly(p, rng.randint(0, 2))[:-1] + [1]
            a = naive_mul(rand_poly(p, rng.randint(0, 5)), common, p)
            b = naive_mul(rand_poly(p, rng.randint(0, 5)), common, p)
            if not a and not b:
                continue
            g, s, t = kernels.poly_xgcd_mod(a, b, p)
            assert g[-1] == 1
            assert kernels.poly_add_mod(naive_mul(s, a, p),
                                        naive_mul(t, b, p), p) == g
            for h in (a, b):
                assert not kernels.poly_divmod_monic_mod(h, g, p)[1]
            assert not kernels.poly_divmod_monic_mod(g, common, p)[1]


MODULI = (13, 2 ** 61 - 1, 11 ** 54)


def schoolbook_mul(a, b, mod):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return kernels.poly_trim([c % mod for c in out])


def schoolbook_divmod(a, b, mod):
    db = len(b) - 1
    r = [c % mod for c in a]
    q = [0] * max(0, len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = q[i - db] = r[i]
        for j in range(db + 1):
            r[i - db + j] = (r[i - db + j] - c * b[j]) % mod
    return kernels.poly_trim(q), kernels.poly_trim(r[:db])


def test_kronecker_mul_against_schoolbook():
    # both sides of KRONECKER_MIN_LEN; negative and unreduced coefficients
    rng = random.Random(31)
    t = kernels.KRONECKER_MIN_LEN
    lengths = (1, 2, t - 1, t, t + 1, 2 * t, 100, 600)
    for mod in MODULI:
        for la in lengths:
            for lb in lengths:
                a = [rng.randrange(-3 * mod, 3 * mod) for _ in range(la)]
                b = [rng.randrange(-3 * mod, 3 * mod) for _ in range(lb)]
                assert kernels.poly_mul_mod(a, b, mod) == \
                    schoolbook_mul(a, b, mod), (mod, la, lb)
        # a product that vanishes mod mod trims to the empty list
        assert kernels.poly_mul_mod([mod] * 40, [-1] * 40, mod) == []


def test_block_divmod_against_schoolbook():
    # divisor degrees on both sides of BLOCK_DIV_MIN_DEG, dividends from
    # shorter than the divisor to many blocks long
    rng = random.Random(37)
    t = kernels.BLOCK_DIV_MIN_DEG
    for mod in MODULI:
        for db in (1, 7, t - 1, t, t + 1, 77, 120):
            b = [rng.randrange(-2 * mod, 2 * mod) for _ in range(db)] + [1]
            for la in (0, 1, db, db + 1, 2 * db + 3, 600):
                a = [rng.randrange(-2 * mod, 2 * mod) for _ in range(la)]
                assert kernels.poly_divmod_monic_mod(a, b, mod) == \
                    schoolbook_divmod(a, b, mod), (mod, db, la)


def loop_search_x_squares(cnum, d7, height):
    """The point search without the sieve: the exact test on every
    coprime (a, b), b increasing, then a increasing."""
    hits = []
    for b in range(1, height + 1):
        bpows = [1] * 8
        for i in range(1, 8):
            bpows[i] = bpows[i - 1] * b
        for a in range(-height, height + 1):
            if gcd(a, b) != 1:
                continue
            s = 0
            ap = 1
            for i in range(8):
                s += cnum[i] * ap * bpows[7 - i]
                ap *= a
            t = s * d7 * b
            if t < 0:
                continue
            r = isqrt(t)
            if r * r == t:
                hits.append((a, b))
    return hits


def search_inputs(coeffs):
    """(cnum, d7) as CurveModel.search_rational_points passes them."""
    d7 = lcm(*(c.denominator for c in coeffs))
    return [int(c * d7) for c in coeffs], d7


@pytest.mark.parametrize("coeffs,scaling", [
    (CURVE_A_COEFFS, None), (CURVE_B_COEFFS, CURVE_B_SCALING),
    (CURVE_C_COEFFS, None)], ids=["curve_a", "curve_b", "curve_c"])
def test_sieved_search_matches_loop_on_reference_curves(coeffs, scaling):
    cnum, d7 = search_inputs(make_curve(coeffs, scaling).original)
    for height in (0, 1, 2, 7, 300):
        assert kernels.search_x_squares(cnum, d7, height) == \
            loop_search_x_squares(cnum, d7, height), height


def planted_curve(rng, d7):
    """d7 F with F(x) = G(b0 x) / d7, G integral of degree 7, and
    d7 G(a0) a nonzero square or, every third curve, G(a0 / u) = 0; so
    a0 / b0 (or a0 / (u b0)) is an x-coordinate of a rational point."""
    g = [rng.randint(-9, 9) for _ in range(8)]
    g[7] = g[7] or rng.choice((-1, 1))
    b0 = rng.randint(1, 4)
    a0 = rng.randint(-6, 6)
    while gcd(a0, b0) != 1:
        a0 += 1
    if rng.randrange(3) == 0:
        # G = (u x - a0) h: a rational root a0 / u of F(x / b0)
        u = rng.choice((1, 2, 3))
        h = g[:7]
        h[6] = h[6] or 1
        g = [0] * 8
        for i, c in enumerate(h):
            g[i + 1] += u * c
            g[i] -= a0 * c
    else:
        rest = sum(c * a0 ** i for i, c in enumerate(g) if i)
        g[0] = d7 * rng.randint(1, 30) ** 2 - rest
    return [c * b0 ** i for i, c in enumerate(g)]


def test_sieved_search_matches_loop_on_random_curves():
    # planted square values and planted roots, common denominators
    # d7 > 1 and leading coefficients of both signs
    rng = random.Random(61)
    found = roots = 0
    for n in range(50):
        d7 = (1, 3, 4, 12)[n % 4]
        cnum = planted_curve(rng, d7)
        if n % 5 == 0:
            cnum = [-c for c in cnum]
        height = rng.choice((9, 16, 33, 40))
        hits = kernels.search_x_squares(cnum, d7, height)
        assert hits == loop_search_x_squares(cnum, d7, height), (cnum, d7)
        found += len(hits)
        roots += sum(1 for a, b in hits
                     if sum(c * a ** i * b ** (7 - i)
                            for i, c in enumerate(cnum)) == 0)
    assert found >= 40 and roots >= 10
