"""Oracle tests for the polynomial-mod-N kernels."""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from g3chabauty import _kernels as kernels
from g3chabauty.curve import COST_CAP_S, estimated_seconds
from g3chabauty.errors import PrecisionError
from g3chabauty.frobenius import _budget

from conftest import (CURVE_A_COEFFS, CURVE_B_COEFFS, CURVE_B_SCALING,
                      CURVE_C_COEFFS, make_curve)
from oracles import _last_rootless_low, count_points_euler


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
        assert kernels.poly_div_exact_mod(
            kernels.poly_mul_mod(q, b, mod), b, mod) == qq
        if rr:
            with pytest.raises(PrecisionError, match="inexact division"):
                kernels.poly_div_exact_mod(a, b, mod)


def test_balanced_residue():
    for m in (7 ** 5, 2 * 7 ** 5):
        for r in range(-2 * m, 2 * m, 97):
            got = kernels.balanced(r, m)
            assert (got - r) % m == 0 and -m < 2 * got <= m


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
    # GF(49) = F_7[T]/(T^2 + 6T + 3) (T^2 = -6T - 3), not the modulus
    # T^2 + 1 that count_points_gf picks; brute-force oracle
    p, k = 7, 2
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
    assert kernels.count_points_gf(f, p, k) == count


@pytest.mark.parametrize("p", [7, 11, 13])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_points_gf_matches_euler_criterion(p, k):
    """The table of squares against Euler's criterion over GF(p^k) built
    on another modulus than count_points_gf's own (the last rootless
    T^k + aT + b, not the first), on seeded random monic f: the count
    does not depend on the modulus."""
    rng = random.Random(100 * p + k)
    modulus_low = _last_rootless_low(p, k)
    for _ in range(3):
        f = [rng.randrange(p) for _ in range(7)] + [1]
        assert kernels.count_points_gf(f, p, k) == \
            count_points_euler(f, p, k, modulus_low)


def test_count_points_gf_refuses_degree_above_3():
    # a rootless quartic can be a product of two quadratics
    with pytest.raises(ValueError, match="degree 3"):
        kernels.count_points_gf([1, 0, 0, 0, 0, 0, 0, 1], 7, 4)


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


def _random_monic(rng, m, deg):
    return [rng.randrange(m) for _ in range(deg)] + [1]


def test_poly_helpers_oracle():
    # add/sub/pow against naive lists, pow also modulo a monic f; extended
    # gcd against Bezout
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
            # with a monic modulus: the same power, reduced once
            f = _random_monic(rng, p, rng.randint(1, 6))
            assert kernels.poly_pow_mod(a, e, p, f) == \
                kernels.poly_divmod_monic_mod(want, f, p)[1]

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


def test_newton_inverse_mod_prime_power():
    # a b = 1 mod (f, p^k) with deg b < deg f, or None exactly when
    # gcd(a, f) is not 1 mod p
    rng = random.Random(37)
    for p in (3, 7, 11):
        for _ in range(40):
            k = rng.randint(1, 25)
            m = p ** k
            f = _random_monic(rng, m, rng.randint(1, 7))
            a = [rng.randrange(m) for _ in range(rng.randint(0, 9))]
            b = kernels.poly_inverse_mod(a, f, p, k)
            if kernels.poly_xgcd_mod(f, a, p)[0] != [1]:
                assert b is None
                continue
            assert len(b) < len(f)
            ab = kernels.poly_mul_mod(a, b, m)
            assert kernels.poly_divmod_monic_mod(ab, f, m)[1] == [1]
    # a repeated root mod p shares a factor with the derivative
    f = [0, 0, 0, 0, 0, 1, -2, 1]             # x^5 (x - 1)^2
    assert kernels.poly_inverse_mod(
        kernels.poly_deriv_mod(f, 7 ** 5), f, 7, 5) is None


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
    # the lengths on both sides of 16, where products once switched to
    # Kronecker substitution; negative and unreduced coefficients
    rng = random.Random(31)
    lengths = (1, 2, 15, 16, 17, 32, 100, 600)
    for mod in MODULI:
        for la in lengths:
            for lb in lengths:
                a = [rng.randrange(-3 * mod, 3 * mod) for _ in range(la)]
                b = [rng.randrange(-3 * mod, 3 * mod) for _ in range(lb)]
                assert kernels.poly_mul_mod(a, b, mod) == \
                    schoolbook_mul(a, b, mod), (mod, la, lb)
        # a product that vanishes mod mod trims to the empty list
        assert kernels.poly_mul_mod([mod] * 40, [-1] * 40, mod) == []


def test_divmod_against_schoolbook():
    # divisor degrees up to 120 (the Psi oracle divides by Q^p, of degree
    # 7p), dividends from shorter than the divisor to many times longer,
    # negative and unreduced coefficients
    rng = random.Random(37)
    for mod in MODULI:
        for db in (1, 7, 31, 32, 33, 77, 120):
            b = [rng.randrange(-2 * mod, 2 * mod) for _ in range(db)] + [1]
            for la in (0, 1, db, db + 1, 2 * db + 3, 600):
                a = [rng.randrange(-2 * mod, 2 * mod) for _ in range(la)]
                assert kernels.poly_divmod_monic_mod(a, b, mod) == \
                    schoolbook_divmod(a, b, mod), (mod, db, la)


def test_unpack_inverts_pack():
    # residues mod m in, the same residues out; slots wider than the
    # residues need, and an unreduced packed sum read back mod m
    rng = random.Random(41)
    for m in MODULI:
        for n in (1, 7, 13, 40):
            slot = kernels.slot_bytes(m, n)
            xs = [rng.randrange(m) for _ in range(n)]
            assert kernels.unpack(kernels.pack(xs, slot), slot, n, m) == xs
            big = [rng.randrange(3 * m) for _ in range(n)]
            assert kernels.unpack(kernels.pack(big, slot), slot, n, m) == \
                [x % m for x in big]
            ys = [rng.randrange(m) for _ in range(n)]
            both = kernels.pack(xs, slot) + 5 * kernels.pack(ys, slot)
            assert kernels.unpack(both, slot, n, m) == \
                [(x + 5 * y) % m for x, y in zip(xs, ys)]
        assert kernels.unpack(0, 3, 4, m) == [0] * 4


@pytest.mark.parametrize("p,N", [(7, 18), (11, 26), (293, 36)],
                         ids=["A@7", "B@11", "largest-admitted"])
def test_slot_holds_the_sums_it_is_sized_for(p, N):
    """A slot of slot_bytes(m, n) bytes holds any sum of 2n, so also of n,
    products of residues mod m, for m = p^W at the budget of a run: the
    pole map's slots sum 7 products, and it has 13 slots."""
    assert estimated_seconds(p, N) <= COST_CAP_S
    m = p ** _budget(p, N)[2]
    for n in (7, 13):
        room = 256 ** kernels.slot_bytes(m, n)
        assert n * (m - 1) ** 2 < 2 * n * (m - 1) ** 2 < room
        # the largest such sum in each of n slots reads back exactly
        top = [2 * n * (m - 1) ** 2] * n
        packed = kernels.pack(top, kernels.slot_bytes(m, n))
        assert kernels.unpack(packed, kernels.slot_bytes(m, n), n,
                              room) == top


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


def test_sieve_masks_match_horner_at_every_residue():
    # a unit b mod q reads its mask from the one table of b = 1, as
    # s(a, b) d7 b = b^8 s(a / b, 1) d7 mod q; every residue b of every
    # modulus must give the mask of s(a, b) d7 b evaluated at each a
    rng = random.Random(5)
    cases = [search_inputs(make_curve(c, s).original) for c, s in (
        (CURVE_A_COEFFS, None), (CURVE_B_COEFFS, CURVE_B_SCALING),
        (CURVE_C_COEFFS, None))]
    cases += [(planted_curve(rng, d7), d7) for d7 in (1, 3, 4, 12)]
    height = 40
    every_a = (1 << (2 * height + 1)) - 1
    for cnum, d7 in cases:
        for q in kernels.SIEVE_MODULI:
            table = kernels._square_flags(cnum, d7, q, 1)
            squares = {r * r % q for r in range(q)}
            for b in range(q):
                want = 0
                for i, a in enumerate(range(-height, height + 1)):
                    s = sum(c * a ** k * b ** (7 - k)
                            for k, c in enumerate(cnum))
                    if s * d7 * b % q in squares:
                        want |= 1 << i
                got = kernels._sieve_mask(cnum, d7, q, b, height, table)
                assert (every_a if got is None else got) == want, (q, b)
