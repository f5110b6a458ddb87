"""Dense polynomial arithmetic modulo N, point counting and point search.

This is the one home of the exact arithmetic behind Frobenius, Cantor
addition, Hensel lifting, root isolation, factoring and recognition: the
products and divisions mod N (poly_div_exact_mod raises PrecisionError on a
nonzero remainder), powers modulo N and an optional monic modulus
(poly_pow_mod), the Newton inverse modulo a monic polynomial and p^k
(poly_inverse_mod), the balanced residue (balanced), the affine point
counts over F_p and GF(p^k), and the zeta numerator those counts give
(brute_zeta_numerator), which checks Frobenius without it.  It imports no
package module but errors, so every layer can build on it.  Polynomials
are little-endian integer coefficient lists; every function takes its
(possibly huge) modulus explicitly.  Products are schoolbook: packing
both operands into one integer (Kronecker substitution) was measurably
faster only for the long squarings of Frobenius's Q^p at large p (about
4% of a Frobenius run at p = 101).  The packed format is one integer
holding residues in fixed slots of whole bytes, lowest first (pack,
unpack, slot_bytes); Frobenius packs its linear maps that way, so that
one sum of integer multiples applies a map to a whole polynomial.
Division by a monic polynomial is schoolbook: every divisor has small
degree, as Frobenius builds Psi by Horner's rule in Dt on packed Q-adic
digits and never divides by Q^p.  The count over GF(p^k) runs on these
same products and divisions, with one table of p^k bytes marking the
squares.  The rational point search rejects most x = a/b by squares
modulo small moduli, with one Python int as a bit array over all a per
(modulus, b mod modulus), before any big-integer evaluation.
Callers look these names up as ``kernels.<name>`` at call time, so a
wrapper installed on the module (as perfbench/tracing.py does) sees
every call.
"""

from itertools import product
from math import gcd, isqrt

from .errors import PrecisionError

# recorded on the benchmark's info line (perfbench/worker.py)
BACKEND = "python"


def poly_trim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def poly_add_mod(a, b, mod):
    """a + b; coefficients past the shorter operand are copied unreduced."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % mod
    return poly_trim(out)


def poly_sub_mod(a, b, mod):
    """a - b; coefficients of a past the end of b are copied unreduced."""
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % mod
    return poly_trim(out)


def poly_scale_mod(a, c, mod):
    return poly_trim([ai * c % mod for ai in a])


def poly_shift(a, k):
    """a * x^k."""
    return [0] * k + list(a) if a else []


def poly_deriv_mod(a, mod):
    return poly_trim([i * a[i] % mod for i in range(1, len(a))])


def pack(coeffs, slot):
    """One integer holding coeffs, each in [0, 256^slot), in slots of slot
    bytes, lowest first."""
    return int.from_bytes(b"".join([c.to_bytes(slot, "little")
                                    for c in coeffs]), "little")


def unpack(value, slot, n, m):
    """The n slots of a packed value below 256^(n slot), each reduced mod
    m; m = 256^slot reads them unreduced."""
    raw = value.to_bytes(n * slot, "little")
    return [int.from_bytes(raw[k:k + slot], "little") % m
            for k in range(0, n * slot, slot)]


def slot_bytes(m, n):
    """Bytes of a packed slot that holds any sum of 2n products of
    residues mod m."""
    return (2 * m.bit_length() + (2 * n).bit_length() + 7) // 8


def poly_product(a, b, n=None):
    """a * b for nonempty a and b, coefficients unreduced; with n, only
    the first n coefficients."""
    if n is None:
        n = len(a) + len(b) - 1
    else:
        a, b = a[:n], b[:n]
    out = [0] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b[:n - i]):
            out[i + j] += ai * bj
    return out


def poly_mul_mod(a, b, mod):
    """Dense product of coefficient lists modulo mod."""
    if not a or not b:
        return []
    return poly_trim([c % mod for c in poly_product(a, b)])


def poly_divmod_monic_mod(a, b, mod):
    """Quotient and remainder of a by a monic b, modulo mod."""
    db = len(b) - 1
    if db < 0 or b[db] != 1:
        raise ValueError("divisor must be monic and nonzero")
    r = [c % mod for c in a]
    if len(r) <= db:
        return [], poly_trim(r)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if not c:
            continue
        q[i - db] = c
        r[i] = 0
        for j in range(db):
            r[i - db + j] = (r[i - db + j] - c * b[j]) % mod
    return poly_trim(q), poly_trim(r[:db])


def poly_div_exact_mod(a, b, mod):
    """a / b for a monic b, modulo mod; PrecisionError when b leaves a
    nonzero remainder."""
    q, r = poly_divmod_monic_mod(a, b, mod)
    if r:
        raise PrecisionError("inexact division by a monic polynomial")
    return q


def poly_pow_mod(base, e, mod, modulus=None):
    """base^e modulo mod and, when one is given, the monic modulus."""
    def reduce(a):
        return poly_divmod_monic_mod(a, modulus, mod)[1] if modulus else a
    result = [1]
    b = reduce(list(base))
    while e:
        if e & 1:
            result = reduce(poly_mul_mod(result, b, mod))
        e >>= 1
        if e:
            b = reduce(poly_mul_mod(b, b, mod))
    return result


def poly_xgcd_mod(a, b, p):
    """(g, s, t) over F_p with g = gcd(a, b) monic and s*a + t*b = g."""
    r0, r1 = poly_trim([c % p for c in a]), poly_trim([c % p for c in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        q, r = poly_divmod_monic_mod(r0, poly_scale_mod(r1, inv, p), p)
        q = poly_scale_mod(q, inv, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub_mod(s0, poly_mul_mod(q, s1, p), p)
        t0, t1 = t1, poly_sub_mod(t0, poly_mul_mod(q, t1, p), p)
    inv = pow(r0[-1], -1, p) if r0 else 1
    return (poly_scale_mod(r0, inv, p), poly_scale_mod(s0, inv, p),
            poly_scale_mod(t0, inv, p))


def poly_inverse_mod(a, f, p, k):
    """b with a b = 1 modulo the monic f and p^k, or None when a is not a
    unit modulo (f, p).  Newton from the inverse mod p (poly_xgcd_mod):
    b <- b (1 + r) mod f for the defect r = (1 - a b) mod f squares r, so
    the digits known double up to k."""
    g, _, b = poly_xgcd_mod(f, a, p)
    if g != [1]:
        return None
    known = 1
    while known < k:
        known = min(2 * known, k)
        mm = p ** known
        r = poly_divmod_monic_mod(
            poly_sub_mod([1], poly_mul_mod(b, a, mm), mm), f, mm)[1]
        b = poly_divmod_monic_mod(
            poly_add_mod(b, poly_mul_mod(b, r, mm), mm), f, mm)[1]
    return b


def balanced(r, m):
    """The representative of r mod m in (-m/2, m/2]."""
    r %= m
    return r - m if r > m // 2 else r


def poly_eval_mod(coeffs, x, mod):
    """Horner evaluation of a coefficient list at x modulo mod."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def hensel_lift(f, fd, x, p, prec):
    """Newton lift of x, a root of f mod p with fd = f' a unit there, to the
    root of f mod p^prec; the known digits double each step."""
    e = 1
    while e < prec:
        e = min(2 * e, prec)
        m = p ** e
        x = (x - poly_eval_mod(f, x, m)
             * pow(poly_eval_mod(fd, x, m), -1, m)) % m
    return x


def fp_curve_points(f_coeffs, p):
    """Affine points (x, y) of y^2 = f(x) over F_p, ordered by (x, y)."""
    root = [-1] * p
    for y in range((p - 1) // 2, -1, -1):
        root[y * y % p] = y
    pts = []
    for x in range(p):
        fx = poly_eval_mod(f_coeffs, x, p)
        y = root[fx]
        if y < 0:
            continue
        if y == 0:
            pts.append((x, 0))
        else:
            pts.append((x, y))
            pts.append((x, p - y))
    pts.sort()
    return pts


def count_points_gf(f_coeffs, p, k):
    """#{(x, y) in GF(p^k)^2 : y^2 = f(x)} (affine points only), k <= 3.

    GF(p^k) = F_p[T] / (T^k + aT + b) for the least a, then the least
    b >= 1, with no root in F_p, which up to degree 3 makes it irreducible
    (k = 1 is F_p itself).  An element u has the index u(p), its digits
    read in base p.  One pass marks the index of x^2 for every x in a table
    of p^k bytes; a second counts each x once when f(x) = 0 and twice when
    f(x) is a marked square.  Products are poly_mul_mod, reduced by
    poly_divmod_monic_mod.
    """
    if k == 1:
        return len(fp_curve_points(f_coeffs, p))
    if k > 3:
        raise ValueError("no root proves irreducibility only up to degree 3")
    q = p ** k
    modulus = next([b, a] + [0] * (k - 2) + [1]
                   for a in range(p) for b in range(1, p)
                   if all((pow(x, k, p) + a * x + b) % p for x in range(p)))

    def reduced(u):
        return poly_divmod_monic_mod(u, modulus, p)[1]

    square = bytearray(q)
    for x in product(range(p), repeat=k):
        square[poly_eval_mod(reduced(poly_mul_mod(x, x, p)), p, q)] = 1
    fc = [c % p for c in reversed(f_coeffs)]
    total = 0
    for x in product(range(p), repeat=k):
        fx = []
        for c in fc:
            fx = poly_add_mod(reduced(poly_mul_mod(fx, x, p)), [c], p)
        if not fx:
            total += 1
        elif square[poly_eval_mod(fx, p, q)]:
            total += 2
    return total


def brute_zeta_numerator(f_coeffs, p):
    """Zeta numerator [b0..b6] of y^2 = f(x), f given mod p, from the naive
    counts over F_p, F_p^2 and F_p^3 (count_points_gf, about p^3 steps) by
    Newton's identities and the functional equation."""
    counts = [count_points_gf(f_coeffs, p, k) + 1 for k in (1, 2, 3)]
    pi = [p ** k + 1 - counts[k - 1] for k in (1, 2, 3)]
    e1 = pi[0]
    e2, rem = divmod(e1 * pi[0] - pi[1], 2)
    if rem:
        raise ArithmeticError("inconsistent point counts")
    e3, rem = divmod(e2 * pi[0] - e1 * pi[1] + pi[2], 3)
    if rem:
        raise ArithmeticError("inconsistent point counts")
    return [1, -e1, e2, -e3, p * e2, -p * p * e1, p ** 3]


# Sieve moduli of the point search: 16 and 9 stand for the primes 2 and 3.
SIEVE_MODULI = (16, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61)


def _square_flags(cnum, d7, q, b):
    """[s(a, b) d7 b is a square mod q, for a in range(q)], by Horner's
    rule in a.  Squares include 0."""
    squares = {r * r % q for r in range(q)}
    # coefficients of s(a, b) as a polynomial in a, highest first
    top = [cnum[i] * pow(b, 7 - i, q) % q for i in range(7, -1, -1)]
    scale = d7 * b % q
    flags = []
    for a in range(q):
        s = 0
        for c in top:
            s = (s * a + c) % q
        flags.append(s * scale % q in squares)
    return flags


def _sieve_mask(cnum, d7, q, b, height, table):
    """Bits i of [0, 2 height] with s(a, b) d7 b a square mod q at
    a = i - height, or None when every a passes.  table is
    _square_flags(cnum, d7, q, 1): for b a unit mod q,
    s(a, b) d7 b = b^8 s(a / b, 1) d7 mod q and b^8 is a unit square, so a
    passes when a / b mod q does at b = 1; other b take Horner's rule."""
    if gcd(b, q) == 1:
        binv = pow(b, -1, q)
        flags = [table[a * binv % q] for a in range(q)]
    else:
        flags = _square_flags(cnum, d7, q, b)
    if all(flags):
        return None
    pattern = 0
    for a, ok in enumerate(flags):
        if ok:
            pattern |= 1 << (a + height) % q
    width = 2 * height + 1
    length = q
    while length < width:
        pattern |= pattern << length
        length *= 2
    return pattern & ((1 << width) - 1)


def search_x_squares(cnum, d7, height):
    """Inner loop of the rational point search for y^2 = F(x), deg F = 7.

    F_i = cnum[i] / d7 exactly with d7 > 0 the common denominator.  For
    x = a/b in lowest terms, F(a/b) = s / (d7 b^7) with
    s = sum_i cnum[i] a^i b^(7-i), and F(a/b) is a rational square iff
    s * d7 * b is a perfect square (b > 0).  Returns the list of such
    (a, b), b increasing, then a increasing, over |a| <= height and
    1 <= b <= height.

    A square is a square modulo every q, so a sieve in the style of Stoll's
    ratpoints rejects most a first: for each modulus q of SIEVE_MODULI and
    each residue b mod q, the a in [-height, height] with s * d7 * b a
    square mod q (0 counts) form one Python int of 2 height + 1 bits, the
    residue pattern tiled by doubling; every unit b reads its pattern from
    the one table of b = 1.  For each b the masks of all moduli
    are ANDed, and only the surviving a go through the coprimality test
    and the exact big-integer check.
    """
    hits = []
    masks = {q: {} for q in SIEVE_MODULI}
    tables = {q: _square_flags(cnum, d7, q, 1) for q in SIEVE_MODULI}
    every_a = (1 << (2 * height + 1)) - 1
    for b in range(1, height + 1):
        alive = every_a
        for q, cache in masks.items():
            r = b % q
            if r not in cache:
                cache[r] = _sieve_mask(cnum, d7, q, r, height, tables[q])
            if cache[r] is not None:
                alive &= cache[r]
        bpows = [1] * 8
        for i in range(1, 8):
            bpows[i] = bpows[i - 1] * b
        while alive:
            low = alive & -alive
            alive ^= low
            a = low.bit_length() - 1 - height
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
