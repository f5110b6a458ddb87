"""Dense polynomial arithmetic modulo N, point counting and point search.

This is the one home of the hot arithmetic behind Frobenius, Cantor
addition, Hensel lifting and root isolation.  Polynomials are
little-endian integer coefficient lists; every function takes its
(possibly huge) modulus explicitly.  Products of long operands use
Kronecker substitution: both are packed into one Python int, so one
C-level big-int multiplication does the work of the schoolbook loop;
division by a monic polynomial of large degree runs block by block on
such products.  The rational point search rejects most x = a/b by
squares modulo small moduli, with one Python int as a bit array over all
a per (modulus, b mod modulus), before any big-integer evaluation.
Callers look these names up as ``kernels.<name>`` at call time, so a
wrapper installed on the module (as perfbench/tracing.py does) sees
every call.
"""

from math import gcd, isqrt

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


# From these sizes on, products run as one big-int multiplication
# (Kronecker substitution) and monic division runs block by block on them.
KRONECKER_MIN_LEN = 16
BLOCK_DIV_MIN_DEG = 32


def _product(a, b, mod):
    """a * b for nonempty a and b, coefficients not yet reduced mod mod.

    Once both operands have KRONECKER_MIN_LEN coefficients they are reduced
    into [0, mod) and packed into one int each, in byte-aligned slots wide
    enough for any coefficient of the product; one multiplication then does
    the work of the whole schoolbook loop.
    """
    if min(len(a), len(b)) < KRONECKER_MIN_LEN:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out
    slot = (2 * mod.bit_length() + min(len(a), len(b)).bit_length() + 15) // 8
    pa = int.from_bytes(b"".join((c % mod).to_bytes(slot, "little")
                                 for c in a), "little")
    pb = int.from_bytes(b"".join((c % mod).to_bytes(slot, "little")
                                 for c in b), "little")
    size = (len(a) + len(b) - 1) * slot
    raw = (pa * pb).to_bytes(size, "little")
    return [int.from_bytes(raw[i:i + slot], "little")
            for i in range(0, size, slot)]


def poly_mul_mod(a, b, mod):
    """Dense product of coefficient lists modulo mod."""
    if not a or not b:
        return []
    return poly_trim([c % mod for c in _product(a, b, mod)])


def _mul_low(a, b, n, mod):
    """The first n coefficients of a * b mod mod, zero-padded to length n."""
    out = [c % mod for c in _product(a, b, mod)[:n]]
    return out + [0] * (n - len(out))


def _series_inverse(c, n, mod):
    """g with c * g = 1 mod (x^n, mod), for c[0] = 1; Newton steps
    g <- g (2 - c g) double the number of correct coefficients."""
    g = [1]
    k = 1
    while k < n:
        k = min(2 * k, n)
        e = [-v % mod for v in _mul_low(c[:k], g, k, mod)]
        e[0] = (e[0] + 2) % mod
        g = _mul_low(g, e, k, mod)
    return g


def poly_divmod_monic_mod(a, b, mod):
    """Quotient and remainder of a by a monic b, modulo mod."""
    db = len(b) - 1
    if db < 0 or b[db] != 1:
        raise ValueError("divisor must be monic and nonzero")
    r = [c % mod for c in a]
    if len(r) <= db:
        return [], poly_trim(r)
    if db >= BLOCK_DIV_MIN_DEG:
        return _divmod_blocks(r, [c % mod for c in b], mod)
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


def _divmod_blocks(r, b, mod):
    """Monic division of reduced r by reduced b, top down, up to deg b
    quotient coefficients per block.  Reversed, the block's quotient is the
    reversed top of r times 1/rev(b), truncated; its product with b then
    cancels that top and changes only the deg b coefficients below it."""
    db = len(b) - 1
    nq = len(r) - db
    inv = _series_inverse(b[::-1], min(db, nq), mod)
    q = [0] * nq
    hi = nq
    while hi:
        lo = max(0, hi - db)
        n = hi - lo
        top = r[lo + db:hi + db][::-1]
        blk = _mul_low(top, inv[:n], n, mod)[::-1]
        q[lo:hi] = blk
        sub = _mul_low(blk, b[:db], db, mod)
        for i in range(db):
            r[lo + i] = (r[lo + i] - sub[i]) % mod
        hi = lo
    return poly_trim(q), poly_trim(r[:db])


def poly_pow_mod(base, e, mod):
    result = [1]
    b = list(base)
    while e:
        if e & 1:
            result = poly_mul_mod(result, b, mod)
        e >>= 1
        if e:
            b = poly_mul_mod(b, b, mod)
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


def count_points_gf(f_coeffs, p, k, modulus_low):
    """#{(x, y) in GF(p^k)^2 : y^2 = f(x)} (affine points only).

    GF(p^k) = F_p[T] / (T^k + modulus_low(T)) with modulus_low of degree < k;
    elements are enumerated as base-p integers.  The count uses the quadratic
    character chi(u) = u^((q-1)/2).
    """
    if k == 1:
        return len(fp_curve_points(f_coeffs, p))
    q = p ** k
    mod_c = list(modulus_low)

    def fmul(u, v):
        out = [0] * (2 * k - 1)
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                out[i + j] = (out[i + j] + ui * vj) % p
        for i in range(2 * k - 2, k - 1, -1):
            c = out[i]
            if not c:
                continue
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * mod_c[j]) % p
        return out[:k]

    def fpow(u, e):
        r = [1] + [0] * (k - 1)
        base = list(u)
        while e:
            if e & 1:
                r = fmul(r, base)
            base = fmul(base, base)
            e >>= 1
        return r

    half = (q - 1) // 2
    one = [1] + [0] * (k - 1)
    fc = [[c % p] + [0] * (k - 1) for c in f_coeffs]
    total = 0
    for n in range(q):
        x = []
        m = n
        for _ in range(k):
            x.append(m % p)
            m //= p
        acc = [0] * k
        for ce in reversed(fc):
            acc = fmul(acc, x)
            acc = [(acc[i] + ce[i]) % p for i in range(k)]
        if all(c == 0 for c in acc):
            total += 1
        elif fpow(acc, half) == one:
            total += 2
    return total


# Sieve moduli of the point search: 16 and 9 stand for the primes 2 and 3.
SIEVE_MODULI = (16, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61)


def _sieve_mask(cnum, d7, q, b, height):
    """Bits i of [0, 2 height] with s(a, b) d7 b a square mod q at
    a = i - height, or None when every a passes.  Squares include 0."""
    squares = {r * r % q for r in range(q)}
    # coefficients of s(a, b) as a polynomial in a, highest first
    top = [cnum[i] * pow(b, 7 - i, q) % q for i in range(7, -1, -1)]
    scale = d7 * b % q
    pattern = 0
    for a in range(q):
        s = 0
        for c in top:
            s = (s * a + c) % q
        if s * scale % q in squares:
            pattern |= 1 << (a + height) % q
    if pattern == (1 << q) - 1:
        return None
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
    residue pattern tiled by doubling.  For each b the masks of all moduli
    are ANDed, and only the surviving a go through the coprimality test
    and the exact big-integer check.
    """
    hits = []
    masks = {q: {} for q in SIEVE_MODULI}
    every_a = (1 << (2 * height + 1)) - 1
    for b in range(1, height + 1):
        alive = every_a
        for q, cache in masks.items():
            r = b % q
            if r not in cache:
                cache[r] = _sieve_mask(cnum, d7, q, r, height)
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
