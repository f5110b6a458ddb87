"""Helpers that only tests call: a square root mod p^n by residue search,
a p-adic square root with a chosen branch, a random d whose square root is in Q_p but not in Q, the tiny integral,
the termwise integral inside one residue disk that tests set against the
Frobenius-based Coleman integrals, and a point count
over GF(p^k) by Euler's criterion on a modulus of its own
(`_last_rootless_low`), set against the kernels' table of squares and
under the brute-force zeta oracle."""

from math import isqrt

from g3chabauty import _kernels as kernels
from g3chabauty.curve import CurvePoint
from g3chabauty.errors import InputError
from g3chabauty.localdisk import LocalExpansion, form_series
from g3chabauty.padic import PadicNumber


def sqrt_mod_pn(a_unit, p, n):
    """A square root of the unit a_unit mod p^n, or None if a is not a QR."""
    r0 = next((r for r in range(1, p) if (r * r - a_unit) % p == 0), None)
    if r0 is None:
        return None
    return kernels.hensel_lift([-a_unit, 0, 1], [0, 2], r0, p, n)


def padic_sqrt(a, branch=None):
    """Square root with deterministic branch choice.

    Needs even valuation and a quadratic-residue unit.  By default the root
    whose unit residue mod p lies in 1..(p-1)/2 is returned; passing `branch`
    (an integer residue mod p, or a PadicNumber) selects the root congruent to
    it mod p instead.
    """
    if a.is_exact_zero:
        return a
    if a.is_zero:
        return PadicNumber.zero(a.prime, (a.valuation + 1) // 2)
    if a.valuation % 2:
        raise InputError("odd valuation: no square root in Q_p")
    p = a.prime
    r = sqrt_mod_pn(a.unit, p, a.rel_prec)
    if r is None:
        raise InputError("unit is not a quadratic residue mod %d" % p)
    root = PadicNumber(p, a.valuation // 2, r, a.rel_prec)
    if branch is None:
        if root.unit % p > (p - 1) // 2:
            root = -root
    else:
        want = branch.unit % p if isinstance(branch, PadicNumber) else branch % p
        if root.unit % p != want:
            root = -root
            if root.unit % p != want:
                raise InputError("branch hint matches neither square root")
    return root


def nonsquare_qr(p, rng):
    """A random non-square integer d in [2, 200] that is a nonzero square
    mod p, so sqrt(d) lies in Q_p but not in Q."""
    while True:
        d = rng.randint(2, 200)
        if isqrt(d) ** 2 == d:
            continue
        if pow(d % p, (p - 1) // 2, p) == 1:
            return d


def tiny_integral(curve, coeffs, P, Q, p, prec):
    """Coleman integral of the holomorphic form sum_i coeffs[i] w_i between
    two points of the same residue disk, by termwise integration of the
    chart expansion at P."""
    dP = curve.reduce_curve_point(P, p)
    dQ = curve.reduce_curve_point(Q, p)
    if dP != dQ:
        raise InputError("tiny integral endpoints must share a disk")
    # a chart at infinity must sit at infinity, so difference two values
    center = CurvePoint.infinity() if dP.is_infinity else P
    exp = LocalExpansion(curve, center, p, prec)
    F = form_series(coeffs, exp.differential_series()).formal_integral()
    hi = F.evaluate_antiderivative(exp.t_of(Q))
    if not dP.is_infinity:
        return hi
    return hi - F.evaluate_antiderivative(exp.t_of(P))


def _last_rootless_low(p, k):
    """[b, a] for the largest a, then the largest b, with T^k + aT + b
    rootless in F_p (irreducible for k = 2, 3); [0] for F_p itself."""
    if k == 1:
        return [0]
    return next([b, a] + [0] * (k - 2)
                for a in range(p - 1, -1, -1) for b in range(p - 1, 0, -1)
                if all((pow(x, k, p) + a * x + b) % p for x in range(p)))


def count_points_euler(f_coeffs, p, k, modulus_low):
    """#{(x, y) in GF(p^k)^2 : y^2 = f(x)} (affine points only), with
    GF(p^k) = F_p[T] / (T^k + modulus_low(T)), by the quadratic character
    chi(u) = u^((q-1)/2): each x counts once when f(x) = 0 and twice when
    chi(f(x)) = 1.  Its own schoolbook product and power, so it shares no
    arithmetic with the kernels."""
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
