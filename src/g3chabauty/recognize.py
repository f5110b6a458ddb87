"""Recognition of p-adic numbers as rationals or quadratic irrationalities.

Rational reconstruction is the classical half-extended Euclid balanced
lift, with one height gate that a fraction must pass to be returned at
all.  Algebraic recognition looks for a short vector in the lattice of
integer relations mod p^N among 1, v, v^2 with an exact integer LLL, gated
by a height bound so that lattice noise of size ~ p^(N/3) is never
mistaken for structure.  exact_point takes a zero's x as a fraction or
from one such search, and y with no search, as the square root of g(x)
over Q or in K = Q(x) that rational_sqrt or element_sqrt takes exactly.
Candidates are only suggestions, verified with QuadraticElement
arithmetic in Q[t]/(minpoly), with no radicals.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from . import _kernels as kernels
from .errors import InputError
from .padic import PadicNumber


def rational_reconstruct(value):
    """The fraction a/b matching value mod p^N that value's n = rel_prec
    digits vouch for, or None: the half-extended Euclid lift, kept only
    when (2h + 1)^2 p^3 <= p^n for h = |a b| of its unit part.  An inexact
    zero needs 4 digits.

    The Euclid pair (r1, s1) is coprime, as its gcd divides p^n and s1 is
    prime to p, so h = r1 |s1|.  Measured on 100,000 uniform random unit
    residues per row, the lift alone returns a fraction for 0.43-1.12% at
    p = 7 and n = 4-16 (0.10-0.39% at p = 11, 0.09-0.25% at p = 13); with
    the gate 0-0.065% at p = 7, at most 0.016% at p = 11 and 0.008% at
    p = 13, and none from n = 12 on.  Of 3,000 random quadratic
    irrationals per row (p = 7, 11, 13; n = 4-16) the gate passes none."""
    if value.is_zero:
        return Fraction(0) if value.abs_prec >= 4 else None
    p, n = value.prime, value.rel_prec
    m = p ** n
    bound = isqrt((m - 1) // 2)
    r0, r1 = m, value.unit % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    h = r1 * abs(s1)
    if r1 == 0 or gcd(s1, p) != 1 or (2 * h + 1) ** 2 * p ** 3 > m:
        return None
    return Fraction(r1, s1) * Fraction(p) ** value.valuation


def rational_sqrt(r):
    """The s >= 0 with s^2 = r for a rational r, or None (negative r too)."""
    r = Fraction(r)
    if r < 0:
        return None
    s = Fraction(isqrt(r.numerator), isqrt(r.denominator))
    return s if s * s == r else None


def eval_exact(coeffs, x):
    """Exact Horner value of a constant-first coefficient list at x, a
    Fraction or a QuadraticElement."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def primitive_poly(coeffs):
    """The integer multiple of a rational coefficient list (constant first)
    with content 1 and positive leading coefficient; None if all are zero."""
    fracs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in fracs))
    ints = [int(c * den) for c in fracs]
    g = gcd(*ints)
    if g == 0:
        return None
    lead = next(c for c in reversed(ints) if c)
    if lead < 0:
        g = -g
    return tuple(c // g for c in ints)


def _lll(rows):
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by the
    independent integer rows, in exact integer arithmetic.

    Cohen, Alg. 2.6.7: the Gram-Schmidt data are kept as the integers
    d[i] (Gram determinant of the first i rows) and lam[k][j] = d[j+1] *
    mu_kj, computed once per row and updated in place by size reduction
    and swaps."""
    b = [list(r) for r in rows]
    n = len(b)
    d = [1, _dot(b[0], b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def size_reduce(k, j):
        if 2 * abs(lam[k][j]) <= d[j + 1]:
            return
        q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
        b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        lam[k][j] -= q * d[j + 1]
        for i in range(j):
            lam[k][i] -= q * lam[j][i]

    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            for j in range(k + 1):
                u = _dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        size_reduce(k, k - 1)
        # Lovasz condition d[k+1] d[k-1] >= (3/4) d[k]^2 - lam[k][k-1]^2;
        # when it fails, swap rows k - 1 and k and update d, lam in place
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            mu = lam[k][k - 1]
            big = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
            for i in range(k + 1, k_max + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
                lam[i][k - 1] = (big * t + mu * lam[i][k]) // d[k + 1]
            d[k] = big
            k = max(1, k - 1)
            continue
        for j in range(k - 2, -1, -1):
            size_reduce(k, j)
        k += 1
    return b


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def small_integer_relation(values):
    """Short integer vector c with sum c_i * values_i = 0 mod p^N, where N
    is the least shared absolute precision; None when nothing beats the
    height gate.  values[0] is normally the constant 1."""
    p = values[0].prime
    k = len(values)
    n = min(v.abs_prec for v in values)
    max_height = p ** max(1, (n - 4) // k)
    # precision must dwarf the height gate or noise wins
    if p ** n <= (2 * max_height) ** k * p * p:
        return None
    m = p ** n
    res = []
    for v in values:
        if (not v.is_zero) and v.valuation < 0:
            raise InputError("relation search needs integral inputs")
        res.append(0 if v.is_zero else v.unit * p ** v.valuation % m)
    pivot = next((i for i, r in enumerate(res) if r % p), None)
    if pivot is None:
        return None
    inv = pow(res[pivot], -1, m)
    rows = []
    for i in range(k):
        row = [0] * k
        if i == pivot:
            row[pivot] = m
        else:
            row[i] = 1
            # balanced representative: same lattice, shorter start
            row[pivot] = kernels.balanced(-res[i] * inv, m)
        rows.append(row)
    best = None
    for vec in _lll(rows):
        height = max(abs(c) for c in vec)
        if height == 0 or height > max_height:
            continue
        if best is None or height < best[0]:
            best = (height, vec)
    if best is None:
        return None
    return primitive_poly(best[1])


def quadratic_relation(value):
    """(c0, c1, c2) primitive with c0 + c1 v + c2 v^2 = 0 mod p^N, or None."""
    one = PadicNumber.from_rational(1, value.prime, abs_prec=value.abs_prec)
    return small_integer_relation([one, value, value * value])


def is_irreducible_quadratic(rel):
    """True when c2 != 0 and the discriminant is not a rational square."""
    c0, c1, c2 = rel
    if c2 == 0:
        return False
    disc = c1 * c1 - 4 * c0 * c2
    if disc >= 0 and isqrt(disc) ** 2 == disc:
        return False
    return True


class QuadraticElement:
    """u + v t in Q[t]/(c2 t^2 + c1 t + c0) with exact Fraction parts."""

    __slots__ = ("u", "v", "minpoly")

    def __init__(self, u, v, minpoly):
        self.u = Fraction(u)
        self.v = Fraction(v)
        self.minpoly = tuple(minpoly)

    @staticmethod
    def generator(minpoly):
        return QuadraticElement(0, 1, minpoly)

    def _like(self, u, v):
        return QuadraticElement(u, v, self.minpoly)

    def __add__(self, other):
        other = self._coerce(other)
        return self._like(self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        c0, c1, c2 = self.minpoly
        cross = self.v * other.v
        # t^2 = -(c1 t + c0) / c2
        u = self.u * other.u - cross * Fraction(c0, c2)
        v = self.u * other.v + self.v * other.u - cross * Fraction(c1, c2)
        return self._like(u, v)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, QuadraticElement):
            if other.minpoly != self.minpoly:
                raise InputError("mixed quadratic fields")
            return other
        return QuadraticElement(other, 0, self.minpoly)

    def trace_norm(self):
        """Trace and norm over Q, exact."""
        c0, c1, c2 = self.minpoly
        tsum = Fraction(-c1, c2)
        return (2 * self.u + self.v * tsum,
                self.u * self.u + self.u * self.v * tsum
                + self.v * self.v * Fraction(c0, c2))

    def inverse(self):
        """Exact multiplicative inverse: the conjugate over the norm."""
        trace, norm = self.trace_norm()
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._like((trace - self.u) / norm, -self.v / norm)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.u == other.u and self.v == other.v


def element_min_poly(el):
    """Minimal polynomial over Q of a QuadraticElement, as a primitive
    integer tuple, constant first, positive leading coefficient."""
    if el.v == 0:
        return primitive_poly((-el.u, 1))
    trace, norm = el.trace_norm()
    return primitive_poly((norm, -trace, 1))


def element_sqrt(z):
    """A w in z's field K with w^2 = z, checked exactly, or None when z is
    no square in K; the other root is -w.  A root has norm n = +-sqrt N(z)
    and trace tau with tau^2 = T(z) + 2n, and w tau = w^2 + w w' = z + n;
    when no n gives a nonzero rational tau, w has trace 0: w = q sqrt D =
    q (2 c2 t + c1), D the discriminant, and z = q^2 D."""
    trace, norm = z.trace_norm()
    root = rational_sqrt(norm)
    if root is None:
        return None
    for n in (root, -root):
        tau = rational_sqrt(trace + 2 * n)
        if tau:
            w = (z + n) * (1 / tau)
            break
    else:
        c0, c1, c2 = z.minpoly
        q = rational_sqrt(z.u / (c1 * c1 - 4 * c0 * c2)) if z.v == 0 else None
        if q is None:
            return None
        w = QuadraticElement(c1 * q, 2 * c2 * q, z.minpoly)
    return w if w * w == z else None


def exact_point(g, x_o, y_o, qx):
    """Exact (x, y) on y^2 = g(x) for the digits (x_o, y_o) of a point, each
    a Fraction or a QuadraticElement, or None; qx is rational_reconstruct
    (x_o).  A rational x gives y = +-s when g(x) = s^2, with the sign y_o
    shows, and the generator of Q[t]/(t^2 - g(x)) when g(x) is no rational
    square.  Otherwise (no qx, or a y_o that shows neither sign) one
    lattice search finds a quadratic x, on 1/x_o where v(x_o) < 0 (the
    infinity disk) so that its input is integral, and y is the square root
    of g(x) in Q(x) that y_o shows.  A g(x) that is no square there, or a
    y_o that matches both roots or neither, gives None."""
    if qx is not None:
        r = eval_exact(g, qx)
        s = rational_sqrt(r)
        if s is None:
            return qx, QuadraticElement.generator(primitive_poly((-r, 0, 1)))
        for y in (s, -s):
            if (y_o - y).is_zero:
                return qx, y
    inverted = x_o.valuation < 0
    a_o = 1 / x_o if inverted else x_o
    rel = quadratic_relation(a_o)
    if rel is None or not is_irreducible_quadratic(rel):
        return None
    a = QuadraticElement.generator(rel)
    x = a.inverse() if inverted else a
    w = element_sqrt(eval_exact(g, x))
    if w is None:
        return None
    # a root u + v a reads u + v a_o in Q_p
    ys = [y for y in (w, w * -1) if (y_o - y.u - a_o * y.v).is_zero]
    return (x, ys[0]) if len(ys) == 1 else None


def format_polynomial(rel, var):
    """Display (c0, c1, c2, ...) as a human polynomial like x^2 - x + 1."""
    terms = []
    for d in range(len(rel) - 1, -1, -1):
        c = rel[d]
        if c == 0:
            continue
        if d == 0:
            body = str(abs(c))
        else:
            stem = var if d == 1 else "%s^%d" % (var, d)
            body = stem if abs(c) == 1 else "%d*%s" % (abs(c), stem)
        if not terms:
            terms.append(body if c > 0 else "-" + body)
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    if not terms:
        return "0"
    return " ".join(terms)
