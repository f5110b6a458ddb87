"""Recognition of p-adic numbers as rationals or quadratic irrationalities.

Rational reconstruction is the classical half-extended Euclid balanced
lift.  Algebraic recognition looks for a short vector in the lattice of
integer relations mod p^N among 1, v, v^2 (or 1, a, b) with LLL, gated
by a height bound so that lattice noise of size ~ p^(N/3) is never
mistaken for structure.  Candidates are only suggestions: callers verify
them exactly with QuadraticElement arithmetic, which works in
Q[t]/(minpoly) and never needs radicals or factoring.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import InputError
from .padic import INF


def rational_reconstruct(value):
    """The fraction with numerator and denominator below sqrt(p^N / 2)
    matching value mod p^N, or None.

    A random residue admits a balanced lift just under the bound with
    roughly constant probability, so candidates with num * den within p^3
    of the modulus are rejected as noise; true fractions of moderate
    height are unaffected."""
    if value.is_zero:
        return Fraction(0)
    p = value.prime
    n = value.rel_prec
    if n == INF:
        return Fraction(value.unit) * Fraction(p) ** value.valuation
    if n < 4:
        return None
    m = p ** n
    r = value.unit % m
    bound = isqrt((m - 1) // 2)
    r0, r1 = m, r
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r1 == 0 or abs(s1) > bound or gcd(abs(s1), p) != 1:
        return None
    if 2 * r1 * abs(s1) * p ** 3 > m:
        return None
    return Fraction(r1, s1) * Fraction(p) ** value.valuation


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


def small_integer_relation(values):
    """Short integer vector c with sum c_i * values_i = 0 mod p^N, where N
    is the least shared absolute precision; None when nothing beats the
    height gate.  values[0] is normally the constant 1."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    p = values[0].prime
    k = len(values)
    n = min(v.abs_prec for v in values)
    if n == INF:
        raise InputError("exact inputs need no lattice")
    n = int(n)
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
        if i == pivot:
            row = [0] * k
            row[pivot] = m
        else:
            row = [0] * k
            row[i] = 1
            # balanced representative, same lattice: with entries in
            # [0, m) sympy's lll() fails its own size-reduction assert on
            # some bases (curve A at p = 7, N >= 38)
            r = -(res[i] * inv) % m
            row[pivot] = r - m if r > m // 2 else r
        rows.append(row)
    reduced = DomainMatrix(rows, (k, k), ZZ).lll().to_list()
    best = None
    for row in reduced:
        vec = [int(c) for c in row]
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
    one = _padic_one(value)
    return small_integer_relation([one, value, value * value])


def linear_relation(a, b):
    """(c0, c1, c2) primitive with c0 + c1 a + c2 b = 0 mod p^N, or None."""
    return small_integer_relation([_padic_one(a), a, b])


def _padic_one(like):
    from .padic import PadicNumber
    prec = like.abs_prec
    if prec == INF:
        return PadicNumber.from_rational(1, like.prime, rel_prec=64)
    return PadicNumber.from_rational(1, like.prime, abs_prec=int(prec))


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

    @staticmethod
    def rational(value, minpoly):
        return QuadraticElement(value, 0, minpoly)

    def _like(self, u, v):
        return QuadraticElement(u, v, self.minpoly)

    def __add__(self, other):
        other = self._coerce(other)
        return self._like(self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        other = self._coerce(other)
        return self._like(self.u - other.u, self.v - other.v)

    def __mul__(self, other):
        other = self._coerce(other)
        c0, c1, c2 = self.minpoly
        cross = self.v * other.v
        # t^2 = -(c1 t + c0) / c2
        u = self.u * other.u - cross * Fraction(c0, c2)
        v = self.u * other.v + self.v * other.u - cross * Fraction(c1, c2)
        return self._like(u, v)

    def _coerce(self, other):
        if isinstance(other, QuadraticElement):
            if other.minpoly != self.minpoly:
                raise InputError("mixed quadratic fields")
            return other
        return QuadraticElement(other, 0, self.minpoly)

    def inverse(self):
        """Exact multiplicative inverse via the conjugate over Q."""
        c0, c1, c2 = self.minpoly
        if self.v == 0:
            if self.u == 0:
                raise ZeroDivisionError("inverse of zero")
            return self._like(1 / self.u, 0)
        tsum = Fraction(-c1, c2)
        norm = (self.u * self.u + self.u * self.v * tsum
                + self.v * self.v * Fraction(c0, c2))
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._like((self.u + self.v * tsum) / norm, -self.v / norm)

    @property
    def is_zero(self):
        return self.u == 0 and self.v == 0

    def __eq__(self, other):
        other = self._coerce(other)
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v, self.minpoly))

    @staticmethod
    def evaluate_poly(coeffs, point):
        acc = QuadraticElement.rational(0, point.minpoly)
        for c in reversed(list(coeffs)):
            acc = acc * point + QuadraticElement.rational(c, point.minpoly)
        return acc


def element_min_poly(el):
    """Minimal polynomial over Q of a QuadraticElement, as a primitive
    integer tuple, constant first, positive leading coefficient."""
    c0, c1, c2 = el.minpoly
    if el.v == 0:
        return primitive_poly((-el.u, 1))
    tsum = Fraction(-c1, c2)
    tr = 2 * el.u + el.v * tsum
    nm = el.u * el.u + el.u * el.v * tsum + el.v * el.v * Fraction(c0, c2)
    return primitive_poly((nm, -tr, 1))


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
