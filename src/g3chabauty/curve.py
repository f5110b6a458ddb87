"""Hyperelliptic curve models y^2 = F(x) of genus 3 and their points.

A curve enters as an exact rational coefficient list (constant first) of odd
degree 7.  Internally everything runs on a monic integral model obtained by
the substitution (x, y) -> (u*xm, v*ym) with v^2 = g7 * u^7; the default
choice after clearing denominators is u = 1/c, v = 1/c^3 with c the leading
coefficient, so monic coefficients are F_i = g_i * c^(6-i).  Reports convert
back through the stored (u, v).

The exact algebra the model needs is done here in pure Python: primality
by trial division; the two squarefree tests, gcd(F, F') = 1 over Q by
Euclid's algorithm on Fractions (the curve is nonsingular) and over F_p
(p is a prime of good reduction: for a monic p-integral F, p divides
disc(F) exactly when F mod p has a repeated factor, so no discriminant
is computed); and the factorisation of F over Q by Zassenhaus's method
(distinct- and equal-degree splitting modulo a small prime on the
``_kernels`` F_p helpers, Hensel lifting past the Mignotte bound,
recombination by exact trial division).  Working primes are capped
at ``PRIME_CAP``; ``HEIGHT_CAP`` and ``PREC_CAP`` cap the point search
height and the precision of an analysis, ``PREC_MIN`` is the least
precision whose Frobenius audit can pass, ``COST_CAP_S`` caps the
estimated seconds of an analysis (``estimated_seconds``) and of a
brute-force zeta check (``estimated_brute_seconds``), and
``NUMBER_DIGITS_CAP`` and ``SCALING_DIGITS_CAP`` cap the digits of the
numbers a job gives and of the monic scaling they make.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

from . import _kernels as kernels
from .errors import BadReductionError, InputError
from .padic import PadicNumber, hensel_lift_root, ord_p
from .recognize import eval_exact, primitive_poly, rational_sqrt


# The largest working prime check_prime and choose_prime accept; it bounds
# trial division.  What a job may cost is bounded by COST_CAP_S below.
PRIME_CAP = 300

# The largest estimated analysis time, in seconds, that
# pipeline.check_inputs accepts, and the model behind the estimate:
# COST_SCALE p^COST_P_EXP N^COST_N_EXP seconds, a least-squares fit of
# log seconds to log p and log N over the 10 rows of at least 5 s below,
# its scale 4.72e-7 raised by the worst row-to-fit ratio, 1.279.
# Each row is one `g3chabauty analyze --job data/job_ex1.json --p P --N N`
# (curve A, exit 0), wall seconds on a 2-vCPU host:
#     p = 7:   N = 18: 0.4    N = 60: 1.0    N = 120: 5.1   N = 200: 20.0
#     p = 11:  N = 26: 0.7
#     p = 23:  N = 50: 4.7
#     p = 37:  N = 10: 0.8    N = 40: 6.6    N = 78: 42.8
#     p = 101: N = 10: 3.2    N = 20: 9.9    N = 40: 50.4   N = 80: 489
#     p = 211: N = 10: 11.0
#     p = 293: N = 10: 21.2   N = 20: 82.4
# So the model is 1.00 to 1.67 times each fitted row, never below one; the
# largest row, p = 101 at N = 80, sets the scale, and below 5 s the
# interpreter's start dominates.  It admits every prime at N = 10, the
# default N = 2p + 4 up to p = 61, p = 101 up to N = 86 and p = 293 up to
# N = 36.
COST_CAP_S = 600
COST_SCALE = 6.04e-7
COST_P_EXP = 2.032
COST_N_EXP = 2.541


def estimated_seconds(p, N):
    """The cost model's seconds for one analysis at prime p, precision N."""
    return COST_SCALE * p ** COST_P_EXP * N ** COST_N_EXP


# The brute-force zeta check (zeta --brute-check) visits each of the p^3
# elements x of F_(p^3) twice, to mark x^2 in a table of squares and to
# look f(x) up in it, so its cost grows like p^3.  `g3chabauty zeta
# --curve data/curve_a.json --p P --brute-check` took, in wall seconds on
# a 2-vCPU host, 3.47 s at p = 37, 8.86 s at 53, 22.0 s at 71, 64.3 s at
# 101, 181 s at 139 and 481 s at 199: seconds / p^3 of 6.84e-5, 5.95e-5,
# 6.14e-5, 6.24e-5, 6.74e-5 and 6.10e-5.  BRUTE_SCALE is the largest
# ratio rounded up, so the p^3 model lies above every row; against
# COST_CAP_S it admits p up to 205 (the prime 199).
BRUTE_SCALE = 6.9e-5


def estimated_brute_seconds(p):
    """The cost model's seconds for the brute-force zeta check at p."""
    return BRUTE_SCALE * p ** 3

# The largest rational point search height and p-adic precision N that
# pipeline.check_inputs accepts.  The search grows like the height squared
# and the analysis like a power of N: at the caps, curve A's search takes
# about a minute and its analysis at p = 7 about 20 s; at larger p the cost
# cap above bounds N.
HEIGHT_CAP = 10 ** 5
PREC_CAP = 200

# The least precision N pipeline.check_inputs accepts.  The Frobenius audit
# checks the zeta coefficient b_6 = p^3, which is 0 mod p^N for N <= 3, so
# it could not pass below it.
PREC_MIN = 4

# The most digits, and the largest exponent, of the literal of a number in
# a job (a coefficient, a scaling entry or a point coordinate), so
# "1e1000" is at the cap and a number has at most about 2000 digits;
# parse_number checks both before it builds the number, as building
# Fraction("1e10000000") alone takes seconds.  And the most digits of the
# denominator c^3 den of the default monic scaling v = 1/(c^3 den), where
# den is the common denominator of the coefficients and c = g7 den^2; v
# prints in every report.  So every number a report or an error message
# prints stays under Python's limit of 4300 digits for converting an int
# to a string.
NUMBER_DIGITS_CAP = 1000
SCALING_DIGITS_CAP = 4000

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_number(value, what):
    """value, a JSON number or a string such as "-3/8" or "1.5e3", as an
    exact Fraction; InputError naming what when it is not one, or when its
    literal is over NUMBER_DIGITS_CAP."""
    text = str(value)
    if sum(ch.isdigit() for ch in text) > NUMBER_DIGITS_CAP:
        raise InputError("%s has more than %d digits"
                         % (what, NUMBER_DIGITS_CAP))
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > NUMBER_DIGITS_CAP:
        raise InputError("%s has an exponent over %d"
                         % (what, NUMBER_DIGITS_CAP))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError("%s must be a rational number, got %r"
                         % (what, text[:60])) from None


def is_prime(n):
    """Exact primality by trial division; its callers pass n up to
    PRIME_CAP and the small q of _factor_squarefree."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def check_prime_number(p):
    """p as the method takes it: a prime from 7 to PRIME_CAP.  The cap is
    checked first, so trial division only ever sees a p within it."""
    if p > PRIME_CAP:
        raise InputError("prime %d is above the cap %d" % (p, PRIME_CAP))
    if not is_prime(p):
        raise InputError("%d is not prime" % p)
    if p < 7:
        raise InputError("prime must be at least 7")


def _fractions(coeffs):
    return tuple(Fraction(c) for c in coeffs)


class _Point:
    """What the point types share: kind "affine" or "infinity", the
    infinity constructor and the involution y -> -y."""

    __slots__ = ()

    @classmethod
    def infinity(cls):
        return cls("infinity")

    @property
    def is_infinity(self):
        return self.kind == "infinity"

    def involution(self):
        if self.is_infinity:
            return self
        return self._replace(y=-self.y)


class RationalPoint(_Point, namedtuple("RationalPoint", "kind x y",
                                       defaults=(Fraction(0), Fraction(0)))):
    """Exact point: affine (x, y) with Fractions, or the point at infinity."""

    __slots__ = ()

    @staticmethod
    def affine(x, y):
        return RationalPoint("affine", Fraction(x), Fraction(y))

    def coord_strings(self):
        if self.is_infinity:
            return "infinity"
        return [str(self.x), str(self.y)]

    @staticmethod
    def from_json(obj, what="point"):
        if obj == "infinity":
            return RationalPoint.infinity()
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise InputError("%s must be 'infinity' or [x, y]" % what)
        return RationalPoint.affine(parse_number(obj[0], what + " x"),
                                    parse_number(obj[1], what + " y"))


class FpPoint(_Point, namedtuple("FpPoint", "kind x y", defaults=(0, 0))):
    """Reduction of a point mod p; the disk label of the residue disk."""

    __slots__ = ()

    def involution(self, p):
        if self.kind != "affine" or self.y == 0:
            return self
        return FpPoint("affine", self.x, p - self.y)

    def canonical(self, p):
        """Representative of {D, iota(D)} with y in 0..(p-1)//2."""
        if self.kind == "affine" and self.y > (p - 1) // 2:
            return self.involution(p)
        return self

    def label(self):
        if self.is_infinity:
            return "infinity"
        return "(%d,%d)" % (self.x, self.y)


class CurvePoint(_Point, namedtuple("CurvePoint", "kind x y",
                                    defaults=(None, None))):
    """p-adic point on the monic model (or infinity)."""

    __slots__ = ()

    @staticmethod
    def affine(x, y):
        return CurvePoint("affine", x, y)

    def __repr__(self):
        if self.is_infinity:
            return "CurvePoint(infinity)"
        return "CurvePoint(%s, %s)" % (self.x.expansion_str(), self.y.expansion_str())


class CurveModel:
    """Genus-3 odd-degree hyperelliptic curve with its monic working model."""

    def __init__(self, coeffs, scaling=None):
        g = _fractions(coeffs)
        if len(g) != 8 or g[7] == 0:
            raise InputError("expected degree-7 coefficient list, constant first")
        self.original = g
        if scaling is not None:
            u, v = Fraction(scaling[0]), Fraction(scaling[1])
            if v == 0 or v * v != g[7] * u ** 7:
                raise InputError("scaling must satisfy v^2 = g7 * u^7 != 0")
        else:
            den = lcm(*(c.denominator for c in g))
            c = g[7] * den * den
            u, v = Fraction(1, 1) / c, Fraction(1, 1) / (c ** 3 * den)
            if v.denominator >= 10 ** SCALING_DIGITS_CAP:
                raise InputError(
                    "the coefficients make a monic scaling 1/(c^3 den) of "
                    "more than %d digits" % SCALING_DIGITS_CAP)
        # v^2 = g7 u^7, so F7 = 1 (the default: F7 = g7 den^2 / c = 1);
        # user scalings may leave denominators (units away from the working
        # prime); the default path is always Z-integral
        self.F = tuple(g[i] * u ** i / (v * v) for i in range(8))
        self.scale_x = u
        self.scale_y = v

    # -- basic invariants ---------------------------------------------------

    @property
    def genus(self):
        return 3

    def f_coeffs_mod(self, p, prec):
        """Monic-model coefficients as integers mod p^prec."""
        m = p ** prec
        out = []
        for c in self.F:
            if c.denominator % p == 0:
                raise BadReductionError("coefficient denominator divisible by %d" % p)
            out.append(c.numerator * pow(c.denominator, -1, m) % m)
        return out

    def validate(self):
        if not _squarefree_over_q(self.F):
            raise InputError("F is not squarefree: curve is singular")
        return self

    # -- model maps -----------------------------------------------------------

    def to_monic(self, pt: RationalPoint) -> RationalPoint:
        if pt.is_infinity:
            return pt
        return RationalPoint.affine(pt.x / self.scale_x, pt.y / self.scale_y)

    def padic_point(self, pt: RationalPoint, p, prec) -> CurvePoint:
        """The monic-model CurvePoint, to prec absolute digits, of an
        original-model RationalPoint."""
        if pt.is_infinity:
            return CurvePoint.infinity()
        m = self.to_monic(pt)
        return CurvePoint.affine(
            PadicNumber.from_rational(m.x, p, abs_prec=prec),
            PadicNumber.from_rational(m.y, p, abs_prec=prec))

    def to_original(self, point: CurvePoint):
        """The original-model coordinates (x, y), PadicNumbers, of an affine
        monic-model CurvePoint."""
        return point.x * self.scale_x, point.y * self.scale_y

    def scaling_strings(self):
        """The monic scaling (u, v) as the report prints it."""
        return [str(self.scale_x), str(self.scale_y)]

    def is_on_curve_original(self, pt: RationalPoint) -> bool:
        if pt.is_infinity:
            return True
        return pt.y * pt.y == eval_exact(self.original, pt.x)

    # -- primes and reduction --------------------------------------------------

    def is_good_prime(self, p):
        """p >= 7, the scaling and g7 are p-units, F is p-integral and F mod
        p is squarefree."""
        units = (self.scale_x, self.scale_y, self.original[7])
        return (p >= 7 and all(ord_p(q, p) == 0 for q in units)
                and all(c.denominator % p for c in self.F)
                and _squarefree_mod(self.f_coeffs_mod(p, 1), p))

    def choose_prime(self):
        """Smallest good prime."""
        p = next((p for p in range(7, PRIME_CAP + 1)
                  if is_prime(p) and self.is_good_prime(p)), None)
        if p is None:
            raise InputError("no good prime found below %d" % PRIME_CAP)
        return p

    def check_prime(self, p):
        check_prime_number(p)
        if not self.is_good_prime(p):
            raise BadReductionError("bad reduction at %d" % p)
        return p

    def reduce_curve_point(self, pt: CurvePoint, p) -> FpPoint:
        if pt.is_infinity:
            return FpPoint.infinity()
        if (not pt.x.is_zero) and pt.x.valuation < 0:
            return FpPoint.infinity()
        return FpPoint("affine", pt.x.residue(1), pt.y.residue(1))

    def fp_points(self, p):
        """All points of the reduction mod p, infinity included."""
        pts = [FpPoint.infinity()]
        for x, y in kernels.fp_curve_points(self.f_coeffs_mod(p, 1), p):
            pts.append(FpPoint("affine", x, y))
        return pts

    # -- special points -----------------------------------------------------------

    def weierstrass_x_factors(self):
        """Irreducible factors of F over Q as primitive integer coefficient
        tuples (constant first, positive leading coefficient), sorted."""
        if not _squarefree_over_q(self.F):
            raise InputError("F is not squarefree")
        return sorted(_factor_squarefree(list(primitive_poly(self.F))))

    def weierstrass_points_qp(self, p, prec):
        """Finite Weierstrass points over Q_p in the original model:
        {residue of the monic x mod p: (x, min_poly)}, x the lifted root
        (PadicNumber) and min_poly its minimal polynomial over Q (constant
        first, content-free, positive leading coefficient)."""
        ints = self.f_coeffs_mod(p, prec)
        factors = self.weierstrass_x_factors()
        out = {}
        for x0 in range(p):
            if kernels.poly_eval_mod(ints, x0, p) != 0:
                continue
            home = next(fac for fac in factors if kernels.poly_eval_mod(
                [c % p for c in fac], x0, p) == 0)
            out[x0] = (hensel_lift_root(ints, x0, p, prec) * self.scale_x,
                       primitive_poly(c * self.scale_x ** -k
                                      for k, c in enumerate(home)))
        return out

    # -- rational point search ------------------------------------------------------

    def search_rational_points(self, height):
        """Points of the original model with x = a/b, |a|, b <= height,
        plus infinity; exact Fraction verification of every hit."""
        den = lcm(*(c.denominator for c in self.original))
        cnum = [int(c * den) for c in self.original]
        hits = kernels.search_x_squares(cnum, den, height)
        pts = [RationalPoint.infinity()]
        for a, b in hits:
            x = Fraction(a, b)
            y = rational_sqrt(eval_exact(self.original, x))
            if y is None:
                continue
            pts.append(RationalPoint.affine(x, y))
            if y:
                pts.append(RationalPoint.affine(x, -y))
        pts.sort()
        return pts

    # -- serialization ----------------------------------------------------------------

    def coeff_strings(self):
        return [str(c) for c in self.original]

    @staticmethod
    def from_json(obj):
        if isinstance(obj, dict):
            for key in obj:
                if key not in ("coeffs", "scaling"):
                    raise InputError("unknown curve key %r (expected coeffs, "
                                     "scaling)" % (key,))
            coeffs = obj.get("coeffs")
            scaling = obj.get("scaling")
        else:
            coeffs, scaling = obj, None
        if not isinstance(coeffs, (list, tuple)):
            raise InputError("curve JSON needs a 'coeffs' list")
        cs = [parse_number(c, "coefficient %d" % i)
              for i, c in enumerate(coeffs)]
        sc = None
        if scaling is not None:
            if not isinstance(scaling, (list, tuple)) or len(scaling) != 2:
                raise InputError("curve 'scaling' must be a pair [sx, sy]")
            sc = tuple(parse_number(c, "scaling entry %d" % i)
                       for i, c in enumerate(scaling))
        return CurveModel(cs, sc).validate()


# -- exact algebra over Z -----------------------------------------------------
# Integer polynomials are coefficient lists, constant first.

def _squarefree_over_q(f):
    """True when gcd(f, f') = 1 over Q, by Euclid's algorithm on Fractions
    with each divisor made monic (f of nonzero leading coefficient)."""
    a = [Fraction(c) for c in f]
    b = [i * c for i, c in enumerate(a)][1:]
    while any(b):
        while b[-1] == 0:
            b.pop()
        b = [c / b[-1] for c in b]
        # a mod b, left in a[:len(b) - 1]
        for i in range(len(a) - len(b), -1, -1):
            c = a[i + len(b) - 1]
            for j in range(len(b) - 1):
                a[i + j] -= c * b[j]
        a, b = b, a[:len(b) - 1]
    return len(a) == 1


def _squarefree_mod(f, q):
    """True when f mod q keeps its degree and is squarefree: gcd(f, f') = 1
    over F_q."""
    fd = [i * f[i] for i in range(1, len(f))]
    return f[-1] % q != 0 and kernels.poly_xgcd_mod(f, fd, q)[0] == [1]


def _exact_quotient(a, b):
    """a / b when b divides a in Z[x], else None."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + len(b) - 1], b[-1])
        if rem:
            return None
        q[i] = c
        for j, bj in enumerate(b):
            r[i + j] -= c * bj
    return q if not any(r) else None


def _equal_degree_split(g, d, q, rng):
    """Cantor-Zassenhaus: the monic irreducible factors of a monic
    squarefree g over F_q (q odd) whose factors all have degree d."""
    if len(g) - 1 == d:
        return [g]
    half = (q ** d - 1) // 2
    while True:
        a = [rng.randrange(q) for _ in range(len(g) - 1)]
        b = kernels.poly_sub_mod(kernels.poly_pow_mod(a, half, q, g), [1], q)
        u = kernels.poly_xgcd_mod(g, b, q)[0]
        if 1 < len(u) < len(g):
            v = kernels.poly_divmod_monic_mod(g, u, q)[0]
            return (_equal_degree_split(u, d, q, rng)
                    + _equal_degree_split(v, d, q, rng))


def _factor_mod(f, q, rng):
    """Monic irreducible factors of a monic squarefree f over F_q (q odd):
    distinct-degree splitting by gcd(f, x^(q^d) - x), then equal-degree."""
    out = []
    h = x = [0, 1]
    d = 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = kernels.poly_pow_mod(h, q, q, f)
        g = kernels.poly_xgcd_mod(f, kernels.poly_sub_mod(h, x, q), q)[0]
        if len(g) > 1:
            out += _equal_degree_split(g, d, q, rng)
            f = kernels.poly_divmod_monic_mod(f, g, q)[0]
            h = kernels.poly_divmod_monic_mod(h, f, q)[1]
    if len(f) > 1:
        out.append(f)
    return out


def _hensel_step(f, g, h, q, k):
    """From f = g h mod q^k, h monic and coprime to g mod q, the same mod
    q^(2k) (von zur Gathen and Gerhard, *Modern Computer Algebra*,
    Alg. 15.10) with s = 1/g mod h and t = (1 - s g)/h mod q^k."""
    m = q ** k
    mm = m * m
    add, sub = kernels.poly_add_mod, kernels.poly_sub_mod
    mul = kernels.poly_mul_mod
    s = kernels.poly_inverse_mod(g, h, q, k)
    t = kernels.poly_div_exact_mod(sub([1], mul(s, g, m), m), h, m)
    e = sub([c % mm for c in f], mul(g, h, mm), mm)
    c, r = kernels.poly_divmod_monic_mod(mul(s, e, mm), h, mm)
    return add(g, add(mul(t, e, mm), mul(c, g, mm), mm), mm), add(h, r, mm)


def _factor_squarefree(G):
    """Irreducible factors over Z of a primitive squarefree G of positive
    leading coefficient, as primitive tuples (Zassenhaus).

    The monic factors of G modulo the least odd prime q where G stays of
    full degree and squarefree are lifted, one off the cofactor at a time,
    to a modulus m > 2B, B = 2^n sqrt(n+1) max|G_i| lc(G) the Mignotte
    bound for lc(G)/lc(g) * g, g any factor of G.  Every subset of the
    lifts, smallest first, is then tried by exact trial division."""
    n = len(G) - 1
    q = 3
    while not _squarefree_mod(G, q):
        q += 2
        while not is_prime(q):
            q += 2
    lead_inv = pow(G[-1], -1, q)
    mods = _factor_mod([c * lead_inv % q for c in G], q, random.Random(0))
    bound = 2 ** n * (isqrt(n + 1) + 1) * max(abs(c) for c in G) * G[-1]
    m = q
    while m <= 2 * bound:
        m *= m
    lifts = []
    f = G
    for i, h in enumerate(mods[:-1]):
        rest = [G[-1] % q]
        for u in mods[i + 1:]:
            rest = kernels.poly_mul_mod(rest, u, q)
        k = 1
        while q ** k < m:
            rest, h = _hensel_step(f, rest, h, q, k)
            k *= 2
        lifts.append(h)
        f = rest
    lifts.append(kernels.poly_scale_mod(f, pow(G[-1], -1, m), m))

    factors = []
    size = 1
    while 2 * size <= len(lifts):
        for subset in combinations(range(len(lifts)), size):
            cand = [G[-1]]
            for i in subset:
                cand = kernels.poly_mul_mod(cand, lifts[i], m)
            cand = primitive_poly(kernels.balanced(c, m) for c in cand)
            quot = _exact_quotient(G, cand)
            if quot is not None:
                factors.append(cand)
                G = quot
                lifts = [u for i, u in enumerate(lifts) if i not in subset]
                break
        else:
            size += 1
    factors.append(tuple(G))
    return factors
