"""Hyperelliptic curve models y^2 = F(x) of genus 3 and their points.

A curve enters as an exact rational coefficient list (constant first) of odd
degree 7.  Internally everything runs on a monic integral model obtained by
the substitution (x, y) -> (u*xm, v*ym) with v^2 = g7 * u^7; the default
choice after clearing denominators is u = 1/c, v = 1/c^3 with c the leading
coefficient, so monic coefficients are F_i = g_i * c^(6-i).  Reports convert
back through the stored (u, v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from . import _kernels as kernels
from .errors import BadReductionError, InputError
from .padic import INF, hensel_lift_root, ord_p
from .recognize import primitive_poly


def _fractions(coeffs):
    return tuple(Fraction(c) for c in coeffs)


def eval_exact(coeffs, x):
    """Exact Horner value of a constant-first coefficient list at x."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True, order=True)
class RationalPoint:
    """Exact point: affine (x, y) with Fractions, or the point at infinity."""

    kind: str
    x: Fraction = Fraction(0)
    y: Fraction = Fraction(0)

    @staticmethod
    def infinity():
        return RationalPoint("infinity")

    @staticmethod
    def affine(x, y):
        return RationalPoint("affine", Fraction(x), Fraction(y))

    @property
    def is_infinity(self):
        return self.kind == "infinity"

    def involution(self):
        if self.is_infinity:
            return self
        return RationalPoint("affine", self.x, -self.y)

    def coord_strings(self):
        if self.is_infinity:
            return "infinity"
        return [str(self.x), str(self.y)]

    @staticmethod
    def from_json(obj):
        if obj == "infinity":
            return RationalPoint.infinity()
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise InputError("point must be 'infinity' or [x, y]")
        try:
            return RationalPoint.affine(Fraction(str(obj[0])),
                                        Fraction(str(obj[1])))
        except (ValueError, ZeroDivisionError):
            raise InputError("point coordinates must be rational numbers, "
                             "got %r" % (obj,)) from None


@dataclass(frozen=True, order=True)
class FpPoint:
    """Reduction of a point mod p; the disk label of the residue disk."""

    kind: str
    x: int = 0
    y: int = 0

    @staticmethod
    def infinity():
        return FpPoint("infinity")

    @property
    def is_infinity(self):
        return self.kind == "infinity"

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


class CurvePoint:
    """p-adic point on the monic model (or infinity)."""

    __slots__ = ("kind", "x", "y")

    def __init__(self, kind, x=None, y=None):
        self.kind = kind
        self.x = x
        self.y = y

    @staticmethod
    def infinity():
        return CurvePoint("infinity")

    @staticmethod
    def affine(x, y):
        return CurvePoint("affine", x, y)

    @property
    def is_infinity(self):
        return self.kind == "infinity"

    def involution(self):
        if self.is_infinity:
            return self
        return CurvePoint("affine", self.x, -self.y)

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
        F = [g[i] * u ** i / (v * v) for i in range(8)]
        if F[7] != 1:
            raise InputError("normalization failed to produce a monic model")
        # user scalings may leave denominators (units away from the working
        # prime); the default path is always Z-integral
        self.F = tuple(F)
        self.scale_x = u
        self.scale_y = v
        self._disc = None

    # -- basic invariants ---------------------------------------------------

    @property
    def genus(self):
        return 3

    def F_derivative(self):
        return tuple(i * self.F[i] for i in range(1, 8))

    def f_coeffs_mod(self, p, prec):
        """Monic-model coefficients as integers mod p^prec."""
        m = p ** prec
        out = []
        for c in self.F:
            if c.denominator % p == 0:
                raise BadReductionError("coefficient denominator divisible by %d" % p)
            out.append(c.numerator * pow(c.denominator, -1, m) % m)
        return out

    def discriminant(self):
        if self._disc is None:
            import sympy
            x = sympy.Symbol("x")
            poly = sympy.Poly([sympy.Rational(c) for c in reversed(self.F)], x)
            self._disc = Fraction(str(poly.discriminant()))
        return self._disc

    def validate(self):
        if self.discriminant() == 0:
            raise InputError("discriminant vanishes: curve is singular")
        return self

    # -- model maps -----------------------------------------------------------

    def to_monic(self, pt: RationalPoint) -> RationalPoint:
        if pt.is_infinity:
            return pt
        return RationalPoint.affine(pt.x / self.scale_x, pt.y / self.scale_y)

    def is_on_curve_original(self, pt: RationalPoint) -> bool:
        if pt.is_infinity:
            return True
        return pt.y * pt.y == eval_exact(self.original, pt.x)

    # -- primes and reduction --------------------------------------------------

    def is_good_prime(self, p):
        if p < 7:
            return False
        if ord_p(self.discriminant(), p) != 0:
            return False
        for q in (self.scale_x, self.scale_y, self.original[7]):
            if ord_p(q, p) != 0:
                return False
        return all(ord_p(c, p) >= 0 for c in self.F if c != 0)

    def choose_prime(self):
        """Smallest good prime."""
        import sympy
        p = 7
        while not self.is_good_prime(p):
            if p > 10 ** 6:
                raise InputError("no good prime found below 10^6")
            p = int(sympy.nextprime(p))
        return p

    def check_prime(self, p):
        import sympy
        if not sympy.isprime(p):
            raise InputError("%d is not prime" % p)
        if p < 7:
            raise InputError("prime must be at least 7")
        if not self.is_good_prime(p):
            raise BadReductionError("bad reduction at %d" % p)
        return p

    def reduce_point(self, pt: RationalPoint, p) -> FpPoint:
        """Residue disk of a monic-model rational point."""
        if pt.is_infinity:
            return FpPoint.infinity()
        vx = ord_p(pt.x, p) if pt.x != 0 else INF
        if vx < 0:
            return FpPoint.infinity()
        m = p
        xr = pt.x.numerator * pow(pt.x.denominator, -1, m) % m
        yr = pt.y.numerator * pow(pt.y.denominator, -1, m) % m
        return FpPoint("affine", xr, yr)

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

    def coleman_bound(self, p):
        """#C(F_p) + 2g - 2."""
        return len(self.fp_points(p)) + 2 * self.genus - 2

    # -- special points -----------------------------------------------------------

    def weierstrass_x_factors(self):
        """Irreducible factors of F over Q as primitive integer coefficient
        tuples (constant first, positive leading coefficient), sorted."""
        import sympy
        x = sympy.Symbol("x")
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(self.F)], x)
        _, factors = poly.factor_list()
        out = []
        for fac, mult in factors:
            if mult != 1:
                raise InputError("F is not squarefree")
            out.append(primitive_poly(
                Fraction(str(c)) for c in reversed(fac.all_coeffs())))
        out.sort()
        return out

    def weierstrass_points_qp(self, p, prec):
        """Finite Weierstrass points over Q_p: list of dicts with the lifted
        x (PadicNumber), the residue, rationality, and the minimal polynomial
        of x over Q (constant first, content-free, positive leading coeff)."""
        ints = self.f_coeffs_mod(p, prec)
        out = []
        factors = self.weierstrass_x_factors()
        for x0 in range(p):
            if kernels.poly_eval_mod(ints, x0, p) != 0:
                continue
            xlift = hensel_lift_root(ints, x0, p, prec)
            home = None
            for fac in factors:
                if kernels.poly_eval_mod([c % p for c in fac], x0, p) == 0:
                    home = fac
                    break
            rational = home is not None and len(home) == 2
            xrat = None
            if rational:
                xrat = Fraction(-home[0], home[1])
            out.append({
                "x": xlift,
                "residue": x0,
                "rational": rational,
                "x_rational": xrat,
                "min_poly": home,
            })
        out.sort(key=lambda d: d["residue"])
        return out

    # -- rational point search ------------------------------------------------------

    def search_rational_points(self, height):
        """Points of the original model with x = a/b, |a|, b <= height,
        plus infinity; exact Fraction verification of every hit."""
        if height < 0:
            raise InputError("search height must be at least 0, got %d"
                             % height)
        den = lcm(*(c.denominator for c in self.original))
        cnum = [int(c * den) for c in self.original]
        hits = kernels.search_x_squares(cnum, den, height)
        pts = [RationalPoint.infinity()]
        for a, b in hits:
            x = Fraction(a, b)
            rhs = eval_exact(self.original, x)
            if rhs < 0:
                continue
            ynum = isqrt(rhs.numerator)
            yden = isqrt(rhs.denominator)
            if ynum * ynum != rhs.numerator or yden * yden != rhs.denominator:
                continue
            y = Fraction(ynum, yden)
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
            coeffs = obj.get("coeffs")
            scaling = obj.get("scaling")
        else:
            coeffs, scaling = obj, None
        if not isinstance(coeffs, (list, tuple)):
            raise InputError("curve JSON needs a 'coeffs' list")
        try:
            cs = [Fraction(str(c)) for c in coeffs]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError("bad coefficient: %s" % exc) from None
        sc = None
        if scaling is not None:
            if not isinstance(scaling, (list, tuple)) or len(scaling) != 2:
                raise InputError("curve 'scaling' must be a pair [sx, sy]")
            try:
                sc = tuple(Fraction(str(c)) for c in scaling)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError("bad scaling entry: %s" % exc) from None
        return CurveModel(cs, sc).validate()
