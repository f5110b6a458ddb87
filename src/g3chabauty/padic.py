"""Capped-precision p-adic numbers.

A nonzero element is stored as unit * p^valuation with the unit known modulo
p^rel_prec, i.e. the value is known modulo p^(valuation + rel_prec).  A zero
"at stated precision" keeps unit = 0, rel_prec = 0 and records the stated
absolute precision in the valuation slot; an exact zero uses an infinite
valuation.  Only zero can be exact: a nonzero element always has finitely
many known digits, and asking for one with infinite precision raises
PrecisionError.  All arithmetic propagates precision pessimistically:
addition works at the minimum absolute precision of the operands,
multiplication and division at the minimum relative precision.  Values
compare by (a - b).is_zero: == raises TypeError, as equality at the lower
of two precisions is not transitive.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from . import _kernels as kernels
from .errors import InputError, PrecisionError

INF = inf


def ord_p(value, p):
    """p-adic valuation of an int or Fraction; INF for zero."""
    if value == 0:
        return INF
    # ints first: nearly every call has one; a Fraction check goes via ABCMeta
    if not isinstance(value, int):
        return ord_p(value.numerator, p) - ord_p(value.denominator, p)
    v = 0
    value = abs(value)
    while value % p == 0:
        value //= p
        v += 1
    return v


class PadicNumber:
    """Immutable capped-precision element of Q_p."""

    __slots__ = ("prime", "valuation", "unit", "rel_prec")

    def __init__(self, prime, valuation, unit, rel_prec):
        if unit == 0:
            # zero at absolute precision `valuation` (INF = exact zero)
            self.prime = prime
            self.valuation = valuation
            self.unit = 0
            self.rel_prec = 0
            return
        if not 1 <= rel_prec < INF:
            # a nonzero value has a known digit, and only zero is exact
            raise PrecisionError("nonzero value with %s known digits"
                                 % rel_prec)
        unit %= prime ** rel_prec
        if unit % prime == 0:
            raise InputError("unit part must be a p-adic unit")
        self.prime = prime
        self.valuation = valuation
        self.unit = unit
        self.rel_prec = rel_prec

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(prime, abs_prec=INF):
        return PadicNumber(prime, abs_prec, 0, 0)

    @staticmethod
    def from_rational(value, prime, abs_prec=None, rel_prec=None):
        """Coerce an exact int or Fraction at the requested precision.

        Exactly one of abs_prec / rel_prec decides how many digits are kept.
        Zero at abs_prec k is O(p^k); with rel_prec, or with no precision,
        it is the exact zero, so x * 0 stays exact.
        """
        value = Fraction(value)
        if value == 0:
            exact = rel_prec is not None or abs_prec is None
            return PadicNumber.zero(prime, INF if exact else abs_prec)
        v = ord_p(value, prime)
        if rel_prec is None:
            if abs_prec is None:
                raise InputError("coercion needs a target precision")
            rel_prec = abs_prec - v
            if rel_prec <= 0:
                return PadicNumber.zero(prime, abs_prec)
        if rel_prec == INF:
            raise PrecisionError(
                "nonzero exact value cannot carry infinite precision")
        m = prime ** rel_prec
        num = value.numerator
        den = value.denominator
        if v >= 0:
            num //= prime ** v
        else:
            den //= prime ** (-v)
        unit = num * pow(den, -1, m) % m
        return PadicNumber(prime, v, unit, rel_prec)

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self):
        """Zero at the stated precision (possibly infinite)."""
        return self.unit == 0

    @property
    def is_exact_zero(self):
        """The exact zero, with infinite valuation."""
        return self.unit == 0 and self.valuation == INF

    @property
    def abs_prec(self):
        if self.unit == 0:
            return self.valuation
        return self.valuation + self.rel_prec

    def _check(self, other):
        if self.prime != other.prime:
            raise InputError("mixed primes %s and %s" % (self.prime, other.prime))

    def _coerce(self, other, for_mul):
        """other as a PadicNumber at self's precision: its relative one for
        * and /, its absolute one for + and -.  Only zero is exact, so a
        nonzero rational meets the exact zero only multiplicatively (the
        product or quotient is the exact zero); added to it, PrecisionError."""
        if isinstance(other, PadicNumber):
            self._check(other)
            return other
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if for_mul:
            return PadicNumber.from_rational(other, self.prime,
                                             rel_prec=max(self.rel_prec, 1))
        return PadicNumber.from_rational(other, self.prime,
                                         abs_prec=self.abs_prec)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other, False)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.abs_prec, other.abs_prec)
        if self.unit == 0 and other.unit == 0:
            return PadicNumber.zero(self.prime, n)
        if self.unit == 0:
            return other._cap(n)
        if other.unit == 0:
            return self._cap(n)
        v0 = min(self.valuation, other.valuation)
        width = n - v0
        if width <= 0:
            raise PrecisionError("no overlapping digits in addition")
        s = (self.unit * self.prime ** (self.valuation - v0)
             + other.unit * self.prime ** (other.valuation - v0))
        s %= self.prime ** width
        if s == 0:
            return PadicNumber.zero(self.prime, n)
        v = ord_p(s, self.prime)
        return PadicNumber(self.prime, v0 + v, s // self.prime ** v, width - v)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        return PadicNumber(self.prime, self.valuation, -self.unit, self.rel_prec)

    def __sub__(self, other):
        other = self._coerce(other, False)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other, True)
        if other is NotImplemented:
            return NotImplemented
        if self.unit == 0 or other.unit == 0:
            # ord(xy) >= ord-floor(x) + ord-floor(y)
            return PadicNumber.zero(self.prime, self.valuation + other.valuation)
        # __init__ reduces the unit
        return PadicNumber(self.prime, self.valuation + other.valuation,
                           self.unit * other.unit,
                           min(self.rel_prec, other.rel_prec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other, True)
        if other is NotImplemented:
            return NotImplemented
        if other.unit == 0:
            raise ZeroDivisionError("division by p-adic zero")
        if self.unit == 0:
            return PadicNumber.zero(self.prime, self.valuation - other.valuation)
        r = min(self.rel_prec, other.rel_prec)
        unit = self.unit * pow(other.unit, -1, self.prime ** r)
        return PadicNumber(self.prime, self.valuation - other.valuation, unit, r)

    def __rtruediv__(self, other):
        other = self._coerce(other, True)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def shift(self, k):
        """Multiply by p^k exactly (no precision change to the unit)."""
        if self.unit == 0:
            return PadicNumber.zero(self.prime, self.valuation + k)
        return PadicNumber(self.prime, self.valuation + k, self.unit, self.rel_prec)

    def _cap(self, abs_prec):
        """Forget digits beyond absolute precision abs_prec."""
        if abs_prec >= self.abs_prec:
            return self
        if self.unit == 0:
            return PadicNumber.zero(self.prime, abs_prec)
        r = abs_prec - self.valuation
        if r <= 0:
            return PadicNumber.zero(self.prime, abs_prec)
        return PadicNumber(self.prime, self.valuation,
                           self.unit % self.prime ** r, r)

    # -- comparisons and representatives ----------------------------------

    def __eq__(self, other):
        raise TypeError("p-adic values compare by (a - b).is_zero, not ==")

    def residue(self, abs_prec):
        """Integer representative modulo p^abs_prec; needs valuation >= 0."""
        if abs_prec > self.abs_prec:
            raise PrecisionError("representative requested beyond known digits")
        if self.unit == 0:
            return 0
        if self.valuation < 0:
            raise InputError("negative valuation has no integer representative")
        return self.unit * self.prime ** self.valuation % self.prime ** abs_prec

    # -- rendering ---------------------------------------------------------

    def digits(self):
        """Base-p digit list of the unit part, least significant first."""
        u = self.unit
        out = []
        for _ in range(self.rel_prec):
            out.append(u % self.prime)
            u //= self.prime
        return out

    def expansion_str(self):
        """Human form 'a0 + a1*p + a2*p^2 + O(p^N)' starting at the
        valuation; the exact zero prints as 0."""
        p = self.prime
        if self.unit == 0:
            if self.valuation == INF:
                return "0"
            return "O(%d^%s)" % (p, self.valuation)
        terms = []
        for i, d in enumerate(self.digits()):
            if d == 0:
                continue
            e = self.valuation + i
            if e == 0:
                terms.append(str(d))
            elif e == 1:
                terms.append("%d*%d" % (d, p))
            else:
                terms.append("%d*%d^%d" % (d, p, e))
        terms.append("O(%d^%s)" % (p, self.abs_prec))
        return " + ".join(terms)

    def __repr__(self):
        return "PadicNumber(%s)" % self.expansion_str()


def teichmuller_point(f_ints, xbar, ybar, p, n):
    """The Frobenius-fixed point over the residue pair (xbar, ybar != 0) of
    y^2 = f(x), as integers mod p^n from f's coefficients f_ints mod p^n.
    x is the Teichmuller lift xbar^(p^(n-1)) mod p^n, and y the root of
    Y^2 = f(x) that Hensel's lemma lifts from ybar, a simple root mod p as
    2 ybar is a unit.  Both are unique, so the point mod p^k is the same at
    any n >= k."""
    m = p ** n
    x = pow(xbar % p, p ** (n - 1), m)
    fx = kernels.poly_eval_mod(f_ints, x, m)
    if ybar % p == 0 or (fx - ybar * ybar) % p:
        raise PrecisionError("no Teichmuller point over (%d, %d)"
                             % (xbar, ybar))
    return x, kernels.hensel_lift([-fx, 0, 1], [0, 2], ybar % p, p, n)


def hensel_lift_root(ints, x0, p, prec):
    """Lift a simple root x0 mod p of an integer polynomial (constant first,
    coefficients mod p^prec) to a root known to `prec` absolute digits."""
    dints = kernels.poly_deriv_mod(ints, p ** prec)
    if kernels.poly_eval_mod(ints, x0, p):
        raise InputError("not a root mod p")
    if not kernels.poly_eval_mod(dints, x0, p):
        raise InputError("derivative vanishes mod p: root not simple")
    x = kernels.hensel_lift(ints, dints, x0, p, prec)
    return PadicNumber.from_rational(x, p, abs_prec=prec)
