"""Capped-precision p-adic numbers.

A nonzero element is stored as unit * p^valuation with the unit known modulo
p^rel_prec, i.e. the value is known modulo p^(valuation + rel_prec).  A zero
"at stated precision" keeps unit = 0, rel_prec = 0 and records the stated
absolute precision in the valuation slot; an exact zero uses an infinite
valuation.  All arithmetic propagates precision pessimistically: addition
works at the minimum absolute precision of the operands, multiplication and
division at the minimum relative precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from . import _kernels as kernels
from .errors import InputError, PrecisionError

INF = inf


def ord_p(value, p):
    """p-adic valuation of an int or Fraction; INF for zero."""
    if isinstance(value, Fraction):
        if value == 0:
            return INF
        return ord_p(value.numerator, p) - ord_p(value.denominator, p)
    if value == 0:
        return INF
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
        if rel_prec < 1:
            raise PrecisionError("nonzero value with no known digits")
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

        Exactly one of abs_prec / rel_prec decides how many digits are kept;
        exact zero input yields the exact zero regardless.
        """
        value = Fraction(value)
        if value == 0:
            return PadicNumber.zero(prime)
        v = ord_p(value, prime)
        if rel_prec is None:
            if abs_prec is None:
                raise InputError("coercion needs a target precision")
            if abs_prec == INF:
                raise PrecisionError(
                    "nonzero exact value cannot carry infinite precision")
            rel_prec = abs_prec - v
            if rel_prec <= 0:
                return PadicNumber.zero(prime, abs_prec)
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
        if isinstance(other, PadicNumber):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            if for_mul:
                return PadicNumber.from_rational(other, self.prime,
                                                 rel_prec=max(self.rel_prec, 1))
            return PadicNumber.from_rational(other, self.prime,
                                             abs_prec=self.abs_prec)
        return NotImplemented

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other, for_mul=False)
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
        if n == INF:
            raise PrecisionError("sum of two exact units is not representable")
        width = n - v0
        if width <= 0:
            raise PrecisionError("no overlapping digits in addition")
        m = self.prime ** width
        s = (self.unit * self.prime ** (self.valuation - v0)
             + other.unit * self.prime ** (other.valuation - v0)) % m
        if s == 0:
            return PadicNumber.zero(self.prime, n)
        v = ord_p(s, self.prime)
        return PadicNumber(self.prime, v0 + v, s // self.prime ** v, width - v)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        m = self.prime ** self.rel_prec
        return PadicNumber(self.prime, self.valuation, (-self.unit) % m, self.rel_prec)

    def __sub__(self, other):
        other = self._coerce(other, for_mul=False)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other, for_mul=True)
        if other is NotImplemented:
            return NotImplemented
        if self.unit == 0 or other.unit == 0:
            # ord(xy) >= ord-floor(x) + ord-floor(y)
            return PadicNumber.zero(self.prime, self.valuation + other.valuation)
        r = min(self.rel_prec, other.rel_prec)
        m = self.prime ** r
        return PadicNumber(self.prime, self.valuation + other.valuation,
                           self.unit * other.unit % m, r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other, for_mul=True)
        if other is NotImplemented:
            return NotImplemented
        if other.unit == 0:
            raise ZeroDivisionError("division by p-adic zero")
        if self.unit == 0:
            return PadicNumber.zero(self.prime, self.valuation - other.valuation)
        r = min(self.rel_prec, other.rel_prec)
        m = self.prime ** r
        unit = self.unit * pow(other.unit, -1, m) % m
        return PadicNumber(self.prime, self.valuation - other.valuation, unit, r)

    def __rtruediv__(self, other):
        other = self._coerce(other, for_mul=True)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InputError("only nonnegative integer powers")
        out = PadicNumber.from_rational(1, self.prime, rel_prec=max(self.rel_prec, 1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

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
        if isinstance(other, (int, Fraction)):
            other = PadicNumber.from_rational(
                other, self.prime,
                abs_prec=self.abs_prec if self.abs_prec != INF else None,
                rel_prec=None if self.abs_prec != INF else max(self.rel_prec, 1))
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.prime != other.prime:
            return False
        d = self - other
        return d.unit == 0

    __hash__ = None

    def residue(self, abs_prec=None):
        """Integer representative modulo p^abs_prec; needs valuation >= 0."""
        if abs_prec is None:
            abs_prec = self.abs_prec
        if abs_prec == INF:
            raise InputError("exact zero has no finite default modulus")
        if abs_prec > self.abs_prec:
            raise PrecisionError("representative requested beyond known digits")
        if self.unit == 0:
            return 0
        if self.valuation < 0:
            raise InputError("negative valuation has no integer representative")
        return self.unit * self.prime ** self.valuation % self.prime ** abs_prec

    # -- rendering ---------------------------------------------------------

    def digits(self, count=None):
        """Base-p digit list of the unit part, least significant first."""
        if self.unit == 0:
            return []
        if count is None:
            count = self.rel_prec
        u = self.unit % self.prime ** count
        out = []
        for _ in range(count):
            out.append(u % self.prime)
            u //= self.prime
        return out

    def expansion_str(self):
        """Human form 'a0 + a1*p + a2*p^2 + O(p^N)' starting at the valuation."""
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


def teichmuller_int(residue, p, prec):
    """Integer Teichmuller lift of a nonzero residue mod p, mod p^prec."""
    m = p ** prec
    x = residue % m
    if x % p == 0:
        return 0
    while True:
        x2 = pow(x, p, m)
        if x2 == x:
            return x
        x = x2


def sqrt_mod_pn(a_unit, p, n):
    """A square root of the unit a_unit mod p^n, or None if a is not a QR."""
    a0 = a_unit % p
    r0 = None
    for r in range(1, p):
        if r * r % p == a0:
            r0 = r
            break
    if r0 is None:
        return None
    m = p
    x = r0
    k = 1
    while k < n:
        k = min(2 * k, n)
        m = p ** k
        x = (x + a_unit * pow(x, -1, m)) * pow(2, -1, m) % m
    return x


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


def hensel_lift_root(ints, x0, p, prec):
    """Lift a simple root x0 mod p of an integer polynomial (constant first,
    coefficients mod p^prec) to a root known to `prec` absolute digits."""
    dints = kernels.poly_deriv_mod(ints, p ** prec)
    if kernels.poly_eval_mod(ints, x0, p):
        raise InputError("not a root mod p")
    if not kernels.poly_eval_mod(dints, x0, p):
        raise InputError("derivative vanishes mod p: root not simple")
    x = kernels.hensel_lift(ints, dints, x0, p, prec)
    return PadicNumber.from_rational(x, p, abs_prec=prec) if x \
        else PadicNumber.zero(p, prec)
