"""Truncated power series over Q_p on integer vectors.

A series carries its own t-adic truncation order t_prec: coefficients of t^i
for i >= t_prec are unknown.  Evaluation inside the open unit disk combines
the Horner value of the kept coefficients with an explicit valuation bound on
the dropped tail, so every evaluated number still carries honest precision.

Representation.  Coefficient i is the integer ints[i] over one shared power
p^e, known modulo p^abs[i], with valuation floor fl[i]: its valuation when
it is nonzero modulo p^abs[i], else abs[i].  ints[i] is reduced into
[0, p^(abs[i] + e)); an exact zero has ints[i] = 0 and abs[i] = fl[i] = INF;
trailing exact zeros are dropped, and e is the least e >= 0 with
fl[i] >= -e for every i.  These are exactly the data of the PadicNumber
(valuation, unit, rel_prec) of each coefficient, which the boundary
(coeffs, __getitem__, evaluate) builds on demand.

Precision.  Every operation gives each coefficient the precision that the
same PadicNumber arithmetic done term by term would give, with the values
computed on the integers at once.  A PadicNumber is determined by its
absolute precision and its value modulo that power of p, a sum is known to
the least absolute precision of its terms, and a product ab to
min(abs_a + fl_b, fl_a + abs_b), zero factors included.  So a series
product takes its values from _kernels._product and its precision from the
min-plus pass

    abs_k = min over i + j = k of min(abs_a[i] + fl_b[j], fl_a[i] + abs_b[j]),

in which an exact-zero a[i] or b[j] contributes INF, as the term-by-term
product would skip it.  invert_unit runs the same rule along its
recurrence.
"""

from __future__ import annotations

import math
from operator import add, mul

from . import _kernels as kernels
from .errors import InputError, PrecisionError
from .padic import INF, PadicNumber, ord_p


def _parts(c):
    """(int, e, fl, abs) of one PadicNumber: its value is int / p^e."""
    if c.unit == 0:
        return 0, 0, c.valuation, c.valuation
    e = max(0, -c.valuation)
    return (c.unit * c.prime ** (c.valuation + e), e, c.valuation,
            c.valuation + c.rel_prec)


class PadicPowerSeries:
    """Truncated power series sum_i c_i t^i + O(t^t_prec)."""

    __slots__ = ("prime", "t_prec", "_e", "_ints", "_fl", "_abs")

    def __init__(self, prime, coeffs, t_prec, coeff_prec=None):
        nums = [c if isinstance(c, PadicNumber)
                else PadicNumber.from_rational(c, prime, abs_prec=coeff_prec)
                for c in coeffs[:t_prec]]
        parts = [_parts(c) for c in nums]
        e = max((pe for _, pe, _, _ in parts), default=0)
        self._set(prime, [x * prime ** (e - pe) for x, pe, _, _ in parts],
                  e, [a for _, _, _, a in parts], t_prec)

    def _set(self, prime, ints, e, abs_, t_prec):
        """Fill the fields from values ints / p^e known to abs_, cut at
        t_prec: reduce, find the floors, drop trailing exact zeros and
        lower e as far as the floors allow."""
        if t_prec < 1:
            raise InputError("t_prec must be at least 1")
        n = min(len(ints), t_prec)
        while n and abs_[n - 1] == INF:
            n -= 1
        vals = []
        fls = []
        for x, a in zip(ints[:n], abs_[:n]):
            if a == INF:
                vals.append(0)
                fls.append(INF)
                continue
            k = a + e
            x = x % prime ** k if k > 0 else 0
            vals.append(x)
            fls.append(ord_p(x, prime) - e if x else a)
        e_new = max([0] + [-f for f in fls if f != INF])
        if e_new < e:
            d = prime ** (e - e_new)
            vals = [x // d for x in vals]
        elif e_new > e:
            d = prime ** (e_new - e)
            vals = [x * d for x in vals]
        self.prime = prime
        self.t_prec = t_prec
        self._e = e_new
        self._ints = vals
        self._fl = fls
        self._abs = list(abs_[:n])

    @classmethod
    def _make(cls, prime, ints, e, abs_, t_prec):
        out = cls.__new__(cls)
        out._set(prime, ints, e, abs_, t_prec)
        return out

    @staticmethod
    def constant(value, prime, t_prec, coeff_prec=None):
        return PadicPowerSeries(prime, [value], t_prec, coeff_prec)

    @staticmethod
    def zero(prime, t_prec):
        return PadicPowerSeries(prime, [], t_prec)

    @staticmethod
    def identity(prime, t_prec, coeff_prec):
        """The series t."""
        one = PadicNumber.from_rational(1, prime, rel_prec=coeff_prec)
        return PadicPowerSeries(prime, [PadicNumber.zero(prime), one], t_prec)

    # -- the PadicNumber boundary -------------------------------------------

    def _number(self, i):
        p, a = self.prime, self._abs[i]
        if a == INF:
            return PadicNumber.zero(p)
        x = self._ints[i]
        if not x:
            return PadicNumber.zero(p, a)
        v = self._fl[i]
        return PadicNumber(p, v, x // p ** (v + self._e), a - v)

    @property
    def coeffs(self):
        """The kept coefficients as PadicNumbers."""
        return tuple(self._number(i) for i in range(len(self._ints)))

    def __getitem__(self, i):
        if i < len(self._ints):
            return self._number(i)
        if i >= self.t_prec:
            raise IndexError("coefficient beyond truncation order")
        return PadicNumber.zero(self.prime)

    def __len__(self):
        return len(self._ints)

    def _wrap(self, other):
        if isinstance(other, PadicPowerSeries):
            if self.prime != other.prime:
                raise InputError("mixed primes")
            return other
        if isinstance(other, PadicNumber):
            return PadicPowerSeries.constant(other, self.prime, self.t_prec)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other, coefficient by coefficient; a sum is known
        to the lesser absolute precision of its terms."""
        p = self.prime
        t = min(self.t_prec, other.t_prec)
        n = max(min(len(self._ints), t), min(len(other._ints), t))
        e = max(self._e, other._e)
        sa = p ** (e - self._e)
        sb = sign * p ** (e - other._e)
        pad = [0] * n
        inf = [INF] * n
        ints = [x * sa + y * sb for x, y in
                zip(self._ints + pad, other._ints + pad)][:n]
        abs_ = list(map(min, self._abs + inf, other._abs + inf))[:n]
        return PadicPowerSeries._make(p, ints, e, abs_, t)

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return PadicPowerSeries._make(self.prime, [-x for x in self._ints],
                                      self._e, self._abs, self.t_prec)

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        # a one-term factor with t_prec >= the other's is a scalar: scale
        for a, b in ((self, other), (other, self)):
            if len(b) == 1 and b.t_prec >= a.t_prec:
                return a.scale(b[0])
        # t-precision improves when a factor has a known zero of order > 0
        t = min(self.t_prec + other._order_floor(),
                other.t_prec + self._order_floor())
        la, lb = len(self._ints), len(other._ints)
        if not la or not lb:
            return PadicPowerSeries.zero(self.prime, t)
        n = min(la + lb - 1, t)
        a, b = self._ints, other._ints
        vals = kernels._product(a, b, n)
        abs_a, fl_a = self._abs, self._fl
        # b reversed, so that the j = k - i partners of i = i0 .. i1 - 1
        # form one ascending slice
        rabs_b, rfl_b = other._abs[::-1], other._fl[::-1]
        abs_ = []
        for k in range(n):
            i0 = max(0, k - lb + 1)
            i1 = min(k, la - 1) + 1
            r0 = lb - 1 - k + i0
            r1 = r0 + i1 - i0
            abs_.append(min(min(map(add, abs_a[i0:i1], rfl_b[r0:r1])),
                            min(map(add, fl_a[i0:i1], rabs_b[r0:r1]))))
        return PadicPowerSeries._make(self.prime, vals, self._e + other._e,
                                      abs_, t)

    __rmul__ = __mul__

    def _order_floor(self):
        """Number of leading coefficients that are exactly zero."""
        k = 0
        for a in self._abs:
            if a != INF:
                return k
            k += 1
        return k

    def scale(self, a):
        """Multiply every coefficient by the scalar a."""
        if not isinstance(a, PadicNumber):
            raise InputError("scale expects a PadicNumber")
        x, e, fl, ab = _parts(a)
        abs_ = [min(ai + fl, fi + ab) for ai, fi in zip(self._abs, self._fl)]
        return PadicPowerSeries._make(self.prime, [v * x for v in self._ints],
                                      self._e + e, abs_, self.t_prec)

    def truncate(self, t_prec):
        return self.with_t_prec(min(self.t_prec, t_prec))

    def with_t_prec(self, t_prec):
        """The same coefficients, cut at t_prec, now claimed to
        O(t^t_prec): the t-precision a Newton step has earned."""
        return PadicPowerSeries._make(self.prime, self._ints, self._e,
                                      self._abs, t_prec)

    def shift_t(self, k):
        """Multiply by t^k (k >= 0)."""
        return PadicPowerSeries._make(self.prime, [0] * k + self._ints,
                                      self._e, [INF] * k + self._abs,
                                      self.t_prec + k)

    def invert_unit(self):
        """Multiplicative inverse; the constant term must be a unit-or-better
        invertible element (nonzero).

        The recurrence is out_k = -(inv0 s_k), s_k = sum_j c_j out_(k-j)
        over 1 <= j <= min(k, len - 1), with the precision of each sum and
        product as in the module docstring.  The values out_k p^E are
        integers for the E below: with d the least floor of the c_j, j >= 1,
        minus v(c_0), the floor of out_k is at least -v(c_0) + k min(0, d)."""
        if not self._ints or not self._ints[0]:
            raise InputError("inversion needs an invertible constant term")
        p, t = self.prime, self.t_prec
        cs, ec = self._ints, self._e
        abs_c, fl_c = self._abs, self._fl
        v0 = fl_c[0]
        r0 = abs_c[0] - v0
        w = pow(cs[0] // p ** (v0 + ec), -1, p ** r0)
        d = min(fl_c[1:], default=INF) - v0
        E = max(0, v0 - (t - 1) * min(0, d))
        # out_k p^E = -w S_k / p^(v0 + ec), S_k = sum_j C_j O_(k-j), an
        # exact division as out_k p^E is integral; v0 + ec >= 0 as e is
        shift = p ** (v0 + ec)
        outs = [w * p ** (E - v0)]
        fls = [-v0]
        abss = [r0 - v0]
        # with no c_j past c_0 every out_k, k >= 1, is an exact zero
        for k in range(1, t if len(cs) > 1 else 1):
            back = slice(k - 1, None, -1)
            rev_o, rev_fl, rev_abs = outs[back], fls[back], abss[back]
            s = sum(map(mul, cs[1:], rev_o))
            abs_s = min(min(map(add, abs_c[1:], rev_fl)),
                        min(map(add, fl_c[1:], rev_abs)))
            fl_s = min(ord_p(s, p) - ec - E, abs_s) if s else abs_s
            a = min(r0 - v0 + fl_s, -v0 + abs_s)
            x = -w * s // shift
            if a == INF:
                x, f = 0, INF
            else:
                k_mod = a + E
                x = x % p ** k_mod if k_mod > 0 else 0
                f = ord_p(x, p) - E if x else a
            outs.append(x)
            fls.append(f)
            abss.append(a)
        return PadicPowerSeries._make(p, outs, E, abss, t)

    def derivative(self):
        p = self.prime
        ints = [i * x for i, x in enumerate(self._ints)][1:]
        abs_ = [a + ord_p(i, p) for i, a in enumerate(self._abs)][1:]
        return PadicPowerSeries._make(p, ints, self._e, abs_,
                                      max(self.t_prec - 1, 1))

    def formal_integral(self):
        """Antiderivative with zero constant term.

        Dividing c_j by j+1 costs ord_p(j+1) digits of absolute precision on
        that coefficient, as PadicNumber division records it."""
        p, e = self.prime, self._e
        n = len(self._ints)
        top = max((ord_p(j, p) for j in range(1, n + 1)), default=0)
        ints = [0]
        abs_ = [INF]
        for j, (x, a) in enumerate(zip(self._ints, self._abs)):
            o = ord_p(j + 1, p)
            abs_.append(a - o)
            if not x:
                ints.append(0)
                continue
            u = (j + 1) // p ** o
            ints.append(x * pow(u, -1, p ** (a + e)) * p ** (top - o))
        return PadicPowerSeries._make(p, ints, e + top, abs_, self.t_prec + 1)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, t0, tail_bound=None):
        """Value at t0 with ord(t0) >= 1, as a PadicNumber.

        The result is the Horner sum of the kept coefficients capped at an
        absolute precision accounting for the dropped tail.  With no explicit
        tail_bound the series must be integral (all coefficient valuations
        >= 0) and the bound t_prec * ord(t0) is used.
        """
        if not isinstance(t0, PadicNumber):
            raise InputError("evaluation point must be a PadicNumber")
        w = t0.valuation if not t0.is_zero else t0.abs_prec
        if w < 1:
            raise InputError("evaluation point must lie in the open disk pZp")
        if tail_bound is None:
            if any(x and f < 0 for x, f in zip(self._ints, self._fl)):
                raise PrecisionError(
                    "non-integral series needs an explicit tail bound")
            tail_bound = self.t_prec * w
        if t0.is_exact_zero:
            return self[0]._cap(tail_bound)
        acc = PadicNumber.zero(self.prime)
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        return acc._cap(tail_bound)

    def reduction_order(self):
        """Least i with c_i a unit (ord 0 exactly), i.e. ord_t of the mod-p
        reduction; returns None when every kept coefficient reduces to 0."""
        for i, (x, f) in enumerate(zip(self._ints, self._fl)):
            if x and f < 0:
                raise PrecisionError("series is not integral")
            if x and f == 0:
                return i
            if not x and f <= 0:
                raise PrecisionError("coefficient not known mod p")
        return None

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs[:6]):
            if not c.is_zero:
                parts.append("(%s)*t^%d" % (c.expansion_str(), i))
        if len(self) > 6:
            parts.append("...")
        parts.append("O(t^%d)" % self.t_prec)
        return " + ".join(parts)


def min_tail_valuation(start, w, p):
    """min over i >= start of (i*w - ord_p(i)): the antiderivative pattern,
    where coefficient i lost ord_p(i) digits."""
    best = None
    i = start
    while True:
        li = ord_p(i, p)
        cand = i * w - li
        if best is None or cand < best:
            best = cand
        # beyond this point even a maximal ord_p cannot undercut best
        max_l = int(math.log(i + p, p)) + 2
        if i * w - max_l > best:
            return best
        i += 1
