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

Operations.  A chart builds each of its series once, from integer lists
mod p^N (from_ints, called by localdisk).  What is left is what the
half-integrals read: formal_integral (a disk's half-integral series), the
sum with a series or a PadicNumber (a generic disk's constant halfint(P),
and form_series), scale by a PadicNumber (form_series), derivative and
reduction_order (the Strassmann bound of a disk), and evaluate, besides
the coefficient access of root isolation.  Each gives every coefficient
the precision that the same PadicNumber arithmetic done term by term would
give: a sum is known to the least absolute precision of its terms, a
product ca to min(abs_c + fl_a, fl_c + abs_a), zero factors included, and
c_j / (j + 1) loses ord_p(j + 1) digits.
"""

from __future__ import annotations

import math

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
    def from_ints(cls, prime, ints, e, abs_, t_prec):
        """The series of the values ints[i] / p^e, each known to abs_[i]
        absolute digits (INF: an exact zero), to O(t^t_prec)."""
        out = cls.__new__(cls)
        out._set(prime, ints, e, abs_, t_prec)
        return out

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

    # -- the operations the half-integrals read ----------------------------

    def __add__(self, other):
        """self + other, for a series or a PadicNumber (a constant series),
        coefficient by coefficient; a sum is known to the lesser absolute
        precision of its terms."""
        if isinstance(other, PadicNumber):
            other = PadicPowerSeries(self.prime, [other], self.t_prec)
        elif not isinstance(other, PadicPowerSeries):
            return NotImplemented
        p = self.prime
        if other.prime != p:
            raise InputError("mixed primes")
        t = min(self.t_prec, other.t_prec)
        n = max(min(len(self._ints), t), min(len(other._ints), t))
        e = max(self._e, other._e)
        sa = p ** (e - self._e)
        sb = p ** (e - other._e)
        pad = [0] * n
        inf = [INF] * n
        ints = [x * sa + y * sb for x, y in
                zip(self._ints + pad, other._ints + pad)][:n]
        abs_ = list(map(min, self._abs + inf, other._abs + inf))[:n]
        return PadicPowerSeries.from_ints(p, ints, e, abs_, t)

    def scale(self, a):
        """Multiply every coefficient by the scalar a."""
        if not isinstance(a, PadicNumber):
            raise InputError("scale expects a PadicNumber")
        x, e, fl, ab = _parts(a)
        abs_ = [min(ai + fl, fi + ab) for ai, fi in zip(self._abs, self._fl)]
        return PadicPowerSeries.from_ints(
            self.prime, [v * x for v in self._ints], self._e + e, abs_,
            self.t_prec)

    def derivative(self):
        p = self.prime
        ints = [i * x for i, x in enumerate(self._ints)][1:]
        abs_ = [a + ord_p(i, p) for i, a in enumerate(self._abs)][1:]
        return PadicPowerSeries.from_ints(p, ints, self._e, abs_,
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
        return PadicPowerSeries.from_ints(p, ints, e + top, abs_,
                                          self.t_prec + 1)

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
