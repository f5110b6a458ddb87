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
reduction_order (the Strassmann bound of a disk), evaluate and
evaluate_antiderivative, and root isolation (series_roots_in_disk), which
reads the integer vector itself.  Each gives every coefficient the
precision that the same PadicNumber arithmetic done term by term would
give: a sum is known to the least absolute precision of its terms, a
product ca to min(abs_c + fl_a, fl_c + abs_a), zero factors included, and
c_j / (j + 1) loses ord_p(j + 1) digits.

The tail of an antiderivative.  A half-integral is the antiderivative of
an integral series, so its coefficient c_j has v(c_j) >= -ord_p(j), and
at v(t) = w >= 1 its terms j >= t_prec are O(p^b) with b the least
j w - ord_p(j) over them (min_tail_valuation): the bound that
evaluate_antiderivative gives its value and that truncation_order reads.
That minimum is a closed form.  Let i_k be the least multiple of p^k with
i_k >= t_prec.  A j with ord_p(j) = k is such a multiple, so j >= i_k, and
i_k loses at least k digits: j w - k >= i_k w - ord_p(i_k).  Once
p^k >= t_prec, i_k = p^k, and each further k adds (p - 1) p^k w - 1 > 0.
So b is the least i_k w - ord_p(i_k) over k = 0, 1, .. up to the first k
with p^k >= t_prec: at most log_p(t_prec) + 2 terms, in integers alone.

Root isolation.  The rescaling g(s) = f(p s) has integral coefficients
whenever v(c_j) >= -j, so the zeros of f with positive valuation biject
with the zeros of g in Z_p.  Every such zero reduces to a residue of g mod
p; residues where the derivative stays a unit lift uniquely by Hensel, and
repeated residues recurse on the shifted series g(r + p s), whose content
strictly shrinks the precision budget.  The search therefore either
returns a provably complete list of simple zeros, each tagged with the
modulus to which it is determined, or raises PrecisionError.  Truncation
is sound for antiderivative-shaped input: the tail dropped at degree M is
O(p^prec) on the disk as soon as j - ord_p(j) >= prec for all j >= M
(truncation_order).
"""

from __future__ import annotations

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

    def __init__(self, prime, coeffs, t_prec):
        """The series of the PadicNumbers coeffs, to O(t^t_prec)."""
        parts = [_parts(c) for c in coeffs[:t_prec]]
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

    def evaluate_antiderivative(self, t0):
        """Value at t0 of an antiderivative of an integral series, with the
        tail bound min_tail_valuation gives its dropped terms."""
        w = t0.valuation if not t0.is_zero else t0.abs_prec
        if w == INF:
            return self.evaluate(t0, tail_bound=INF)
        if w < 1:
            raise InputError("point is not in the open disk")
        bound = min_tail_valuation(self.t_prec, w, self.prime)
        return self.evaluate(t0, tail_bound=bound)

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
    where coefficient i lost ord_p(i) digits.  Exact from the least
    multiple i_k of p^k at or past start, for k = 0, 1, .. up to the first
    k with p^k >= start (the module docstring argues it)."""
    best, q = start * w - ord_p(start, p), 1
    while q < start:
        q *= p
        i = -(-start // q) * q
        best = min(best, i * w - ord_p(i, p))
    return best


def truncation_order(prec, p):
    """Least M so that tail terms j >= M of an antiderivative-shaped
    series stay below p^-prec for v(t) >= 1."""
    m = max(prec, 1)
    while min_tail_valuation(m, 1, p) < prec:
        m += 1
    return m


def _taylor_shift(h, r, mod):
    """Coefficients of h(s + r) mod `mod` by iterated synthetic division."""
    out = list(h)
    n = len(out)
    for i in range(n):
        for k in range(n - 2, i - 1, -1):
            out[k] = (out[k] + r * out[k + 1]) % mod
    return out


def _zp_roots(h, p, budget):
    """(residue, exponent) pairs describing all zeros in Z_p of any function
    within O(p^budget) of the integral polynomial h; each coset mod
    p^exponent contains exactly one zero, and it is simple."""
    mod = p ** budget
    hd = kernels.poly_deriv_mod(h, mod)
    found = []
    for r in range(p):
        if kernels.poly_eval_mod(h, r, p):
            continue
        if kernels.poly_eval_mod(hd, r, p):
            found.append((kernels.hensel_lift(h, hd, r, p, budget), budget))
            continue
        # repeated residue: zoom in on r + p Z_p and shed the content
        shifted = _taylor_shift(h, r, mod)
        scaled = [shifted[j] * p ** j % mod for j in range(len(shifted))]
        k = min([budget] + [ord_p(c, p) for c in scaled])
        if k >= budget:
            raise PrecisionError(
                "series vanishes on a whole disk at working precision")
        sub_budget = budget - k
        if sub_budget < 2:
            raise PrecisionError(
                "cannot separate zeros near residue %d" % r)
        sub_mod = p ** sub_budget
        sub = [c // p ** k % sub_mod for c in scaled]
        for res, e in _zp_roots(sub, p, sub_budget):
            found.append(((r + p * res) % p ** (e + 1), e + 1))
    return found


def series_roots_in_disk(series, prec):
    """All t with v(t) >= 1 where the function behind `series` vanishes.

    The input must be antiderivative-shaped (v(coeff_j) >= -ord_p(j)) so
    the truncation bound applies.  Returns PadicNumbers sorted by their
    integer representative; each carries the modulus to which the zero is
    pinned down, and each is a provably simple zero.

    The budget b is prec lowered to min_j(abs_prec(c_j) + j), j <
    truncation_order(prec), as after a solve that loses digits at an
    anomalous prime.  That is sound: each c_j read, j < truncation_order(b)
    <= truncation_order(prec), is known mod p^(b - j), and the tail is
    O(p^b) on the disk by the antiderivative shape.  So the Hensel count
    holds for every function within O(p^b) of the integral polynomial
    isolated here: each zero returned is simple, and none is missed.
    Coefficient j times p^j is ints[j] p^j / p^e, read mod p^b from the
    integer vector: a nonzero one of negative valuation is rejected, and
    one of valuation b or more reads as 0.

    A root in the coset t = 0 mod p^(e+1) comes back as the exact zero,
    built by name, though it is pinned only mod p^(e+1): the reports pin
    the "0" it prints, where from_rational would give O(p^(e+1)).
    """
    p, pe = series.prime, series.prime ** series._e
    prec = min([prec] + [a + j for j, a in enumerate(
        series._abs[:truncation_order(prec, p)])])
    m_order = truncation_order(prec, p)
    if series.t_prec < m_order:
        raise PrecisionError(
            "need series terms up to t^%d, have t^%d" % (m_order, series.t_prec))
    mod = p ** prec
    ints = []
    for j, (x, f) in enumerate(zip(series._ints[:m_order], series._fl)):
        if x and f + j < 0:
            raise InputError("series is not integral on the open disk")
        ints.append(x * p ** j // pe % mod if x and f + j < prec else 0)
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        raise PrecisionError(
            "series is indistinguishable from zero at this precision")
    k = min([prec] + [ord_p(c, p) for c in ints if c])
    budget = prec - k
    if budget < 2:
        raise PrecisionError("dominant coefficient eats the precision budget")
    mod = p ** budget
    h = [c // p ** k % mod for c in ints]
    roots = []
    for res, e in _zp_roots(h, p, budget):
        roots.append(PadicNumber.from_rational(p * res, p, abs_prec=e + 1)
                     if res else PadicNumber.zero(p))
    roots.sort(key=lambda r: (0 if r.is_zero else 1,
                              0 if r.is_zero else r.unit * p ** r.valuation))
    return roots
