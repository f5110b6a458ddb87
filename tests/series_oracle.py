"""Power series with one PadicNumber per coefficient: the representation
that g3chabauty.series used before it moved to integer vectors, kept as
the oracle its operations are compared with, coefficient by coefficient.
Every operation is the term-by-term PadicNumber arithmetic.  It keeps the
ring operations the library no longer has (products, inverses, shifts),
so the chart tests check the chart equations on it (as_reference)."""

from g3chabauty.errors import InputError, PrecisionError
from g3chabauty.padic import PadicNumber


def _coerce_coeff(c, prime, coeff_prec):
    if isinstance(c, PadicNumber):
        return c
    return PadicNumber.from_rational(c, prime, abs_prec=coeff_prec)


class ReferenceSeries:
    """Truncated power series sum_i c_i t^i + O(t^t_prec)."""

    __slots__ = ("prime", "coeffs", "t_prec")

    def __init__(self, prime, coeffs, t_prec, coeff_prec=None):
        if t_prec < 1:
            raise InputError("t_prec must be at least 1")
        coeffs = [_coerce_coeff(c, prime, coeff_prec) for c in coeffs[:t_prec]]
        while coeffs and coeffs[-1].is_exact_zero:
            coeffs.pop()
        self.prime = prime
        self.coeffs = tuple(coeffs)
        self.t_prec = t_prec

    @staticmethod
    def constant(value, prime, t_prec, coeff_prec=None):
        return ReferenceSeries(prime, [_coerce_coeff(value, prime, coeff_prec)], t_prec)

    @staticmethod
    def zero(prime, t_prec):
        return ReferenceSeries(prime, [], t_prec)

    @staticmethod
    def identity(prime, t_prec, coeff_prec):
        """The series t."""
        one = PadicNumber.from_rational(1, prime, rel_prec=coeff_prec)
        return ReferenceSeries(prime, [PadicNumber.zero(prime), one], t_prec)

    def __getitem__(self, i):
        if i < len(self.coeffs):
            return self.coeffs[i]
        if i >= self.t_prec:
            raise IndexError("coefficient beyond truncation order")
        return PadicNumber.zero(self.prime)

    def __len__(self):
        return len(self.coeffs)

    def _check(self, other):
        if self.prime != other.prime:
            raise InputError("mixed primes")

    def _wrap(self, other):
        if isinstance(other, ReferenceSeries):
            self._check(other)
            return other
        if isinstance(other, PadicNumber):
            return ReferenceSeries.constant(other, self.prime, self.t_prec)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        t = min(self.t_prec, other.t_prec)
        n = max(min(len(self.coeffs), t), min(len(other.coeffs), t))
        out = []
        for i in range(n):
            out.append(self[i] + other[i])
        return ReferenceSeries(self.prime, out, t)

    __radd__ = __add__

    def __neg__(self):
        return ReferenceSeries(self.prime, [-c for c in self.coeffs], self.t_prec)

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        # t-precision improves when a factor has a known zero of order > 0
        lo_s = self._order_floor()
        lo_o = other._order_floor()
        t = min(self.t_prec + lo_o, other.t_prec + lo_s)
        if not self.coeffs or not other.coeffs:
            return ReferenceSeries.zero(self.prime, t)
        n = min(len(self.coeffs) + len(other.coeffs) - 1, t)
        out = [PadicNumber.zero(self.prime) for _ in range(n)]
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                out[i + j] = out[i + j] + a * b
        return ReferenceSeries(self.prime, out, t)

    __rmul__ = __mul__

    def _order_floor(self):
        """Number of leading coefficients that are exactly zero."""
        k = 0
        for c in self.coeffs:
            if c.is_exact_zero:
                k += 1
            else:
                return k
        return k

    def scale(self, a):
        """Multiply every coefficient by the scalar a."""
        if not isinstance(a, PadicNumber):
            raise InputError("scale expects a PadicNumber")
        return ReferenceSeries(self.prime, [c * a for c in self.coeffs], self.t_prec)

    def truncate(self, t_prec):
        return ReferenceSeries(self.prime, list(self.coeffs), min(self.t_prec, t_prec))

    def shift_t(self, k):
        """Multiply by t^k (k >= 0)."""
        zeros = [PadicNumber.zero(self.prime)] * k
        return ReferenceSeries(self.prime, zeros + list(self.coeffs), self.t_prec + k)

    def invert_unit(self):
        """Multiplicative inverse; the constant term must be a unit-or-better
        invertible element (nonzero)."""
        if not self.coeffs or self.coeffs[0].is_zero:
            raise InputError("inversion needs an invertible constant term")
        c0 = self.coeffs[0]
        inv0 = 1 / c0
        out = [inv0]
        for k in range(1, self.t_prec):
            s = None
            for j in range(1, k + 1):
                if j >= len(self.coeffs):
                    break
                term = self.coeffs[j] * out[k - j]
                s = term if s is None else s + term
            if s is None:
                out.append(PadicNumber.zero(self.prime))
            else:
                out.append(-(inv0 * s))
        return ReferenceSeries(self.prime, out, self.t_prec)

    def derivative(self):
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i] * i)
        return ReferenceSeries(self.prime, out, max(self.t_prec - 1, 1))

    def formal_integral(self):
        """Antiderivative with zero constant term.

        Dividing c_j by j+1 costs ord_p(j+1) digits of absolute precision on
        that coefficient; PadicNumber division records the loss.
        """
        out = [PadicNumber.zero(self.prime)]
        for j, c in enumerate(self.coeffs):
            out.append(c / (j + 1))
        return ReferenceSeries(self.prime, out, self.t_prec + 1)

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
            for c in self.coeffs:
                if not c.is_zero and c.valuation < 0:
                    raise PrecisionError(
                        "non-integral series needs an explicit tail bound")
            tail_bound = self.t_prec * w
        if t0.is_exact_zero:
            val = self[0] if self.coeffs else PadicNumber.zero(self.prime)
            return val._cap(tail_bound)
        acc = PadicNumber.zero(self.prime)
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        return acc._cap(tail_bound)

    def reduction_order(self):
        """Least i with c_i a unit (ord 0 exactly), i.e. ord_t of the mod-p
        reduction; returns None when every kept coefficient reduces to 0."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero and c.valuation < 0:
                raise PrecisionError("series is not integral")
            if not c.is_zero and c.valuation == 0:
                return i
            if c.is_zero and c.valuation <= 0:
                raise PrecisionError("coefficient not known mod p")
        return None

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs[:6]):
            if not c.is_zero:
                parts.append("(%s)*t^%d" % (c.expansion_str(), i))
        if len(self.coeffs) > 6:
            parts.append("...")
        parts.append("O(t^%d)" % self.t_prec)
        return " + ".join(parts)


def as_reference(series):
    """A PadicPowerSeries as the ReferenceSeries with the same data."""
    return ReferenceSeries(series.prime, series.coeffs, series.t_prec)
