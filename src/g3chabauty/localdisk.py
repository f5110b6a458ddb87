"""Local coordinates on residue disks and expansions of differentials.

Three disk types on the monic odd model y^2 = F(x), deg F = 7.  Each chart
is the simple root z of one polynomial equation G(Z) = 0 whose
coefficients are series in s, solved by the one integer series Newton
_newton:

* generic (ybar != 0): t = x - x(P) and s = t; y solves Z^2 = F(x(P) + t);
* finite Weierstrass (y(P) = 0): t = y, and x is even in t, so with
  s = t^2 it solves F(Z) = s (+ the dx/2y = dt/F'(x) identity for the
  differential);
* infinity: t = x^3/y, x = u/t^2, y = u^3/t^7, and u = 1 + O(t^2) is even
  in t, so with s = t^2 it solves Z^7 - Z^6 + sum_i F_i s^(7-i) Z^i = 0.

Each disk has one center (disk_center): the point at infinity, the finite
Weierstrass point, or the Teichmuller point of a generic disk.  A chart
needs only the curve, that center and N; nothing here reads Frobenius.

Basis differentials are w_i = x^i dx / 2y for i = 0, 1, 2 (holomorphic).
A form is a coefficient triple (c0, c1, c2) of PadicNumbers meaning
c0 w0 + c1 w1 + c2 w2.  One differential_series call expands the whole
basis on a chart; form_series combines those expansions for any triple.

Precision.  A chart is computed on integer lists mod p^N, to t-precision
M = N + 4.  G'(z(0)) is a unit (2 y(P), F'(x(P)) at a good prime, 1 at
infinity), so every coefficient is p-integral, and the center's N digits
fix each one mod p^N.  Each series becomes a PadicPowerSeries once, with
every coefficient known to N digits, as term-by-term PadicNumber
arithmetic would record it, except for

* the exact zeros that the chart's shape puts there: x = x(P) + t on a
  generic chart, y = t on a Weierstrass one, the odd coefficients of the
  series in s = t^2, and t^4 | w0, t^2 | w1 at infinity;
* w2's constant term x(P)^2 w0(0), known to N + v(x(P)) digits: 2N on a
  disk over x = 0, where x(P) = O(p^N).

From there on the half-integrals keep PadicPowerSeries' per-coefficient
rule: formal_integral loses ord_p(j + 1) digits on t^(j + 1).
"""

from __future__ import annotations

from operator import mul

from . import _kernels as kernels
from .curve import CurvePoint
from .errors import InputError
from .padic import (INF, PadicNumber, hensel_lift_root, ord_p,
                    teichmuller_point)
from .series import PadicPowerSeries


def _mul(a, b, n, m):
    """The first n coefficients of a b, mod m."""
    return [c % m for c in kernels.poly_product(a, b, n)]


def _inverse(a, n, m):
    """1/a to n terms mod m; a[0] must be a unit."""
    w = pow(a[0], -1, m)
    out = [w]
    for k in range(1, n):
        out.append(-w * sum(map(mul, a[1:k + 1], reversed(out))) % m)
    return out


def _horner(gs, z, n, m):
    """(G(z), G'(z)) to n terms mod m, for G = sum_i gs[i] Z^i."""
    val, slope = gs[-1][:n], [0]
    for g in reversed(gs[:-1]):
        slope = kernels.poly_add_mod(_mul(slope, z, n, m), val, m)
        val = kernels.poly_add_mod(_mul(val, z, n, m), g[:n], m)
    return val, slope


def _newton(gs, z0, n, m):
    """The root z of G = sum_i gs[i] Z^i with z(0) = z0, to n terms mod m,
    by series Newton z <- z - G(z)/G'(z); G'(z0) must be a unit.  Each step
    doubles the number of correct terms, starting from one, and runs at
    that many terms."""
    z, k = [z0], 1
    while k < n:
        k = min(2 * k, n)
        val, slope = _horner(gs, z, k, m)
        z = [(a - b) % m for a, b in
             zip(z + [0] * k, _mul(val, _inverse(slope, k, m), k, m))]
    return z


class LocalExpansion:
    """Chart around a center point: series for the coordinates and a method
    expanding the basis forms w0, w1, w2 as w_i(t) dt, to p^prec."""

    def __init__(self, curve, center, p, prec):
        self.curve = curve
        self.center = center
        self.prime = p
        # t-terms to t^(prec + 3): for p >= 7 and prec <= PREC_CAP the
        # dropped tail of a half-integral is O(p^(prec + 3)) at v(t) >= 1,
        # and root isolation reads truncation_order(prec - 2, p) <= prec + 4
        # terms (test_series.py::test_chart_length_covers_isolation_and_tail).
        # The pinned chart digests and reports depend on this value
        self.t_prec = prec + 4
        self.prec = prec
        m = p ** prec
        # F's coefficients as constant series
        self._F = F = [[c] for c in curve.f_coeffs_mod(p, prec)]
        if center.is_infinity:
            self.kind = "infinity"
        elif center.x.valuation < 0 and not center.x.is_zero:
            raise InputError("affine center must have integral x")
        elif center.y.is_zero:
            self.kind = "weierstrass"
        elif center.y.valuation >= 1:
            raise InputError("a center over y = 0 mod p must have y = 0")
        else:
            self.kind = "generic"
        # a generic chart is a series in s = t; the others are even in t,
        # series in s = t^2 whose terms reach t^(t_prec - 1)
        self._n = self.t_prec if self.kind == "generic" \
            else (self.t_prec + 1) // 2
        if self.kind == "infinity":
            # u^7 - u^6 + sum_i F_i s^(7-i) u^i, with F_7 = 1
            gs = [[0] * (7 - i) + c for i, c in enumerate(F)]
            gs[6][0] = -1
            self._u = _newton(gs, 1, self._n, m)
            self.u_series = self._series(self._u, True)
            return
        x0 = center.x.residue(prec)
        if self.kind == "weierstrass":
            # F(x) = s, from the center's x, a root of F to its digits
            self._x = _newton([[F[0][0], -1]] + F[1:], x0, self._n, m)
            self.x_series = self._series(self._x, True)
            self.y_series = self._series([None, 1], False)
            return
        self._x = [x0, 1]
        fx = _horner(F, self._x, self._n, m)[0]
        # y^2 = F(x(P) + t), from the center's y, a root to its digits
        self._y = _newton([[-c for c in fx], [0], [1]],
                          center.y.residue(prec), self._n, m)
        self.x_series = self._series(self._x, False)
        self.y_series = self._series(self._y, False)

    def _series(self, coeffs, even, abs0=None):
        """The PadicPowerSeries to O(t^t_prec) of integer coefficients mod
        p^prec, in s = t^2 when even, else in t; None is an exact zero, and
        every other coefficient is known to prec digits (abs0 for the
        constant term, when given)."""
        if even:
            t_coeffs = [None] * (2 * len(coeffs))
            t_coeffs[::2] = coeffs
            coeffs = t_coeffs
        coeffs = coeffs[:self.t_prec]
        abs_ = [INF if c is None else self.prec for c in coeffs]
        if abs0 is not None:
            abs_[0] = abs0
        return PadicPowerSeries.from_ints(
            self.prime, [c or 0 for c in coeffs], 0, abs_, self.t_prec)

    # -- point/parameter maps ------------------------------------------------

    def t_of(self, point):
        """Local parameter of a point in this disk."""
        if self.kind == "infinity":
            if point.is_infinity:
                return PadicNumber.zero(self.prime)
            return point.x * point.x * point.x / point.y
        if point.is_infinity:
            raise InputError("infinity is not in a finite disk")
        if self.kind == "generic":
            return point.x - self.center.x
        return point.y - self.center.y

    def point_at(self, t0):
        """The curve point with local parameter t0."""
        if self.kind == "infinity":
            if t0.is_exact_zero:
                return CurvePoint.infinity()
            u0 = self.u_series.evaluate(t0)
            x = u0 / (t0 * t0)
            y = x * x * x / t0
            return CurvePoint.affine(x, y)
        if self.kind == "generic":
            return CurvePoint.affine(self.center.x + t0,
                                     self.y_series.evaluate(t0))
        return CurvePoint.affine(self.x_series.evaluate(t0),
                                 self.center.y + t0)

    # -- differentials ----------------------------------------------------------

    def differential_series(self):
        """(w0(t), w1(t), w2(t)) with w_i = w_i(t) dt on this chart.

        The three expansions share one factor, expanded once: 1/2y(t) on a
        generic chart, 1/F'(x(t)) on a Weierstrass chart (dx/2y = dt/F'(x)),
        and -(u - t u'/2) u^-3 at infinity, where w_i is that factor times
        t^4, t^2 u or u^2.  In s = t^2, t u'/2 is s du/ds."""
        n, m, even = self._n, self.prime ** self.prec, self.kind != "generic"
        if self.kind == "infinity":
            u = self._u
            u2 = _mul(u, u, n, m)
            # -(u - s du/ds) = sum_k (k - 1) u_k s^k, over u^3
            lead = [(k - 1) * c for k, c in enumerate(u)]
            shared = _mul(lead, _inverse(_mul(u2, u, n, m), n, m), n, m)
            forms = ([None, None] + shared[:n - 2],
                     [None] + _mul(u, shared, n - 1, m),
                     _mul(u2, shared, n, m))
            return tuple(self._series(w, True) for w in forms)
        x = self._x
        if self.kind == "generic":
            shared = _inverse([2 * c for c in self._y], n, m)
        else:
            shared = _inverse(_horner(self._F, x, n, m)[1], n, m)
        w1 = _mul(x, shared, n, m)
        w2 = _mul(x, w1, n, m)
        # x(P)^2 w0(0) is known mod p^(prec + v(x(P)))
        x0 = x[0]
        w2[0] = x0 * x0 * shared[0]
        abs0 = self.prec + min(ord_p(x0, self.prime), self.prec)
        return (self._series(shared, even), self._series(w1, even),
                self._series(w2, even, abs0))


def form_series(coeffs, basis):
    """w(t) of the form sum_i coeffs[i] w_i, from the chart's basis
    expansions; exact-zero coefficients are skipped."""
    acc = None
    for c, w in zip(coeffs, basis):
        if c.is_exact_zero:
            continue
        term = w.scale(c)
        acc = term if acc is None else acc + term
    if acc is None:
        raise InputError("the zero form has no expansion worth computing")
    return acc


def disk_center(curve, disk, p, prec):
    """The one center of a disk, to `prec` digits.

    Infinity and finite Weierstrass points are fixed by the involution; a
    generic disk is centered at its Frobenius-fixed point: Teichmuller x,
    and the root y of F(x) congruent to the disk's y (teichmuller_point)."""
    if disk.is_infinity:
        return CurvePoint.infinity()
    if disk.y == 0:
        x = hensel_lift_root(curve.f_coeffs_mod(p, prec), disk.x, p, prec)
        return CurvePoint.affine(x, PadicNumber.zero(p))
    x_t, y_t = teichmuller_point(curve.f_coeffs_mod(p, prec), disk.x, disk.y,
                                 p, prec)
    x = PadicNumber.from_rational(x_t, p, abs_prec=prec)
    y = PadicNumber.from_rational(y_t, p, abs_prec=prec)
    return CurvePoint.affine(x, y)
