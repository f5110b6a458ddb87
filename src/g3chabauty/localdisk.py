"""Local coordinates on residue disks and expansions of differentials.

Three disk types on the monic odd model y^2 = F(x), deg F = 7.  Each chart
is the simple root z(t) of one polynomial equation, solved by the one
series Newton iteration _newton_root:

* generic (ybar != 0): t = x - x(P), y(t) solves y^2 = F(x(P) + t);
* finite Weierstrass (ybar = 0): t = y - y(P), x(t) solves
  F(x) = (y(P) + t)^2 (+ the dx/2y = dt/F'(x) identity for the
  differential);
* infinity: t = x^3/y, x = u/t^2, y = u^3/t^7 with u(t) = 1 + O(t^2)
  solving u^7 - u^6 + sum_i F_i t^(2(7-i)) u^i = 0.

Each disk has one center (disk_center): the point at infinity, the finite
Weierstrass point, or the Teichmuller point of a generic disk.  A chart
needs only the curve, that center and N; nothing here reads Frobenius.

Basis differentials are w_i = x^i dx / 2y for i = 0, 1, 2 (holomorphic).
A form is a coefficient triple (c0, c1, c2) of PadicNumbers meaning
c0 w0 + c1 w1 + c2 w2.  One differential_series call expands the whole
basis on a chart; form_series combines those expansions for any triple.
"""

from __future__ import annotations

import math
from operator import mul

from .curve import CurvePoint
from .errors import InputError
from .padic import INF, PadicNumber, hensel_lift_root, teichmuller_point
from .series import PadicPowerSeries, min_tail_valuation


def _powers(z, n):
    """[None, z, z^2, .., z^n]: the powers a polynomial of degree n reads."""
    zpows = [None, z]
    for _ in range(1, n):
        zpows.append(zpows[-1] * z)
    return zpows


def _value(gs, zpows):
    """G(z) for G = sum_i gs[i] Z^i, from zpows = _powers(z, deg G)."""
    return sum(map(mul, gs[1:], zpows[1:]), gs[0])


def _slope(gs, zpows, prec):
    """G'(z) = sum_i i gs[i] z^(i-1), from zpows reaching z^(deg G - 1)."""
    p = gs[0].prime
    return sum((gs[i].scale(PadicNumber.from_rational(i, p, rel_prec=prec))
                * zpows[i - 1] for i in range(2, len(gs))), gs[1])


def _newton_root(gs, z, prec):
    """The simple root of G = sum_i gs[i] Z^i congruent to the start z mod
    t, by series Newton z <- z - G(z)/G'(z); G'(z) must be a unit at t = 0.
    Each step doubles the number of correct t-terms, starting from one, so
    step i = 1 .. ceil(log2 M) runs at t-precision min(2^i, M), with every
    series cut there; the last step runs at the full M = z.t_prec."""
    M = z.t_prec
    for i in range(1, math.ceil(math.log2(M)) + 1):
        n = min(2 ** i, M)
        z = z.with_t_prec(n)
        gs_n = [s.truncate(n) for s in gs]
        zpows = _powers(z, len(gs) - 1)
        z = z - _value(gs_n, zpows) * _slope(gs_n, zpows, prec).invert_unit()
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
        # terms.  The pinned chart digests and reports depend on this value
        self.t_prec = prec + 4
        self.prec = prec
        if center.is_infinity:
            self.kind = "infinity"
            self._build_infinity()
            return
        if center.x.valuation < 0 and not center.x.is_zero:
            raise InputError("affine center must have integral x")
        ybar = 0 if center.y.is_zero or center.y.valuation >= 1 \
            else center.y.residue(1)
        if ybar == 0:
            self.kind = "weierstrass"
            self._build_weierstrass()
        else:
            self.kind = "generic"
            self._build_generic()

    # -- charts ----------------------------------------------------------

    def _build_generic(self):
        p, M, prec = self.prime, self.t_prec, self.prec
        one = PadicNumber.from_rational(1, p, rel_prec=prec)
        self.x_series = PadicPowerSeries(p, [self.center.x, one], M)
        fx = _value(self._F_series(), _powers(self.x_series, 7))
        # Newton from the center's own y, a root of F(x(P)) to its digits
        self.y_series = _newton_root(
            [-fx, PadicPowerSeries.zero(p, M),
             PadicPowerSeries.constant(one, p, M)],
            PadicPowerSeries(p, [self.center.y], M), prec)

    def _build_weierstrass(self):
        p, M, prec = self.prime, self.t_prec, self.prec
        one = PadicNumber.from_rational(1, p, rel_prec=prec)
        self.y_series = PadicPowerSeries(p, [self.center.y, one], M)
        gs = self._F_series()
        gs[0] = gs[0] - self.y_series * self.y_series
        self.x_series = _newton_root(
            gs, PadicPowerSeries(p, [self.center.x], M), prec)

    def _build_infinity(self):
        one = PadicPowerSeries.constant(1, self.prime, self.t_prec, self.prec)
        # u^7 - u^6 + sum_i F_i t^(2(7-i)) u^i, with F_7 = 1
        gs = [f.shift_t(2 * (7 - i)) for i, f in enumerate(self._F_series())]
        gs[6] = gs[6] - one
        self.u_series = _newton_root(gs, one, self.prec)

    def _F_series(self):
        """The coefficients of F as constant series known to `prec`."""
        return [PadicPowerSeries.constant(c, self.prime, self.t_prec,
                                          self.prec) for c in self.curve.F]

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
        t^4, t^2 u or u^2."""
        p, prec = self.prime, self.prec
        one = PadicNumber.from_rational(1, p, rel_prec=prec)
        if self.kind == "infinity":
            u = self.u_series
            up = u.derivative().shift_t(1)   # t * u'(t)
            lead = u - up.scale(one / 2)
            uinv = u.invert_unit()
            shared = lead * (uinv * uinv * uinv)
            t2 = PadicPowerSeries.identity(p, self.t_prec, prec)
            t2 = t2 * t2
            polys = _unit_scaled((t2 * t2, t2 * u, u * u), one)
            return tuple(-(shared * poly) for poly in polys)
        xs = self.x_series
        if self.kind == "generic":
            shared = (self.y_series + self.y_series).invert_unit()
        else:
            shared = _slope(self._F_series(), _powers(xs, 6),
                            prec).invert_unit()
        polys = _unit_scaled(
            (PadicPowerSeries.constant(one, p, xs.t_prec), xs, xs * xs), one)
        return tuple(num * shared for num in polys)

    def evaluate_antiderivative(self, F_series, t0):
        """F(t0) with the inverse-index tail bound for antiderivatives of
        integral series."""
        w = t0.valuation if not t0.is_zero else t0.abs_prec
        if w == INF:
            return F_series.evaluate(t0, tail_bound=INF)
        if w < 1:
            raise InputError("point is not in the open disk")
        bound = min_tail_valuation(F_series.t_prec, w, self.prime)
        return F_series.evaluate(t0, tail_bound=bound)


def _unit_scaled(polys, one):
    """Each series times `one`, all cut to the least t_prec among them, so
    a chart's three basis forms share one t-precision (the pinned reports
    depend on those digits)."""
    t = min(s.t_prec for s in polys)
    return [s.scale(one).truncate(t) for s in polys]


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
