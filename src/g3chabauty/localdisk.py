"""Local coordinates on residue disks and expansions of differentials.

Three disk types on the monic odd model y^2 = F(x), deg F = 7:

* generic (ybar != 0): t = x - x(P), y(t) a square-root series;
* finite Weierstrass (ybar = 0): t = y - y(P), x(t) by series Newton from
  F(x) = t^2 (+ the dx/2y = dt/F'(x) identity for the differential);
* infinity: t = x^3/y, x = u/t^2, y = u^3/t^7 with u(t) = 1 + O(t^2) the
  unit series solving u^7 - u^6 + sum_i F_i t^(2(7-i)) u^i = 0.

Each disk has one center (disk_center): the point at infinity, the finite
Weierstrass point, or the Teichmuller point of a generic disk, whose
integer residues also feed the Frobenius system in coleman.

Basis differentials are w_i = x^i dx / 2y for i = 0, 1, 2 (holomorphic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels as kernels
from .curve import CurvePoint
from .errors import InputError, PrecisionError
from .padic import (INF, PadicNumber, hensel_lift_root, sqrt_mod_pn,
                    teichmuller_int)
from .series import PadicPowerSeries, min_tail_valuation, sqrt_series


@dataclass(frozen=True)
class DifferentialForm:
    """c0*w0 + c1*w1 + c2*w2 with PadicNumber coefficients."""

    c0: PadicNumber
    c1: PadicNumber
    c2: PadicNumber

    @staticmethod
    def basis(i, p, prec):
        cs = [PadicNumber.zero(p)] * 3
        cs[i] = PadicNumber.from_rational(1, p, rel_prec=prec)
        return DifferentialForm(*cs)

    @property
    def coefficients(self):
        return (self.c0, self.c1, self.c2)

    def residues(self, p):
        """(c0, c1, c2) mod p; requires integral coefficients known mod p."""
        out = []
        for c in self.coefficients:
            if c.is_zero:
                if c.valuation < 1:
                    raise PrecisionError("coefficient not known mod p")
                out.append(0)
                continue
            if c.valuation < 0:
                raise PrecisionError("form is not integral")
            out.append(c.residue(1))
        return tuple(out)


def _poly_on_series(coeffs, x_series, prime, prec):
    """Horner evaluation of exact-coefficient poly at a series."""
    acc = PadicPowerSeries.zero(prime, x_series.t_prec)
    for c in reversed(list(coeffs)):
        acc = acc * x_series
        acc = acc + PadicPowerSeries.constant(
            PadicNumber.from_rational(c, prime, abs_prec=prec)
            if c else PadicNumber.zero(prime),
            prime, acc.t_prec)
    return acc


class LocalExpansion:
    """Chart around a center point: series for the coordinates and a method
    expanding holomorphic forms as w(t) dt."""

    def __init__(self, curve, center, p, t_prec, prec):
        self.curve = curve
        self.center = center
        self.prime = p
        self.t_prec = t_prec
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
        fx = _poly_on_series(self.curve.F, self.x_series, p, prec)
        self.y_series = sqrt_series(fx, branch=self.center.y)

    def _build_weierstrass(self):
        p, M, prec = self.prime, self.t_prec, self.prec
        y0 = self.center.y
        one = PadicNumber.from_rational(1, p, rel_prec=prec)
        y_series = PadicPowerSeries(p, [y0, one], M)
        rhs = y_series * y_series
        x = PadicPowerSeries(p, [self.center.x], M)
        steps = max(1, math.ceil(math.log2(M)) + 1)
        for _ in range(steps):
            fx = _poly_on_series(self.curve.F, x, p, prec)
            fpx = _poly_on_series(self.curve.F_derivative(), x, p, prec)
            x = x - (fx - rhs) * fpx.invert_unit()
        self.x_series = x
        self.y_series = y_series

    def _build_infinity(self):
        p, M, prec = self.prime, self.t_prec, self.prec
        one = PadicNumber.from_rational(1, p, rel_prec=prec)
        u = PadicPowerSeries(p, [one], M)
        tpow = {}
        for i in range(7):
            e = 2 * (7 - i)
            if self.curve.F[i] == 0:
                continue
            ci = PadicNumber.from_rational(self.curve.F[i], p, abs_prec=prec)
            tpow[i] = PadicPowerSeries(
                p, [PadicNumber.zero(p)] * e + [ci], M)
        steps = max(1, math.ceil(math.log2(M)) + 1)
        for _ in range(steps):
            # G(u) = u^7 - u^6 + sum_i F_i t^(2(7-i)) u^i
            upows = [PadicPowerSeries.constant(one, p, M)]
            for _k in range(7):
                upows.append(upows[-1] * u)
            g = upows[7] - upows[6]
            gp = upows[6].scale(_int(7, p, prec)) - upows[5].scale(_int(6, p, prec))
            for i, ts in tpow.items():
                g = g + ts * upows[i]
                if i > 0:
                    gp = gp + ts.scale(_int(i, p, prec)) * upows[i - 1]
            u = u - g * gp.invert_unit()
        self.u_series = u

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

    def differential_series(self, form):
        """w(t) with c0 w0 + c1 w1 + c2 w2 = w(t) dt on this chart."""
        p, prec = self.prime, self.prec
        c0, c1, c2 = form.coefficients
        if self.kind == "infinity":
            u = self.u_series
            up = u.derivative().shift_t(1)   # t * u'(t)
            half = PadicNumber.from_rational(1, p, rel_prec=prec) / 2
            lead = u - up.scale(half)
            uinv = u.invert_unit()
            uinv3 = uinv * uinv * uinv
            t2 = PadicPowerSeries.identity(p, self.t_prec, prec)
            t2 = t2 * t2
            t4 = t2 * t2
            poly = t4.scale(c0) + (t2 * u).scale(c1) + (u * u).scale(c2)
            return -(lead * uinv3 * poly)
        xs = self.x_series
        num = (xs * xs).scale(c2) + xs.scale(c1)
        num = num + PadicPowerSeries.constant(c0, p, num.t_prec)
        if self.kind == "generic":
            den = (self.y_series + self.y_series).invert_unit()
            return num * den
        fpx = _poly_on_series(self.curve.F_derivative(), xs, p, prec)
        return num * fpx.invert_unit()

    def integral_series(self, form):
        """Formal antiderivative of the expansion, zero at the center."""
        return self.differential_series(form).formal_integral()

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


def _int(n, p, prec):
    return PadicNumber.from_rational(n, p, rel_prec=prec)


def curve_point_from_rational(curve, pt, p, prec):
    """Monic-model CurvePoint from an exact monic-model RationalPoint."""
    if pt.is_infinity:
        return CurvePoint.infinity()
    return CurvePoint.affine(
        PadicNumber.from_rational(pt.x, p, abs_prec=prec),
        PadicNumber.from_rational(pt.y, p, abs_prec=prec))


def disk_center(curve, disk, p, prec, work):
    """The one center of a disk, to `prec` digits, and for a generic disk
    the integer residues mod p^work of that center (None otherwise).

    Infinity and finite Weierstrass points are fixed by the involution; a
    generic disk is centered at its Frobenius-fixed point: Teichmuller x,
    and the root y of F(x) congruent to the disk's y."""
    if disk.is_infinity:
        return CurvePoint.infinity(), None
    if disk.y == 0:
        x = hensel_lift_root(curve.f_coeffs_mod(p, prec), disk.x, p, prec)
        return CurvePoint.affine(x, PadicNumber.zero(p)), None
    m = p ** work
    x_t = teichmuller_int(disk.x, p, work)
    y_t = sqrt_mod_pn(
        kernels.poly_eval_mod(curve.f_coeffs_mod(p, work), x_t, m), p, work)
    if y_t is None:
        raise PrecisionError("no Teichmuller point over this disk")
    if y_t % p != disk.y:
        y_t = m - y_t
    x = PadicNumber.from_rational(x_t, p, abs_prec=prec) if x_t \
        else PadicNumber.zero(p, prec)
    y = PadicNumber.from_rational(y_t, p, abs_prec=prec)
    return CurvePoint.affine(x, y), (x_t, y_t)


def tiny_integral(curve, form, P, Q, p, t_prec, prec):
    """Coleman integral of a holomorphic form between two points of the same
    residue disk, by termwise integration of the chart expansion at P."""
    dP = curve.reduce_curve_point(P, p)
    dQ = curve.reduce_curve_point(Q, p)
    if dP != dQ:
        raise InputError("tiny integral endpoints must share a disk")
    if dP.is_infinity:
        # the chart must sit at infinity, so difference two evaluations
        exp = LocalExpansion(curve, CurvePoint.infinity(), p, t_prec, prec)
        F = exp.integral_series(form)
        hi = exp.evaluate_antiderivative(F, exp.t_of(Q))
        lo = exp.evaluate_antiderivative(F, exp.t_of(P))
        return hi - lo
    exp = LocalExpansion(curve, P, p, t_prec, prec)
    F = exp.integral_series(form)
    return exp.evaluate_antiderivative(F, exp.t_of(Q))
