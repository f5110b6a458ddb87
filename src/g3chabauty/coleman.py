"""Coleman integration of holomorphic forms via Frobenius equivariance.

Between the Frobenius-fixed Teichmuller points of two generic disks the
integrals of the six basis forms solve (I - M^T) v = h(end) - h(start),
since pulling a path back under phi scales it into itself.  Everything
else assembles from that system plus termwise integrals inside disks:

    halfint(X) = (1/2) Int_{iota X}^{X} w,

with iota the hyperelliptic involution, satisfies
Int_P^Q w = halfint(Q) - halfint(P) because iota negates holomorphic
forms.  For X in a Weierstrass or infinity disk the center is fixed by
iota, so halfint(X) is just the termwise integral from the center; in a
generic disk it is the termwise integral from the Teichmuller point P plus
halfint(P).  The primitives h are odd in y, so h(P) - h(iota P) = 2 h(P)
and halfint(P) solves (I - M^T) v = h(P) directly.

That system is solved by Cramer's rule.  det(I - M) = P(1) = #J(F_p), and
adj(I - M) = sum_k B_k comes out of the Faddeev-LeVerrier loop that
computes the zeta (frobenius._char_series_coeffs), so

    v_i = sum_j adj(I - M)[j][i] h_j(P) / #J(F_p),

solved only for the constants i = 0, 1, 2 of the holomorphic forms.  It
loses exactly v_p(#J(F_p)) digits to the division.  For p >= 7 the Weil
bound gives #J(F_p) <= (1 + sqrt p)^6 < p^4, so v_p(#J(F_p)) <= 3 <
PREC_MIN and every constant keeps at least one digit: no system here is
singular.

Each disk therefore keeps one series per basis form: H_i(t), the termwise
integral of w_i from the center, whose constant term formal_integral sets
to halfint(P) on a generic disk (the exact zero elsewhere), so halfint is
H_i at the point's parameter (negated on the mirror disk).  A form is a coefficient triple over (w0, w1, w2), and its
half-integral series is the same combination of H_0, H_1, H_2.  The chart
needs only the curve, the disk and N (localdisk); h(P) comes from
FrobeniusData.primitives_at, a lookup of the values the Frobenius run
folded at every generic disk's P, lifted at its working precision.
"""

from __future__ import annotations

from collections import namedtuple

from .frobenius import frobenius_data
from .localdisk import LocalExpansion, disk_center
from .padic import PadicNumber


def padic_linsolve(adj, det, rhs):
    """Solve (I - M^T) v = rhs by Cramer's rule, from the rows of
    adj = adj(I - M) as PadicNumbers and the exact integer det = det(I - M):
    v_i = sum_j adj[j][i] rhs_j / det, for each column i that adj holds."""
    return [sum(row[i] * r for row, r in zip(adj, rhs)) / det
            for i in range(len(adj[0]))]


# a disk's chart and the half-integral series of its basis forms
_DiskData = namedtuple("_DiskData", "expansion halfints")


class ColemanContext:
    """Per-(curve, p) cache of disk charts, Teichmuller centers and solved
    Frobenius systems, exposing integrals of w0, w1, w2 between points.
    Columns 0 .. 2 of adj(I - M), those of the constants of w0, w1, w2, are
    wrapped as PadicNumbers to p^prec once, for the Cramer solve of every
    generic disk.  Given the points `disks` of C(F_p), h is folded only
    at the generic disks under them (and the audit disk), so only their
    integrals can be read."""

    def __init__(self, curve, p, prec, disks=None):
        self.curve = curve
        self.p = p
        self.prec = prec
        self.fd = frobenius_data(curve, p, prec, disks)
        self._adj = tuple(
            tuple(PadicNumber.from_rational(v, p, abs_prec=prec)
                  for v in row[:3])
            for row in self.fd.adjugate)
        self._disks = {}

    # -- per-disk assembly -------------------------------------------------

    def disk_data(self, disk):
        """Cached chart data for the canonical disk under ``disk``."""
        key = disk.canonical(self.p)
        if key not in self._disks:
            self._disks[key] = self._build_disk(key)
        return self._disks[key]

    def _build_disk(self, disk):
        """The chart from the curve, the disk and N alone; on a generic
        disk, halfint(P) at the Teichmuller point P that Frobenius lifts."""
        center = disk_center(self.curve, disk, self.p, self.prec)
        expansion = LocalExpansion(self.curve, center, self.p, self.prec)
        consts = (None,) * 3
        if expansion.kind == "generic":
            # h is odd in y, so h(P) - h(iota P) = 2 h(P): the half
            # integral between the two lifts solves (I - M^T) v = h(P),
            # by Cramer's rule with adj(I - M) and det(I - M) = #J(F_p)
            consts = padic_linsolve(self._adj, self.fd.jacobian_order(),
                                    self.fd.primitives_at(disk))
        halfints = tuple(f.formal_integral(c) for f, c in
                         zip(expansion.differential_series(), consts))
        return _DiskData(expansion, halfints)

    # -- integrals ---------------------------------------------------------

    def halfint(self, point):
        """(1/2) Int_{iota(point)}^{point} of (w0, w1, w2)."""
        disk = self.curve.reduce_curve_point(point, self.p)
        data = self.disk_data(disk)
        # a mirror disk is generic, where t = x - x(P) reads no y: the
        # point and iota(point) share t, and the half-integral flips sign
        flipped = disk != disk.canonical(self.p)
        t = data.expansion.t_of(point)
        vals = tuple(h.evaluate_antiderivative(t) for h in data.halfints)
        return tuple(-v for v in vals) if flipped else vals

    def integral_holomorphic(self, start, end):
        """(Int_start^end w0, w1, w2) as PadicNumbers."""
        hi = self.halfint(end)
        lo = self.halfint(start)
        return tuple(h - l for h, l in zip(hi, lo))
