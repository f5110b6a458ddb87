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

Each disk therefore keeps one series per basis form: H_i(t), the termwise
integral of w_i from the center plus, on a generic disk, halfint(P) as its
constant, so halfint is H_i at the point's parameter (negated on the
mirror disk).  A form is a coefficient triple over (w0, w1, w2), and its
half-integral series is the same combination of H_0, H_1, H_2.
"""

from __future__ import annotations

from .errors import PrecisionError
from .frobenius import frobenius_data
from .localdisk import LocalExpansion, disk_center
from .padic import PadicNumber


def padic_linsolve(rows, rhs):
    """Solve a square system of PadicNumbers by Gauss-Jordan elimination,
    pivoting on the entry of least valuation so precision loss is minimal
    and honestly tracked."""
    n = len(rhs)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    order = []
    used = set()
    for col in range(n):
        best = None
        best_val = None
        for r in range(n):
            if r in used:
                continue
            e = aug[r][col]
            if e.is_zero:
                continue
            if best is None or e.valuation < best_val:
                best, best_val = r, e.valuation
        if best is None:
            raise PrecisionError("system is singular at working precision")
        used.add(best)
        order.append(best)
        piv = aug[best][col]
        aug[best] = [x / piv for x in aug[best]]
        for r in range(n):
            if r == best:
                continue
            f = aug[r][col]
            if f.is_exact_zero:
                continue
            aug[r] = [aug[r][j] - f * aug[best][j] for j in range(n + 1)]
    sol = [None] * n
    for col, r in enumerate(order):
        sol[col] = aug[r][n]
    return sol


class _DiskData:
    """A disk's chart, its basis forms and their half-integral series."""

    __slots__ = ("expansion", "forms", "halfints")

    def __init__(self, expansion, forms, halfints):
        self.expansion = expansion
        self.forms = forms
        self.halfints = halfints


class ColemanContext:
    """Per-(curve, p) cache of disk charts, Teichmuller centers and solved
    Frobenius systems, exposing integrals of w0, w1, w2 between points."""

    def __init__(self, curve, p, prec):
        self.curve = curve
        self.p = p
        self.prec = prec
        self.t_prec = prec + 4
        self.fd = frobenius_data(curve, p, prec)
        self._disks = {}

    # -- per-disk assembly -------------------------------------------------

    def disk_data(self, disk):
        """Cached chart data for the canonical disk under ``disk``, plus a
        flag saying whether ``disk`` itself is the mirror-image half."""
        key = disk.canonical(self.p)
        flip = (not disk.is_infinity) and disk.y != key.y
        if key not in self._disks:
            self._disks[key] = self._build_disk(key)
        return self._disks[key], flip

    def _build_disk(self, disk):
        p = self.p
        center, residues = disk_center(self.curve, disk, p, self.prec,
                                       self.fd.work_exp)
        expansion = LocalExpansion(self.curve, center, p,
                                   self.t_prec, self.prec)
        forms = expansion.differential_series()
        halfints = tuple(f.formal_integral() for f in forms)
        if residues is not None:
            # h is odd in y, so h(P) - h(iota P) = 2 h(P): the half
            # integral between the two lifts solves (I - M^T) v = h(P)
            x_t, y_t = residues
            fd = self.fd
            rhs = [fd._wrap_scaled(fd._primitive_acc(i, x_t, y_t))
                   for i in range(6)]
            mat = fd.matrix()
            one = PadicNumber.from_rational(1, p, rel_prec=self.prec)
            zero = PadicNumber.zero(p, self.prec)
            rows = [[(one if i == j else zero) - mat[j][i]
                     for j in range(6)] for i in range(6)]
            sol = padic_linsolve(rows, rhs)
            halfints = tuple(h + c for h, c in zip(halfints, sol))
        return _DiskData(expansion, forms, halfints)

    # -- integrals ---------------------------------------------------------

    def halfint(self, point):
        """(1/2) Int_{iota(point)}^{point} of (w0, w1, w2)."""
        disk = self.curve.reduce_curve_point(point, self.p)
        data, flipped = self.disk_data(disk)
        x = point.involution() if flipped else point
        t = data.expansion.t_of(x)
        vals = tuple(data.expansion.evaluate_antiderivative(h, t)
                     for h in data.halfints)
        return tuple(-v for v in vals) if flipped else vals

    def integral_holomorphic(self, start, end):
        """(Int_start^end w0, w1, w2) as PadicNumbers."""
        hi = self.halfint(end)
        lo = self.halfint(start)
        return tuple(h - l for h, l in zip(hi, lo))
