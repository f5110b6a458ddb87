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
generic disk it is the termwise integral from the Teichmuller point plus
half the system integral between the two Teichmuller lifts of the disk.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionError
from .frobenius import frobenius_data
from .localdisk import DifferentialForm, LocalExpansion, disk_center
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
    __slots__ = ("expansion", "forms", "antiderivatives", "half_system")

    def __init__(self, expansion, forms, antiderivatives, half_system):
        self.expansion = expansion
        self.forms = forms
        self.antiderivatives = antiderivatives
        self.half_system = half_system


class ColemanContext:
    """Per-(curve, p) cache of disk charts, Teichmuller centers and solved
    Frobenius systems, exposing integrals of w0, w1, w2 between points."""

    def __init__(self, curve, p, prec):
        curve.check_prime(p)
        self.curve = curve
        self.p = p
        self.prec = prec
        self.t_prec = prec + 4
        self.fd = frobenius_data(curve, p, prec)
        self._disks = {}
        self._half = PadicNumber.from_rational(
            Fraction(1, 2), p, rel_prec=prec)
        self._basis = [DifferentialForm.basis(i, p, prec) for i in range(3)]

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
        half_system = None
        if residues is not None:
            x_t, y_t = residues
            m = p ** self.fd.work_exp
            rhs = []
            mat = self.fd.matrix()
            for i in range(6):
                # h_i is odd in y: its value at (x_t, m - y_t) is -acc
                acc = self.fd._primitive_acc(i, x_t, y_t)
                rhs.append(self.fd._wrap_scaled(acc)
                           - self.fd._wrap_scaled(-acc % m))
            one = PadicNumber.from_rational(1, p, rel_prec=self.prec)
            zero = PadicNumber.zero(p, self.prec)
            rows = [[(one if i == j else zero) - mat[j][i]
                     for j in range(6)] for i in range(6)]
            sol = padic_linsolve(rows, rhs)
            half_system = tuple(self._half * sol[i] for i in range(3))
        expansion = LocalExpansion(self.curve, center, p,
                                   self.t_prec, self.prec)
        forms = tuple(expansion.differential_series(f) for f in self._basis)
        antis = tuple(f.formal_integral() for f in forms)
        return _DiskData(expansion, forms, antis, half_system)

    # -- integrals ---------------------------------------------------------

    def halfint(self, point):
        """(1/2) Int_{iota(point)}^{point} of (w0, w1, w2)."""
        disk = self.curve.reduce_curve_point(point, self.p)
        data, flipped = self.disk_data(disk)
        x = point.involution() if flipped else point
        t = data.expansion.t_of(x)
        vals = [data.expansion.evaluate_antiderivative(a, t)
                for a in data.antiderivatives]
        if data.half_system is not None:
            vals = [v + h for v, h in zip(vals, data.half_system)]
        if flipped:
            vals = [-v for v in vals]
        return tuple(vals)

    def integral_holomorphic(self, start, end):
        """(Int_start^end w0, w1, w2) as PadicNumbers."""
        hi = self.halfint(end)
        lo = self.halfint(start)
        return tuple(h - l for h, l in zip(hi, lo))
