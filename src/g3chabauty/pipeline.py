"""Provable zero set of the vanishing functionals on a rank-1 genus-3 curve.

When the Jacobian has Mordell-Weil rank 1, the p-adic closure of J(Q) is a
line in the Lie algebra, so a 2-dimensional space of holomorphic forms
integrates to zero on every rational point.  Starting from one point of
infinite order this module computes an explicit basis (alpha, beta) of that
space, expands the antiderivative of each on every residue disk, isolates
all zeros with the certified disk solver, and intersects the two zero sets.

Every member of the intersection is then classified: a known rational
point, a new rational point (exact verification), a Weierstrass point
(exact: a root of a factor of F), a torsion image (all three logarithms
vanish at working precision; the order is read off the reduction, where
torsion injects), or an algebraic point recognized over a quadratic field
and verified exactly in Q[t]/(min poly).  Recognition failures raise
instead of guessing.

Zeros are computed once per involution pair of disks: the functionals are
odd under y -> -y, so the mirror disk has the same parameter values with
reflected points.  The report keeps the per-disk root counts next to the
counting bounds so the global cap #C(F_p) + 2g - 2 can be audited from the
output alone.
"""

import json
import logging
from collections import Counter
from fractions import Fraction

from .coleman import ColemanContext
from .curve import RationalPoint, eval_exact
from .errors import (InputError, PrecisionError, RecognitionError,
                     SimplicityError)
from .jacobian import MumfordDivisorFp
from .localdisk import curve_point_from_rational
from .padic import INF, PadicNumber
from .recognize import (QuadraticElement, element_min_poly,
                        format_polynomial, is_irreducible_quadratic,
                        linear_relation, primitive_poly, quadratic_relation,
                        rational_reconstruct)
from .rootfinding import series_roots_in_disk

log = logging.getLogger(__name__)


def default_precision(p):
    """Working precision 2p + 4: far above what any single reduction or
    isolation step can consume at p >= 7, cheap to raise if a run raises."""
    return 2 * p + 4


class _Known:
    """A known rational point prepared for disk work."""

    __slots__ = ("original", "monic", "point", "disk")

    def __init__(self, curve, p, prec, original):
        if not curve.is_on_curve_original(original):
            raise InputError("known point %s is not on the curve"
                             % (original.coord_strings(),))
        self.original = original
        self.monic = curve.to_monic(original)
        self.point = curve_point_from_rational(curve, self.monic, p, prec)
        self.disk = curve.reduce_curve_point(self.point, p)


def _prepare_knowns(curve, p, prec, knowns):
    """Validated known points, closed under y -> -y, sorted, deduplicated."""
    seen = {}
    for pt in knowns:
        for q in (pt, pt.involution()):
            key = (q.kind, q.x, q.y)
            if key not in seen:
                seen[key] = q
    pts = sorted(seen.values())
    return [_Known(curve, p, prec, q) for q in pts]


def _pick_base(ctx, knowns, base_point):
    """The base point and its logarithm vector (the image of [P - inf]
    under the three Coleman integrals).  A vanishing logarithm means the
    point generates no direction, so it cannot normalize the computation."""
    if base_point is not None:
        for k in knowns:
            if k.original == base_point:
                logs = ctx.halfint(k.point)
                if all(c.is_zero for c in logs):
                    raise InputError(
                        "base point has vanishing logarithm at this precision")
                return k, logs
        raise InputError("base point must appear among the known points")
    for k in knowns:
        if k.original.is_infinity or k.original.y == 0:
            continue
        logs = ctx.halfint(k.point)
        if not all(c.is_zero for c in logs):
            return k, logs
    raise InputError("no known point of infinite order; supply a base point")


def _annihilator_pair(logs, p):
    """Two functionals with unit content vanishing on the log vector.

    With pivot j* of minimal valuation m, the pair is
    (logs[j*] e_j - logs[j] e_j*) / p^m for the two non-pivot indices j;
    both kill the log line exactly and stay integral."""
    vals = [INF if c.is_zero else c.valuation for c in logs]
    pivot = min(range(3), key=lambda i: (vals[i], i))
    m = vals[pivot]
    if m == INF:
        raise InputError("logarithm vector vanishes")
    zero = PadicNumber.zero(p)
    rows = []
    for j in range(3):
        if j == pivot:
            continue
        coeffs = [zero] * 3
        coeffs[j] = logs[pivot].shift(-m)
        coeffs[pivot] = -logs[j].shift(-m)
        rows.append(tuple(coeffs))
    return rows[0], rows[1], pivot


def _lambda_series(data, coeffs):
    """Antiderivative series of sum_i coeffs[i] w_i on the chart, with the
    constant term fixed so the value at t is the half-integral from the
    reflected point; second return is the mod-p vanishing order of the
    differential, which bounds the zero count in the disk by order + 1."""
    acc = None
    for c, w in zip(coeffs, data.forms):
        if c.is_exact_zero:
            continue
        term = w.scale(c)
        acc = term if acc is None else acc + term
    if acc is None:
        raise InputError("zero functional has no zero set worth computing")
    order = acc.reduction_order()
    lam = acc.formal_integral()
    if data.half_system is not None:
        const = None
        for c, h in zip(coeffs, data.half_system):
            add = c * h
            const = add if const is None else const + add
        lam = lam + const
    return lam, order


def _root_sort_key(z):
    if z.is_zero:
        return (1, 0)
    return (0, z.unit % z.prime ** z.rel_prec * z.prime ** z.valuation)


def _match_roots(roots_a, roots_b):
    """Common zeros of the two functionals: cosets present in both lists,
    keeping the more precise representative."""
    zeros = []
    used = set()
    for ra in roots_a:
        hit = None
        for k, rb in enumerate(roots_b):
            if k in used:
                continue
            if (ra - rb).is_zero:
                hit = k
                break
        if hit is None:
            continue
        used.add(hit)
        rb = roots_b[hit]
        zeros.append(ra if ra.abs_prec >= rb.abs_prec else rb)
    return zeros


class _Analysis:
    """One full run; holds the shared context and accumulates records."""

    def __init__(self, curve, p, prec, ctx):
        self.curve = curve
        self.p = p
        self.prec = prec
        self.ctx = ctx
        self.fbar = curve.f_coeffs_mod(p, 1)
        self.jac_order = ctx.fd.jacobian_order()
        self._wq = None

    # -- per-disk work ---------------------------------------------------

    def process_disk(self, disk, alpha, beta, knowns):
        data, _ = self.ctx.disk_data(disk)
        series_a, order_a = _lambda_series(data, alpha)
        series_b, order_b = _lambda_series(data, beta)
        if order_a is None or order_b is None:
            raise SimplicityError(
                "functional vanishes identically mod p on disk %s"
                % disk.label())
        bound = 1 + min(order_a, order_b)
        counted = False
        roots_a, err_a = self._isolate(series_a)
        roots_b, err_b = self._isolate(series_b)
        if roots_a is not None and roots_b is not None:
            zeros = _match_roots(roots_a, roots_b)
        elif roots_a is not None:
            zeros = self._filter_by_value(roots_a, series_b, data)
        elif roots_b is not None:
            zeros = self._filter_by_value(roots_b, series_a, data)
        else:
            here = [k for k in knowns if k.disk == disk]
            if len(here) != bound:
                raise SimplicityError(
                    "disk %s: %s / %s, and the %d known points there do "
                    "not reach the counting bound %d"
                    % (disk.label(), err_a, err_b, len(here), bound))
            # the knowns saturate the counting bound, so they are the zeros
            zeros = sorted((data.expansion.t_of(k.point) for k in here),
                           key=_root_sort_key)
            counted = True
        if len(zeros) > bound:
            raise PrecisionError(
                "disk %s reports %d zeros against counting bound %d"
                % (disk.label(), len(zeros), bound))
        record = {
            "disk": disk.label(),
            "kind": data.expansion.kind,
            "mirror": None if disk == disk.involution(self.p)
                    else disk.involution(self.p).label(),
            "orders": [order_a, order_b],
            "bound": bound,
            "roots_alpha": None if roots_a is None
                    else [r.expansion_str() for r in roots_a],
            "roots_beta": None if roots_b is None
                    else [r.expansion_str() for r in roots_b],
            "zero_count": len(zeros),
            "certified_by_count": counted,
        }
        return record, zeros, data

    def _isolate(self, series):
        """Complete root list, or None with the reason when the zeros are
        not simple enough to separate at working precision."""
        try:
            return series_roots_in_disk(series, self.prec - 2), None
        except PrecisionError as exc:
            return None, exc

    def _filter_by_value(self, roots, other, data):
        """Roots of one functional that the other cannot exclude.

        For a root representative r isolated to p^-e around a true zero z,
        the value of the other antiderivative moves by at most p^-e between
        r and z (its coefficients satisfy v(a_j) + j >= j - ord_p(j) >= 1),
        so a value of valuation below e certifies z is not a common zero.
        Values indistinguishable from zero keep the root as a candidate."""
        kept = []
        for r in roots:
            val = data.expansion.evaluate_antiderivative(other, r)
            if not val.is_zero and val.valuation < r.abs_prec:
                continue
            kept.append(r)
        return kept

    # -- classification ----------------------------------------------------

    def classify(self, disk, mirrored, data, t, knowns):
        """Record for one zero, emitted in the (possibly mirrored) disk."""
        base = {
            "disk": disk.label(),
            "kind": data.expansion.kind,
            "t": t.expansion_str(),
            "min_poly_x": None,
            "min_poly_y": None,
            "torsion_order": None,
            "matched_known": None,
        }
        for k in knowns:
            if k.disk != disk:
                continue
            kp = k.point.involution() if mirrored else k.point
            if (data.expansion.t_of(kp) - t).is_zero:
                base["class"] = "known_rational"
                base["matched_known"] = k.original.coord_strings()
                base["x"], base["y"] = self._coords(k.original)
                return base
        if disk.is_infinity and t.is_zero:
            # the point at infinity itself, not among the knowns
            base["class"] = "new_rational"
            base["x"] = base["y"] = "infinity"
            return base
        if disk.y == 0 and t.is_zero:
            return self._classify_weierstrass(disk, base)
        point = data.expansion.point_at(t)
        if mirrored:
            point = point.involution()
        x_o = point.x * self.curve.scale_x
        y_o = point.y * self.curve.scale_y
        qx = rational_reconstruct(x_o)
        qy = rational_reconstruct(y_o)
        if qx is not None and qy is not None:
            cand = RationalPoint.affine(qx, qy)
            if self.curve.is_on_curve_original(cand):
                base["class"] = "new_rational"
                base["x"], base["y"] = self._coords(cand)
                return base
        torsion = all(c.is_zero for c in self.ctx.halfint(point))
        if disk.is_infinity:
            self._recognize_infinity(base, x_o, y_o)
        else:
            self._recognize_affine(base, x_o, y_o, qx)
        base["class"] = "torsion" if torsion else "other_algebraic"
        if torsion:
            base["torsion_order"] = self._reduction_order(disk)
        return base

    def _coords(self, pt):
        cs = pt.coord_strings()
        if cs == "infinity":
            return "infinity", "infinity"
        return cs[0], cs[1]

    def _reduction_order(self, disk):
        cls = MumfordDivisorFp.from_point(disk, self.p, self.fbar)
        return cls.order(self.jac_order)

    def _classify_weierstrass(self, disk, base):
        if self._wq is None:
            self._wq = self.curve.weierstrass_points_qp(self.p, self.prec)
        info = next(w for w in self._wq if w["residue"] == disk.x)
        if info["rational"]:
            pt = RationalPoint.affine(info["x_rational"] * self.curve.scale_x,
                                      0)
            base["class"] = "new_rational"
            base["x"], base["y"] = self._coords(pt)
            return base
        base["class"] = "weierstrass"
        # the min poly of x_o = scale_x * x
        rel = primitive_poly(c * self.curve.scale_x ** -k
                             for k, c in enumerate(info["min_poly"]))
        base["min_poly_x"] = format_polynomial(rel, "x")
        x_o = info["x"] * self.curve.scale_x
        base["x"] = x_o.expansion_str()
        base["y"] = "0"
        base["torsion_order"] = 2
        return base

    def _recognize_affine(self, base, x_o, y_o, qx):
        """Exact identification over a quadratic field, affine chart.

        Relation candidates come from the lattice search and can be noise,
        so each is verified against the curve equation in exact arithmetic
        and the next shape is tried when the check fails."""
        g = self.curve.original
        if qx is not None and self._try_rational_x(base, y_o, qx, g):
            return
        if self._try_quadratic_pair(base, x_o, y_o, g, "x", "y"):
            base.pop("_elements")
            base["x"] = x_o.expansion_str()
            base["y"] = y_o.expansion_str()
            return
        raise RecognitionError("zero in disk %s resists exact recognition"
                               % base["disk"])

    def _try_rational_x(self, base, y_o, qx, g):
        rel_y = quadratic_relation(y_o)
        if rel_y is None or not is_irreducible_quadratic(rel_y):
            return False
        y_el = QuadraticElement.generator(rel_y)
        if not (y_el * y_el - eval_exact(g, qx)).is_zero:
            return False
        base["x"] = str(qx)
        base["y"] = y_o.expansion_str()
        base["min_poly_y"] = format_polynomial(rel_y, "y")
        return True

    def _try_quadratic_pair(self, base, a_o, b_o, poly, var_a, var_b):
        """b^2 = poly(a) with a quadratic over Q and b in Q(a); commits the
        min polys of the chart coordinates to the record on success."""
        rel_a = quadratic_relation(a_o)
        if rel_a is None or not is_irreducible_quadratic(rel_a):
            return False
        a_el = QuadraticElement.generator(rel_a)
        rhs = QuadraticElement.evaluate_poly(poly, a_el)
        b_el = None
        qb = rational_reconstruct(b_o)
        if qb is not None:
            cand = QuadraticElement.rational(qb, rel_a)
            if (cand * cand - rhs).is_zero:
                b_el = cand
        if b_el is None:
            rel = linear_relation(b_o, a_o)
            if rel is None or rel[1] == 0:
                return False
            c0, c1, c2 = rel
            cand = (QuadraticElement.rational(Fraction(-c0, c1), rel_a)
                    + a_el * Fraction(-c2, c1))
            if not (cand * cand - rhs).is_zero:
                return False
            b_el = cand
        base["min_poly_" + var_a] = format_polynomial(rel_a, var_a)
        base["min_poly_" + var_b] = format_polynomial(
            element_min_poly(b_el), var_b)
        base["_elements"] = (a_el, b_el)
        return True

    def _recognize_infinity(self, base, x_o, y_o):
        """Identification in the chart at infinity via s = 1/x, w = y/x^4,
        where w^2 = s * (x^7-reversal of the curve polynomial)."""
        g = self.curve.original
        ginf = [Fraction(0)] + [g[7 - k] for k in range(8)]
        s_o = 1 / x_o
        w_o = y_o / x_o ** 4
        if not self._try_quadratic_pair(base, s_o, w_o, ginf, "s", "w"):
            raise RecognitionError("zero in disk %s resists exact "
                                   "recognition" % base["disk"])
        s_el, w_el = base.pop("_elements")
        x_el = s_el.inverse()
        y_el = w_el * x_el * x_el * x_el * x_el
        base.pop("min_poly_s")
        base.pop("min_poly_w")
        base["x"] = x_o.expansion_str()
        base["y"] = y_o.expansion_str()
        base["min_poly_x"] = format_polynomial(element_min_poly(x_el), "x")
        base["min_poly_y"] = format_polynomial(element_min_poly(y_el), "y")


class AnalysisReport:
    """Zero-set report with deterministic JSON rendering."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data

    def __getitem__(self, key):
        return self.data[key]

    @property
    def zeros(self):
        return self.data["zero_set"]

    def to_json(self):
        return json.dumps(self.data, indent=2, sort_keys=True)


def analyze_curve(curve, p=None, prec=None, knowns=None, base_point=None,
                  search_height=1000):
    """Compute and classify the full zero set; the main entry point.

    knowns: original-model RationalPoints (searched up to search_height
    when omitted).  base_point: an original-model known of infinite order
    (the first known with nonvanishing logarithm when omitted).  A
    precision below 1 or a negative search height raises InputError."""
    if prec is not None and prec < 1:
        raise InputError("precision must be at least 1, got %d" % prec)
    if search_height < 0:
        raise InputError("search height must be at least 0, got %d"
                         % search_height)
    if p is None:
        p = curve.choose_prime()
    else:
        curve.check_prime(p)
    if prec is None:
        prec = default_precision(p)
    if knowns is None:
        knowns = curve.search_rational_points(search_height)
    if not knowns:
        raise InputError("no known rational points; widen the search")
    known_pts = _prepare_knowns(curve, p, prec, knowns)
    ctx = ColemanContext(curve, p, prec)
    run = _Analysis(curve, p, prec, ctx)
    base, logs = _pick_base(ctx, known_pts, base_point)
    alpha, beta, pivot = _annihilator_pair(logs, p)

    disks = sorted({d.canonical(p) for d in curve.fp_points(p)})
    log.info("p=%d prec=%d #C(F_p)=%d |J(F_p)|=%d disks=%d",
             p, prec, ctx.fd.npoints, run.jac_order, len(disks))
    disk_records = []
    tagged = []
    for disk in disks:
        record, zeros, data = run.process_disk(disk, alpha, beta, known_pts)
        log.debug("disk %s: orders=%s bound=%d zeros=%d%s",
                  record["disk"], record["orders"], record["bound"],
                  record["zero_count"],
                  " (by known-point count)" if record["certified_by_count"]
                  else "")
        disk_records.append(record)
        emitted = [(disk, False)]
        mirror = disk.involution(p)
        if mirror != disk:
            emitted.append((mirror, True))
        for where, mirrored in emitted:
            for t in zeros:
                rec = run.classify(where, mirrored, data, t, known_pts)
                tagged.append(((where.kind, where.x, where.y, rec["t"]), rec))
    tagged.sort(key=lambda pair: pair[0])
    zero_records = [rec for _, rec in tagged]

    matched = {tuple(r["matched_known"]) for r in zero_records
               if isinstance(r.get("matched_known"), list)}
    matched |= {r["matched_known"] for r in zero_records
                if r.get("matched_known") == "infinity"}
    for k in known_pts:
        key = k.original.coord_strings()
        key = tuple(key) if isinstance(key, list) else key
        if key not in matched:
            raise PrecisionError(
                "known point %s was not recovered as a zero" % (key,))

    counts = Counter(r["class"] for r in zero_records)
    data = {
        "curve": {
            "coefficients": curve.coeff_strings(),
            "monic_scaling": [str(curve.scale_x), str(curve.scale_y)],
        },
        "prime": p,
        "precision": prec,
        "curve_point_count": ctx.fd.npoints,
        "jacobian_order": run.jac_order,
        "zeta_numerator": list(ctx.fd.zeta),
        "coleman_bound": curve.coleman_bound(p),
        "base_point": base.original.coord_strings(),
        "base_log": [c.expansion_str() for c in logs],
        "annihilators": {
            "alpha": [c.expansion_str() for c in alpha],
            "beta": [c.expansion_str() for c in beta],
            "pivot": pivot,
        },
        "known_points": [k.original.coord_strings() for k in known_pts],
        "disks": disk_records,
        "zero_set": zero_records,
        "class_counts": dict(sorted(counts.items())),
    }
    return AnalysisReport(data)
