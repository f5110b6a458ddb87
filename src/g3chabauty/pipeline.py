"""Provable zero set of the vanishing functionals on a rank-1 genus-3 curve.

When the Jacobian has Mordell-Weil rank 1, the p-adic closure of J(Q) is a
line in the Lie algebra, so a 2-dimensional space of holomorphic forms
integrates to zero on every rational point.  Starting from one point of
infinite order this module computes an explicit basis (alpha, beta) of that
space, expands the half-integral of each on every residue disk, isolates
all zeros with the certified disk solver, and intersects the two zero sets.

Every member of the intersection is then classified: a known rational
point, a new rational point (exact verification), a Weierstrass point
(exact: a root of a factor of F), a torsion image (all three logarithms
vanish at working precision; the order is read off the reduction, where
torsion injects), or an algebraic point over a quadratic field, exact in
Q[t]/(min poly).  The exact point comes from recognize.exact_point: x is
rational or quadratic, and y is never searched for, as it is a square
root of g(x).  Recognition failures raise instead of guessing.

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
from .curve import (COST_CAP_S, HEIGHT_CAP, PREC_CAP, PREC_MIN,
                    RationalPoint, check_prime_number, estimated_seconds)
from .errors import (InputError, PrecisionError, RecognitionError,
                     SimplicityError)
from .jacobian import MumfordDivisorFp
from .localdisk import form_series
from .padic import INF, PadicNumber, ord_p
from .recognize import (element_min_poly, exact_point, format_polynomial,
                        rational_reconstruct)
from .series import series_roots_in_disk

log = logging.getLogger(__name__)


def default_precision(p):
    """Working precision 2p + 4: far above what any single reduction or
    isolation step can consume at p >= 7, cheap to raise if a run raises."""
    return 2 * p + 4


class _Known:
    """A known rational point prepared for disk work."""

    __slots__ = ("original", "point", "disk")

    def __init__(self, curve, p, prec, original):
        self.original = original
        self.point = curve.padic_point(original, p, prec)
        self.disk = curve.reduce_curve_point(self.point, p)


def _prepare_knowns(curve, p, prec, knowns):
    """Known points closed under y -> -y, sorted, deduplicated."""
    pts = sorted({q for pt in knowns for q in (pt, pt.involution())})
    return [_Known(curve, p, prec, q) for q in pts]


def _pick_base(ctx, knowns, base_point):
    """The base point and its logarithm vector (the image of [P - inf]
    under the three Coleman integrals).  A vanishing logarithm means the
    point generates no direction, so it cannot normalize the computation."""
    if base_point is not None:
        # check_inputs put it among the knowns or their mirrors
        k = next(k for k in knowns if k.original == base_point)
        logs = ctx.halfint(k.point)
        if all(c.is_zero for c in logs):
            raise InputError(
                "base point has vanishing logarithm at this precision")
        return k, logs
    for k in knowns:
        if k.original.is_infinity or k.original.y == 0:
            continue
        logs = ctx.halfint(k.point)
        if not all(c.is_zero for c in logs):
            return k, logs
    raise InputError("no known point of infinite order; supply a base point")


def _check_rank_one(ctx, knowns, base, logs):
    """Raise InputError when a known logarithm is independent of the base
    logarithm.  The logarithm is a homomorphism on J(Q) that kills torsion,
    so a 2x2 minor that is nonzero at its tracked precision proves rank at
    least 2, where the rank-1 method does not apply.  The involution negates
    the logarithm, and infinity and y = 0 give torsion, so only the knowns
    with y > 0 need a look."""
    for k in knowns:
        if k is base or k.original.is_infinity or k.original.y <= 0:
            continue
        other = ctx.halfint(k.point)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            minor = logs[i] * other[j] - logs[j] * other[i]
            if not minor.is_zero:
                raise InputError(
                    "known points %s and %s have independent logarithms (a "
                    "2x2 minor of valuation %d), so the rank is at least 2 "
                    "and the rank-1 method does not apply"
                    % (k.original.coord_strings(),
                       base.original.coord_strings(), minor.valuation))


def _annihilator_pair(logs, p):
    """Two functionals with unit content vanishing on the log vector.

    With pivot j* of minimal valuation m, the pair is
    (logs[j*] e_j - logs[j] e_j*) / p^m for the two non-pivot indices j;
    both kill the log line exactly and stay integral."""
    vals = [INF if c.is_zero else c.valuation for c in logs]
    pivot = min(range(3), key=lambda i: (vals[i], i))
    m = vals[pivot]
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
    """Half-integral series of sum_i coeffs[i] w_i on the chart: its value
    at t is the half-integral from the reflected point.  Second return is
    the mod-p vanishing order of the differential, which bounds the zero
    count in the disk by order + 1.  The differential is the series'
    derivative: it multiplies back the j + 1 that formal_integral divided
    by, with the digits that cost, and drops the t^0 term, which holds a
    generic disk's constant halfint(P)."""
    series = form_series(coeffs, data.halfints)
    return series, series.derivative().reduction_order()


def _match_roots(roots_a, roots_b):
    """Common zeros of the two functionals: cosets present in both lists,
    keeping the more precise representative."""
    zeros, used = [], set()
    for ra in roots_a:
        k = next((k for k, rb in enumerate(roots_b)
                  if k not in used and (ra - rb).is_zero), None)
        if k is not None:
            used.add(k)
            rb = roots_b[k]
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
        self._orders = {}
        self.matched = set()

    # -- per-disk work ---------------------------------------------------

    def process_disk(self, disk, alpha, beta, knowns):
        data = self.ctx.disk_data(disk)
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
            zeros = [data.expansion.t_of(k.point) for k in here]
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
        not simple enough to separate at working precision; the budget
        prec - 2 is lowered to the digits the coefficients keep.  The
        reason is the error's text: the error's traceback holds the
        caller's frame, so keeping it would tie the analysis in a cycle
        that outlives analyze_curve until the cycle collector runs."""
        try:
            return series_roots_in_disk(series, self.prec - 2), None
        except PrecisionError as exc:
            return None, str(exc)

    def _filter_by_value(self, roots, other, data):
        """Roots of one functional that the other cannot exclude.

        For a root representative r isolated to p^-e around a true zero z,
        the value of the other antiderivative moves by at most p^-e between
        r and z (its coefficients satisfy v(a_j) + j >= j - ord_p(j) >= 1),
        so a value of valuation below e certifies z is not a common zero.
        Values indistinguishable from zero keep the root as a candidate."""
        vals = [other.evaluate_antiderivative(r) for r in roots]
        return [r for r, v in zip(roots, vals)
                if v.is_zero or v.valuation >= r.abs_prec]

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
            # a mirror disk is generic, and its t = x - x(P) reads no y
            if k.disk == disk and (data.expansion.t_of(k.point) - t).is_zero:
                self.matched.add(k.original)
                base["class"] = "known_rational"
                base["matched_known"] = k.original.coord_strings()
                base["x"], base["y"] = _coords(k.original)
                return base
        if disk.is_infinity and t.is_zero:
            return _rational(base, RationalPoint.infinity())
        if disk.y == 0 and t.is_zero:
            if self._wq is None:
                self._wq = self.curve.weierstrass_points_qp(self.p, self.prec)
            x_w, min_poly = self._wq[disk.x]
            if len(min_poly) == 2:
                return _rational(base, RationalPoint.affine(
                    Fraction(-min_poly[0], min_poly[1]), 0))
            base.update({"class": "weierstrass", "x": x_w.expansion_str(),
                         "min_poly_x": format_polynomial(min_poly, "x"),
                         "y": "0", "torsion_order": 2})
            return base
        point = data.expansion.point_at(t)
        if mirrored:
            point = point.involution()
        x_o, y_o = self.curve.to_original(point)
        x, y = exact_point(self.curve.original, x_o, y_o,
                           rational_reconstruct(x_o)) or (None, None)
        if isinstance(y, Fraction):
            # exact_point took y from rational_sqrt, so y^2 = g(x) exactly
            return _rational(base, RationalPoint.affine(x, y))
        order = self._torsion_order(disk, data, t)
        if y is None:
            raise RecognitionError("zero in disk %s resists exact "
                                   "recognition" % base["disk"])
        if isinstance(x, Fraction):
            base["x"] = str(x)
        else:
            base["x"] = x_o.expansion_str()
            base["min_poly_x"] = format_polynomial(element_min_poly(x), "x")
        base["y"] = y_o.expansion_str()
        base["min_poly_y"] = format_polynomial(element_min_poly(y), "y")
        base["class"] = "other_algebraic" if order is None else "torsion"
        base["torsion_order"] = order
        return base

    def _torsion_order(self, disk, data, t):
        """The order of [P - inf] when the zero P of disk is torsion, else
        None: when its three logarithms, the half-integral series of data
        read at P's parameter t, vanish.  Torsion injects into J(F_p), so
        the order is that of the reduction.  The mirror iota P has the
        negated logarithms and the inverse class, so one answer serves
        both zeros of an involution pair."""
        key = (disk.canonical(self.p), t.expansion_str())
        if key not in self._orders:
            order = None
            if all(h.evaluate_antiderivative(t).is_zero
                   for h in data.halfints):
                order = MumfordDivisorFp.from_point(
                    disk, self.p, self.fbar).order(self.jac_order)
            self._orders[key] = order
        return self._orders[key]


def _coords(pt):
    if pt.is_infinity:
        return "infinity", "infinity"
    return str(pt.x), str(pt.y)


def _rational(base, pt):
    """base completed as the record of the new rational point pt."""
    base["class"] = "new_rational"
    base["x"], base["y"] = _coords(pt)
    return base


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


def check_inputs(curve, p=None, prec=None, knowns=None, base_point=None,
                 search_height=1000):
    """Raise InputError unless analyze_curve's arguments pass every check
    that needs no analysis; bad reduction at p is the analysis's to find."""
    if prec is not None and prec < PREC_MIN:
        raise InputError("precision must be at least %d, got %d: the zeta "
                         "audit needs b_6 = p^3 to be nonzero mod p^N"
                         % (PREC_MIN, prec))
    if prec is not None and prec > PREC_CAP:
        raise InputError("precision must be at most %d, got %d"
                         % (PREC_CAP, prec))
    if search_height < 0:
        raise InputError("search height must be at least 0, got %d"
                         % search_height)
    if search_height > HEIGHT_CAP:
        raise InputError("search height must be at most %d, got %d"
                         % (HEIGHT_CAP, search_height))
    if p is not None:
        check_prime_number(p)
        if prec is None and default_precision(p) > PREC_CAP:
            raise InputError("precision must be at most %d, got the default "
                             "2p + 4 = %d; give a precision"
                             % (PREC_CAP, default_precision(p)))
        N = default_precision(p) if prec is None else prec
        cost = estimated_seconds(p, N)
        if cost > COST_CAP_S:
            raise InputError("the analysis at p = %d and N = %d is estimated "
                             "at %.0f s, over the budget of %d s; give a "
                             "lower precision" % (p, N, cost, COST_CAP_S))
    if knowns is not None and not knowns:
        raise InputError("no known rational points; omit the list to search")
    for pt in knowns or ():
        # checked as given, so the message names the input, not its mirror
        if not curve.is_on_curve_original(pt):
            raise InputError("known point %s is not on the curve"
                             % (pt.coord_strings(),))
    if base_point is None:
        return
    if knowns is not None:
        if base_point not in knowns and base_point.involution() not in knowns:
            raise InputError("base point must appear among the known points")
    elif not curve.is_on_curve_original(base_point):
        raise InputError("base point %s is not on the curve"
                         % (base_point.coord_strings(),))
    elif not base_point.is_infinity and search_height < max(
            abs(base_point.x.numerator), base_point.x.denominator):
        raise InputError("base point %s is above search height %d"
                         % (base_point.coord_strings(), search_height))


def analyze_curve(curve, p=None, prec=None, knowns=None, base_point=None,
                  search_height=1000):
    """Compute and classify the full zero set; the main entry point.

    knowns: original-model RationalPoints (searched up to search_height
    when omitted).  base_point: an original-model known of infinite order
    (the first known with nonvanishing logarithm when omitted).  Arguments
    that fail check_inputs, and known points whose logarithms prove rank at
    least 2, raise InputError."""
    check_inputs(curve, p, prec, knowns, base_point, search_height)
    if p is None:
        p = curve.choose_prime()
        # the cost cap, now that the prime is known
        check_inputs(curve, p, prec)
    else:
        curve.check_prime(p)
    if prec is None:
        prec = default_precision(p)
    if knowns is None:
        knowns = curve.search_rational_points(search_height)
    known_pts = _prepare_knowns(curve, p, prec, knowns)
    ctx = ColemanContext(curve, p, prec)
    run = _Analysis(curve, p, prec, ctx)
    base, logs = _pick_base(ctx, known_pts, base_point)
    _check_rank_one(ctx, known_pts, base, logs)
    alpha, beta, pivot = _annihilator_pair(logs, p)

    disks = sorted({d.canonical(p) for d in ctx.fd.fp_points})
    log.info("p=%d prec=%d #C(F_p)=%d |J(F_p)|=%d disks=%d; the disk "
             "solve loses v_p(|J(F_p)|)=%d digits", p, prec,
             ctx.fd.point_count(), run.jac_order, len(disks),
             ord_p(run.jac_order, p))
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

    for k in known_pts:
        if k.original not in run.matched:
            raise PrecisionError("known point %s was not recovered as a zero"
                                 % (k.original.coord_strings(),))

    counts = Counter(r["class"] for r in zero_records)
    data = {
        "curve": {
            "coefficients": curve.coeff_strings(),
            "monic_scaling": curve.scaling_strings(),
        },
        "prime": p,
        "precision": prec,
        "curve_point_count": ctx.fd.point_count(),
        "jacobian_order": run.jac_order,
        "zeta_numerator": list(ctx.fd.zeta),
        "coleman_bound": ctx.fd.point_count() + 2 * curve.genus - 2,
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
