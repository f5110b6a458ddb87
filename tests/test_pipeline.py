"""End-to-end zero-set computations on the three reference curves.

The frozen digits below were produced by this code and then cross-checked
by hand against independent calculations (annihilator coefficients kill
the base logarithm; per-disk roots satisfy the counting bounds; minimal
polynomials divide the curve polynomial or reproduce its values).  They
pin down the full observable behaviour of analyze_curve at p = 7 and 11.
"""

import gc
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from g3chabauty.curve import (HEIGHT_CAP, PREC_CAP, PREC_MIN, CurveModel,
                              RationalPoint)
from g3chabauty.errors import (BadReductionError, InputError, PrecisionError,
                               SimplicityError)
from g3chabauty.jacobian import MumfordDivisorFp
from g3chabauty.localdisk import form_series
from g3chabauty.padic import PadicNumber
from g3chabauty import _kernels as kernels
from g3chabauty import pipeline
from g3chabauty.cli import run_job
from g3chabauty.pipeline import (analyze_curve, check_inputs,
                                 default_precision)
from g3chabauty.recognize import (element_min_poly, eval_exact, exact_point,
                                  format_polynomial, primitive_poly,
                                  rational_reconstruct)

from conftest import (CURVE_A_COEFFS, CURVE_A_KNOWN, CURVE_A_P0,
                      CURVE_B_COEFFS, CURVE_B_KNOWN, CURVE_B_SCALING,
                      CURVE_C_COEFFS, CURVE_C_KNOWN, CURVE_C_P0, DATA,
                      make_curve, parse_points)
from oracles import nonsquare_qr, padic_sqrt



def expansion_value(s, p, n):
    """Integer value mod p^n of an 'a0 + a1*p + ... + O(p^N)' string."""
    total = 0
    for term in s.split(" + "):
        if term.startswith("O("):
            continue
        if "*" in term:
            digit, power = term.split("*", 1)
            exp = int(power.split("^")[1]) if "^" in power else 1
            total += int(digit) * p ** exp
        else:
            total += int(term)
    return total % p ** n


def by_class(report, cls):
    return [r for r in report.zeros if r["class"] == cls]


def disk_record(report, label):
    for d in report["disks"]:
        if d["disk"] == label:
            return d
    raise AssertionError("no disk %s" % label)


# SHA-256 of to_json() for the session reports, pinned so that any change
# to a report's bytes fails here
REPORT_SHA256 = {
    "ex1_p7": "ea88f3197c630372e0b44b779711a284b620348cafad6fabeaaaac2402f88521",
    "ex2_p7": "89c98dfdd4fedef3fd18e04d98c0a89466e9c19bb7c92e6c97dfba58ee20c4d3",
    "ex2_p11": "bf9f233a9e235cfc2a02b5f137accb69fc15b54acf64e708cae578e7bd90752b",
    "ex3_p11": "3455bedd1ceca73a3d4b4b4228c63045bce8b9a8a6551db18ca4771ef6d5e5d5",
    # computed at 40a565c, before _compute folded h at the Teichmuller
    # points as it reduces: 54 disks and 1,060 pole steps per column
    "ex1_p101": "a92ff5c28d78691a5dfe22c848a9d606ac7c87d969963b9c74dedb6b3e88e679",
    # the three lines of data/example_jobs.jsonl at N = 10, the census
    # regime, computed before the charts moved to integer vectors
    "ex1_p7_n10": "2bbf851affad0ce9ee172f13b5b8fb4e87470b39dbfd87b9171fe8d4392b187c",
    "ex2_p7_n10": "177e0170681bf24cdfe8de5472b8b803f097f00cdd16ba65bc8504519badc565",
    "ex3_p11_n10": "d8f70b87a2bf2155cb2ab4b328276e43aad4d6fbd4e50369697b6b5cdf2d9e72",
}


@pytest.fixture(scope="module")
def ex1_p101(curve_a):
    """Example 1 with its known points at p = 101 and N = 10."""
    return analyze_curve(curve_a, p=101, prec=10,
                         knowns=parse_points(CURVE_A_KNOWN))


def _example_job_at_n10(line):
    """The report of one line of data/example_jobs.jsonl at N = 10."""
    text = (DATA / "example_jobs.jsonl").read_text("utf-8")
    return run_job(json.loads(text.splitlines()[line]), prec=10)


@pytest.fixture(scope="module")
def ex1_p7_n10():
    return _example_job_at_n10(0)


@pytest.fixture(scope="module")
def ex2_p7_n10():
    return _example_job_at_n10(1)


@pytest.fixture(scope="module")
def ex3_p11_n10():
    return _example_job_at_n10(2)


def test_report_digests_pinned(request):
    got = {name: hashlib.sha256(
        request.getfixturevalue(name).to_json().encode("utf-8")).hexdigest()
        for name in REPORT_SHA256}
    assert got == REPORT_SHA256


# SHA-256 of to_json() for data/job_anomalous.json at its default N = 18.
# #J(F_7) = 7^3, so its disk constants keep N - 3 = 15 digits: a change to
# the digits an anomalous prime keeps fails here
ANOMALOUS_SHA256 = \
    "b1d57d48a7a7d1066bd391ce8ea4965a8275bef904670137e30d4f9e2dfc23b1"


def test_anomalous_report_digest_pinned(curve_anomalous):
    report = analyze_curve(curve_anomalous, p=7)
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == ANOMALOUS_SHA256


# SHA-256 of to_json() for data/job_other_algebraic.json, y^2 = x^7 - x^4 + x
# at its default N = 18: its two other_algebraic zeros (-1, +-sqrt(-3)) and
# four known points, the same with the knowns given or searched
OTHER_ALGEBRAIC_SHA256 = \
    "e71720f2d45f1d811ecca0212161fefb9d47f76972aa9a17834610026b125269"


def test_other_algebraic_report_digest_pinned():
    job = json.loads((DATA / "job_other_algebraic.json").read_text("utf-8"))
    curve = make_curve(job["curve"]["coeffs"])
    for knowns in (parse_points(job["known_points"]), None):
        report = analyze_curve(curve, p=job["p"], knowns=knowns)
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == OTHER_ALGEBRAIC_SHA256


def test_default_precision():
    assert default_precision(7) == 18
    assert default_precision(11) == 26


# -- Example 2 at p = 7 -------------------------------------------------------

def test_ex2_class_counts(ex2_p7):
    assert ex2_p7["class_counts"] == {"known_rational": 5,
                                      "other_algebraic": 4}


def test_ex2_base_and_pivot(ex2_p7):
    assert ex2_p7["base_point"] == ["0", "-1"]
    assert ex2_p7["annihilators"]["pivot"] == 0


def test_ex2_annihilator_digits(ex2_p7):
    # digit expansions frozen through 7^4
    alpha = ex2_p7["annihilators"]["alpha"]
    beta = ex2_p7["annihilators"]["beta"]
    mod5 = lambda s: expansion_value(s, 7, 5)
    assert [mod5(c) for c in alpha] == [12755, 12058, 0]
    assert [mod5(c) for c in beta] == [12130, 0, 12058]
    assert alpha[2] == "0" and beta[1] == "0"


def test_ex2_annihilators_kill_base_log(ex2_p7):
    # the report alone certifies the annihilation property mod 7^8
    log = ex2_p7["base_log"]
    for coeffs in (ex2_p7["annihilators"]["alpha"],
                   ex2_p7["annihilators"]["beta"]):
        acc = sum(expansion_value(c, 7, 9) * expansion_value(l, 7, 9)
                  for c, l in zip(coeffs, log))
        assert acc % 7 ** 8 == 0


def test_ex2_quadratic_extras(ex2_p7):
    extras = by_class(ex2_p7, "other_algebraic")
    assert sorted(r["disk"] for r in extras) == \
        ["(1,3)", "(1,4)", "(4,3)", "(4,4)"]
    for r in extras:
        assert r["min_poly_x"] == "x^2 - x + 1"
        assert r["min_poly_y"] == "y^2 + 3"
        assert r["torsion_order"] is None


def test_ex2_empty_disk(ex2_p7):
    d = disk_record(ex2_p7, "(2,3)")
    assert d["mirror"] == "(2,4)"
    assert d["zero_count"] == 0 and not d["certified_by_count"]
    # each functional has one simple zero, but not the same one
    assert [expansion_value(r, 7, 3) for r in d["roots_alpha"]] == [287]
    assert [expansion_value(r, 7, 3) for r in d["roots_beta"]] == [140]


def test_ex2_group_invariants(ex2_p7):
    assert ex2_p7["curve_point_count"] == 11
    assert ex2_p7["jacobian_order"] == 530
    assert ex2_p7["zeta_numerator"] == [1, 3, 5, -4, 35, 147, 343]
    assert ex2_p7["coleman_bound"] == 15
    assert len(ex2_p7.zeros) <= ex2_p7["coleman_bound"]


def test_ex2_knowns_recovered(ex2_p7):
    matched = {tuple(r["matched_known"]) if isinstance(r["matched_known"], list)
               else r["matched_known"]
               for r in ex2_p7.zeros if r["matched_known"] is not None}
    assert matched == {("0", "1"), ("0", "-1"), ("1", "1"), ("1", "-1"),
                       "infinity"}


def test_ex2_disk_counts_respect_bounds(ex2_p7):
    for d in ex2_p7["disks"]:
        assert d["zero_count"] <= d["bound"]
        finite = [o for o in d["orders"] if o is not None]
        assert d["bound"] == 1 + min(finite)


def mirror_label(label, p):
    if label == "infinity":
        return label
    x, y = label[1:-1].split(",")
    return "(%s,%d)" % (x, (p - int(y)) % p)


@pytest.mark.parametrize("fixture,p", [("ex2_p7", 7), ("ex1_p7", 7)])
def test_zero_set_closed_under_involution(fixture, p, request):
    rep = request.getfixturevalue(fixture)
    seen = {}
    for r in rep.zeros:
        seen.setdefault(r["disk"], []).append(r["t"])
    for label, ts in seen.items():
        assert sorted(seen[mirror_label(label, p)]) == sorted(ts)


# -- Example 1 at p = 7 -------------------------------------------------------

def test_ex1_class_counts(ex1_p7):
    assert ex1_p7["class_counts"] == {"known_rational": 5, "torsion": 2,
                                      "weierstrass": 3}


def test_ex1_torsion_pair(ex1_p7):
    pair = by_class(ex1_p7, "torsion")
    assert sorted(r["disk"] for r in pair) == ["(0,1)", "(0,6)"]
    for r in pair:
        assert r["x"] == "0"
        assert r["min_poly_y"] == "y^2 - 8"
        assert r["torsion_order"] == 12


def test_ex1_orders_each_torsion_pair_once(curve_a, ex1_p7, monkeypatch):
    # the zeros in (0,1) and (0,6) are mirrors: one order serves both
    calls = []
    order = MumfordDivisorFp.order

    def counted(self, *args):
        calls.append(self)
        return order(self, *args)

    monkeypatch.setattr(MumfordDivisorFp, "order", counted)
    report = analyze_curve(curve_a, p=7)
    assert len(calls) == 1
    assert report.to_json() == ex1_p7.to_json()


def test_ex1_torsion_test_reads_the_zeros_own_series(curve_a, ex1_p7,
                                                     monkeypatch):
    # halfint maps a point to its disk, chart and t; the torsion test
    # already has the zero's t and its disk's series, so only the knowns
    # go through it: the base (-1,-1) and the rank check's (-1,1), (1,5)
    calls = []
    halfint = pipeline.ColemanContext.halfint

    def counted(self, point):
        calls.append(point)
        return halfint(self, point)

    monkeypatch.setattr(pipeline.ColemanContext, "halfint", counted)
    report = analyze_curve(curve_a, p=7)
    monic = [curve_a.padic_point(RationalPoint.affine(x, y), 7, 18)
             for x, y in ((-1, -1), (-1, 1), (1, 5))]
    assert [(c.x.expansion_str(), c.y.expansion_str()) for c in calls] == \
        [(c.x.expansion_str(), c.y.expansion_str()) for c in monic]
    assert report.to_json() == ex1_p7.to_json()


def test_ex1_enumerates_fp_points_once(curve_a, ex1_p7, monkeypatch):
    # the disks are the C(F_p) that Frobenius's trace audit counted
    calls = []
    points = kernels.fp_curve_points

    def counted(*args):
        calls.append(args)
        return points(*args)

    monkeypatch.setattr(kernels, "fp_curve_points", counted)
    report = analyze_curve(curve_a, p=7)
    assert len(calls) == 1
    assert report.to_json() == ex1_p7.to_json()


def test_ex1_branch_points(ex1_p7):
    found = {r["disk"]: r["min_poly_x"] for r in by_class(ex1_p7, "weierstrass")}
    assert found == {
        "(2,0)": "x^2 - 2",
        "(5,0)": "x^2 - 2",
        "(6,0)": "4*x^5 + 9*x^4 - 18*x^2 - 16*x - 4",
    }
    for r in by_class(ex1_p7, "weierstrass"):
        assert r["y"] == "0" and r["torsion_order"] == 2


def test_ex1_double_zero_disk(ex1_p7):
    # the torsion point is the disk centre and one functional vanishes
    # doubly there; only the other is simple, and it decides the disk
    d = disk_record(ex1_p7, "(0,1)")
    assert d["orders"] == [0, 1]
    assert d["roots_alpha"] == ["0"] and d["roots_beta"] is None
    assert d["zero_count"] == 1


def test_ex1_infinity_disk(ex1_p7):
    d = disk_record(ex1_p7, "infinity")
    assert d["orders"] == [4, 0]
    assert d["roots_alpha"] is None and d["roots_beta"] == ["0"]
    assert d["zero_count"] == 1
    rec = [r for r in ex1_p7.zeros if r["disk"] == "infinity"]
    assert len(rec) == 1 and rec[0]["matched_known"] == "infinity"


def test_ex1_report_deterministic(curve_a, ex1_p7):
    again = analyze_curve(curve_a, p=7)
    assert again.to_json() == ex1_p7.to_json()


def _force_isolation_failure(monkeypatch, labels):
    """Make both isolations fail on the disks named in labels, as if the
    functionals' zeros were not simple at working precision."""
    process, isolate = pipeline._Analysis.process_disk, \
        pipeline._Analysis._isolate
    current = []

    def process_disk(self, disk, *args):
        current[:] = [disk.label()]
        return process(self, disk, *args)

    def failing_isolate(self, series):
        if current[0] in labels:
            return None, "isolation failed on purpose"
        return isolate(self, series)
    monkeypatch.setattr(pipeline._Analysis, "process_disk", process_disk)
    monkeypatch.setattr(pipeline._Analysis, "_isolate", failing_isolate)


def test_count_certified_disks(curve_a, ex1_p7, monkeypatch):
    """Where both isolations fail on a disk whose known points meet the
    counting bound, those points are its zeros, certified by count: the
    class counts and the matched knowns stay as isolation found them."""
    counted = {"(3,1)", "(4,2)", "infinity"}
    _force_isolation_failure(monkeypatch, counted)
    report = analyze_curve(curve_a, p=7)
    for d in report["disks"]:
        assert d["certified_by_count"] == (d["disk"] in counted)
        assert d["zero_count"] == disk_record(ex1_p7, d["disk"])["zero_count"]
    for d in counted:
        rec = disk_record(report, d)
        assert rec["roots_alpha"] is None and rec["roots_beta"] is None
        assert rec["zero_count"] == rec["bound"] == 1
    assert report["class_counts"] == ex1_p7["class_counts"]

    def matched(rep):
        return sorted(str(r["matched_known"]) for r in rep.zeros
                      if r["matched_known"] is not None)
    assert matched(report) == matched(ex1_p7)


def test_count_certification_needs_the_bound(curve_a, monkeypatch):
    """Disk (0,1) holds a torsion zero and no known point, so when both
    isolations fail there the count cannot certify it."""
    _force_isolation_failure(monkeypatch, {"(0,1)"})
    with pytest.raises(SimplicityError, match="isolation failed on purpose "
                       "/ isolation failed on purpose, and the 0 known "
                       "points there do not reach the counting"):
        analyze_curve(curve_a, p=7)


def test_analysis_is_freed_without_the_cycle_collector(curve_b):
    """Nothing of an analysis outlives analyze_curve in a reference
    cycle: with the cycle collector off, B@11, where one isolation fails
    on the infinity disk, leaves no ColemanContext, and so no
    FrobeniusData and no chart, behind."""
    def contexts():
        return {id(o) for o in gc.get_objects()
                if isinstance(o, pipeline.ColemanContext)}

    gc.collect()
    before = contexts()
    gc.disable()
    try:
        analyze_curve(curve_b, p=11)
        left = contexts() - before
    finally:
        gc.enable()
    assert not left


def test_ex1_class_counts_at_n40(curve_a):
    # from N = 38 on, recognition used to die in sympy's LLL
    knowns = [RationalPoint.from_json(k) for k in CURVE_A_KNOWN]
    report = analyze_curve(curve_a, p=7, prec=40, knowns=knowns)
    assert report["class_counts"] == {"known_rational": 5, "torsion": 2,
                                      "weierstrass": 3}


# -- Example 2 at p = 11 ------------------------------------------------------

def test_ex2_p11_no_extras_beyond_branch_locus(ex2_p11):
    assert ex2_p11["class_counts"] == {"known_rational": 5, "weierstrass": 1}
    assert by_class(ex2_p11, "other_algebraic") == []
    assert by_class(ex2_p11, "new_rational") == []


def test_ex2_p11_branch_point(ex2_p11):
    (w,) = by_class(ex2_p11, "weierstrass")
    assert w["disk"] == "(5,0)"
    assert w["min_poly_x"] == \
        "4*x^7 - 24*x^6 + 56*x^5 - 72*x^4 + 56*x^3 - 28*x^2 + 8*x - 1"
    assert expansion_value(w["x"], 11, 1) == 2
    assert w["torsion_order"] == 2


def test_ex2_p11_group_invariants(ex2_p11):
    assert ex2_p11["curve_point_count"] == 12
    assert ex2_p11["jacobian_order"] == 1472
    assert ex2_p11["zeta_numerator"] == [1, 0, 12, -4, 132, 0, 1331]


# -- Example 3 at p = 11 ------------------------------------------------------

def test_ex3_class_counts(ex3_p11):
    assert ex3_p11["class_counts"] == {"known_rational": 4,
                                       "other_algebraic": 2,
                                       "weierstrass": 2}
    assert ex3_p11["base_point"] == ["1", "-2"]


def test_ex3_quadratic_extras(ex3_p11):
    extras = by_class(ex3_p11, "other_algebraic")
    assert sorted(r["disk"] for r in extras) == ["(7,1)", "(7,10)"]
    for r in extras:
        assert r["x"] == "-1"
        assert r["min_poly_y"] == "y^2 + 140"


def test_ex3_branch_points(ex3_p11):
    sextic = "4*x^6 - 15*x^5 + 32*x^4 - 38*x^3 + 32*x^2 - 15*x + 4"
    found = {r["disk"]: r["min_poly_x"] for r in by_class(ex3_p11, "weierstrass")}
    assert found == {"(6,0)": sextic, "(10,0)": sextic}


def test_ex3_known_point_in_branch_disk(ex3_p11):
    # (0,0) lies on the branch locus; it must come back as the known
    # rational point, not as an anonymous branch point
    (rec,) = [r for r in ex3_p11.zeros if r["disk"] == "(0,0)"]
    assert rec["class"] == "known_rational"
    assert rec["t"] == "0" and rec["matched_known"] == ["0", "0"]


def test_ex3_group_invariants(ex3_p11):
    assert ex3_p11["curve_point_count"] == 12
    assert ex3_p11["jacobian_order"] == 1536
    assert ex3_p11["zeta_numerator"] == [1, 0, 17, 0, 187, 0, 1331]


# -- recognition and the new_rational exits -----------------------------------

def test_a17_torsion_matches_a7(curve_a, ex1_p7):
    # from p = 13 on, recognition used to die in sympy's LLL
    knowns = [RationalPoint.from_json(k) for k in CURVE_A_KNOWN]
    report = analyze_curve(curve_a, p=17, knowns=knowns)
    fields = ("x", "min_poly_y", "torsion_order")
    got = [tuple(r[f] for f in fields) for r in by_class(report, "torsion")]
    want = [tuple(r[f] for f in fields) for r in by_class(ex1_p7, "torsion")]
    assert got == want == [("0", "y^2 - 8", 12)] * 2


def test_infinity_disk_rational_x(curve_a):
    # x = 1/49 lies in the infinity disk at p = 7; y is quadratic
    p, n = 7, 60
    x = Fraction(1, 49)
    x_o = PadicNumber.from_rational(x, p, rel_prec=n)
    y_o = padic_sqrt(PadicNumber.from_rational(
        eval_exact(curve_a.original, x), p, rel_prec=n))
    qx, y = exact_point(curve_a.original, x_o, y_o, rational_reconstruct(x_o))
    assert qx == x
    assert format_polynomial(element_min_poly(y), "y") == \
        "678223072849*y^2 - 5877648490249"


def test_infinity_disk_quadratic_pair():
    # x = (1 + sqrt 2)/49 has v(x) = -2 at p = 7, with minimal polynomial
    # q = 2401x^2 - 98x - 1; on y^2 = g(x), g = (49x - 1)^2 + q x^5, the
    # point has y = 49x - 1 = sqrt 2
    p, n = 7, 60
    g = [Fraction(c) for c in (1, -98, 2401, 0, 0, -1, -98, 2401)]
    root2 = padic_sqrt(PadicNumber.from_rational(2, p, rel_prec=n))
    x_o = (root2 + 1) / 49
    assert x_o.valuation == -2
    xe, ye = exact_point(g, x_o, root2, rational_reconstruct(x_o))
    assert format_polynomial(element_min_poly(xe), "x") == \
        "2401*x^2 - 98*x - 1"
    assert format_polynomial(element_min_poly(ye), "y") == "y^2 - 2"
    assert ye * ye == eval_exact(g, xe)


def test_rational_x_takes_y_from_the_curve_equation(curve_c):
    # the C@11 zero (-1, sqrt(-140)) with six digits: y is a root of
    # t^2 - g(-1) by construction, where a lattice search on y's digits
    # found nothing up to N = 12
    p, n = 11, 6
    x_o = PadicNumber.from_rational(-1, p, abs_prec=n)
    y_o = padic_sqrt(PadicNumber.from_rational(-140, p, abs_prec=n))
    assert eval_exact(curve_c.original, Fraction(-1)) == -140
    qx, y = exact_point(curve_c.original, x_o, y_o, rational_reconstruct(x_o))
    assert (qx, element_min_poly(y)) == (-1, (140, 0, 1))
    # a rational square gives the rational point, with the sign y_o shows
    x_o = PadicNumber.from_rational(1, p, abs_prec=n)
    for y in (2, -2):
        y_o = PadicNumber.from_rational(y, p, abs_prec=n)
        assert exact_point(curve_c.original, x_o, y_o,
                           rational_reconstruct(x_o)) == (1, y)
    assert exact_point(curve_c.original, x_o, y_o + 1,
                       rational_reconstruct(x_o)) is None


def test_spurious_rational_x_goes_to_the_lattice():
    # x = -2 + sqrt(43) at p = 7 with 14 digits lifts by chance to
    # 3593/186681, far above the height those digits vouch for, so
    # rational_reconstruct refuses it; on y^2 = (x + 3)^2 + (x^2 + 4x - 39)
    # x^5 the zero has y = x + 3, and the lattice on x recovers it
    p, n = 7, 14
    g = [Fraction(c) for c in (9, 6, 1, 0, 0, -39, 4, 1)]
    root = padic_sqrt(PadicNumber.from_rational(43, p, abs_prec=n + 2))
    x_o = PadicNumber.from_rational(-2, p, abs_prec=n) + root
    y_o = x_o + 3
    assert rational_reconstruct(x_o) is None
    xe, ye = exact_point(g, x_o, y_o, rational_reconstruct(x_o))
    assert format_polynomial(element_min_poly(xe), "x") == "x^2 + 4*x - 39"
    assert format_polynomial(element_min_poly(ye), "y") == "y^2 - 2*y - 42"
    assert ye * ye == eval_exact(g, xe)


@pytest.mark.parametrize("at_infinity", [False, True],
                         ids=["finite", "infinity"])
@pytest.mark.parametrize("p", [7, 11, 13])
def test_algebraic_point_takes_y_as_a_square_root(p, at_infinity):
    # x = (a + b sqrt d)/m with min poly q, on y^2 = (b0 + b1 x)^2 + q x^5,
    # so y = b0 + b1 x; m = p^2 and a unit a + b sqrt d put x in the
    # infinity disk (v(x) = -2).  Every fourth case has a = b0 = 0, where y
    # has trace zero and g(x) is rational
    n = 30
    rng = random.Random(10 * p + at_infinity)
    m = p ** 2 if at_infinity else 1
    checked = 0
    for i in range(40):
        d = nonsquare_qr(p, rng)
        a, b0 = (0, 0) if i % 4 == 0 else (rng.randint(-12, 12),
                                           rng.randint(-9, 9))
        b = rng.choice([c for c in range(-9, 10) if c % p])
        b1 = rng.randint(-5, 5) if b0 else rng.choice([1, -2, 3])
        root = padic_sqrt(PadicNumber.from_rational(d, p, rel_prec=n))
        top = root * b + a
        if at_infinity and top.valuation != 0:
            continue
        x_o = top / m
        y_o = x_o * b1 + PadicNumber.from_rational(b0, p, abs_prec=n)
        q = primitive_poly((a * a - b * b * d, -2 * a * m, m * m))
        g = [b0 * b0, 2 * b0 * b1, b1 * b1, 0, 0] + list(q)
        xe, ye = exact_point(g, x_o, y_o, None)
        assert element_min_poly(xe) == q
        assert ye == xe * b1 + b0
        # the other sign of y's digits picks the other root
        assert exact_point(g, x_o, -y_o, None)[1] == ye * -1
        # one wrong digit matches neither root
        j = rng.randrange(y_o.valuation, y_o.abs_prec)
        assert exact_point(g, x_o, y_o + Fraction(p) ** j, None) is None
        # digits too few to tell the roots apart match both
        assert exact_point(g, x_o, PadicNumber.zero(p, y_o.valuation),
                           None) is None
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("curve,p,dropped,coords", [
    ("curve_a", 7, [["1", "-5"], ["1", "5"]], [("1", "-5"), ("1", "5")]),
    ("curve_a", 7, ["infinity"], [("infinity", "infinity")]),
    ("curve_c", 11, [["0", "0"]], [("0", "0")]),
], ids=["A7-without-1-5", "A7-without-infinity", "C11-without-0-0"])
def test_dropped_knowns_come_back_as_new_rational(curve, p, dropped, coords,
                                                  request):
    # the three new_rational exits: a reconstructed (x, y), the point at
    # infinity at t = 0 and a rational branch point
    known = CURVE_A_KNOWN if curve == "curve_a" else CURVE_C_KNOWN
    knowns = [RationalPoint.from_json(k) for k in known if k not in dropped]
    report = analyze_curve(request.getfixturevalue(curve), p=p,
                           knowns=knowns)
    new = by_class(report, "new_rational")
    assert sorted((r["x"], r["y"]) for r in new) == coords
    assert all(r["matched_known"] is None for r in new)
    assert report["class_counts"]["known_rational"] == \
        len(known) - len(dropped)


# -- extra zeros across primes -----------------------------------------------

def _is_square_mod(a, p):
    """Euler's criterion for a p-unit a."""
    return pow(a % p, (p - 1) // 2, p) == 1


# (name, coefficients, scaling, knowns, N, primes, d, extras): each extra
# zero is defined over Q(sqrt d), so it is a zero at p exactly when d is a
# square mod p; extras lists the signatures (class, x or min poly of x, min
# poly of y, torsion order) it then adds
CROSS_PRIME_CASES = [
    ("A", CURVE_A_COEFFS, None, CURVE_A_KNOWN, 10,
     (7, 11, 13, 17, 19, 23, 29, 31, 41, 47), 8,
     [("torsion", "0", "y^2 - 8", 12)] * 2),
    ("B", CURVE_B_COEFFS, CURVE_B_SCALING, CURVE_B_KNOWN, 12,
     (7, 11, 13, 17, 19, 23, 31, 37), -3,
     [("other_algebraic", "x^2 - x + 1", "y^2 + 3", None)] * 4),
    ("C", CURVE_C_COEFFS, None, CURVE_C_KNOWN, 10,
     (11, 13, 17, 19, 23, 29), -140,
     [("other_algebraic", "-1", "y^2 + 140", None)] * 2),
    ("T", [0, 1, 0, 0, -1, 0, 0, 1], None,
     ["infinity", ["0", "0"], ["1", "-1"], ["1", "1"]], 10,
     (7, 11, 13, 17, 19, 23, 31, 37, 43), -3,
     [("other_algebraic", "-1", "y^2 + 3", None)] * 2),
]


def test_extra_zeros_recur_exactly_where_their_field_embeds():
    """A torsion point, or any zero with a global reason, over Q(sqrt d) is a
    zero at every good p where Q(sqrt d) embeds in Q_p, with the same min
    polys and order; the oracle compares primes against Euler's criterion,
    not against a list of primes."""
    for name, coeffs, scaling, known, N, primes, d, extras in \
            CROSS_PRIME_CASES:
        curve = make_curve(coeffs, scaling)
        knowns = parse_points(known)
        embeds = [_is_square_mod(d, p) for p in primes]
        assert any(embeds) and not all(embeds), name
        for p, here in zip(primes, embeds):
            report = analyze_curve(curve, p=p, prec=N, knowns=knowns)
            got = sorted((z["class"], z["min_poly_x"] or z["x"],
                          z["min_poly_y"], z["torsion_order"])
                         for z in report.zeros
                         if z["class"] not in ("known_rational",
                                               "weierstrass"))
            assert got == (extras if here else []), (name, p)


# -- input validation ---------------------------------------------------------

def test_rejects_small_prime(curve_b):
    with pytest.raises(InputError):
        analyze_curve(curve_b, p=5)


def test_rejects_composite(curve_b):
    with pytest.raises(InputError):
        analyze_curve(curve_b, p=9)


def test_rejects_bad_reduction():
    # x^7 + 2 is a 7th power mod 7, so the reduction is not squarefree
    curve = CurveModel([Fraction(c) for c in [16, 7, 7, 0, 0, 0, 0, 1]])
    curve.validate()
    with pytest.raises(BadReductionError):
        analyze_curve(curve, p=7)


def test_rejects_base_not_among_knowns(curve_b):
    knowns = [RationalPoint.infinity(), RationalPoint.affine(1, 1),
              RationalPoint.affine(1, -1)]
    with pytest.raises(InputError):
        analyze_curve(curve_b, p=7, knowns=knowns,
                      base_point=RationalPoint.affine(0, 1))


def test_rejects_torsion_base(curve_c):
    # [(0,0) - infinity] is 2-torsion, so its logarithm vanishes and it
    # cannot pin down the annihilator space
    knowns = [RationalPoint.from_json(k) for k in CURVE_C_KNOWN]
    with pytest.raises(InputError):
        analyze_curve(curve_c, p=11, knowns=knowns,
                      base_point=RationalPoint.affine(0, 0))


def test_rejects_knowns_with_no_point_of_infinite_order(curve_a):
    # infinity alone is no base: its logarithm vanishes
    with pytest.raises(InputError, match="no known point of infinite order"):
        analyze_curve(curve_a, p=7, knowns=[RationalPoint.infinity()])


def test_unrecovered_known_point_raises(curve_a, monkeypatch):
    # with no common zero kept where both functionals isolate, the known
    # points there are never matched, and the proof must not pass
    monkeypatch.setattr(pipeline, "_match_roots", lambda a, b: [])
    with pytest.raises(PrecisionError,
                       match=r"known point \['-1', '-1'\] was not recovered"):
        analyze_curve(curve_a, p=7)


def test_more_zeros_than_the_counting_bound_raise(curve_a, monkeypatch):
    # each common zero counted twice: a disk with one zero and bound 1
    # must not pass the count
    match = pipeline._match_roots
    monkeypatch.setattr(pipeline, "_match_roots",
                        lambda a, b: match(a, b) * 2)
    with pytest.raises(PrecisionError,
                       match="reports 2 zeros against counting bound 1"):
        analyze_curve(curve_a, p=7)


def test_functional_vanishing_mod_p_raises(curve_a):
    # a functional that is zero at working precision has no zero count
    p, prec = 7, 18
    ctx = pipeline.ColemanContext(curve_a, p, prec)
    run = pipeline._Analysis(curve_a, p, prec, ctx)
    zero = (PadicNumber.zero(p, prec),) * 3
    one = (PadicNumber.from_rational(1, p, abs_prec=prec),) + zero[1:]
    disk = ctx.fd.fp_points[1]
    with pytest.raises(SimplicityError,
                       match="functional vanishes identically mod p on disk "
                             + re.escape(disk.label())):
        run.process_disk(disk, zero, one, [])


def test_rejects_off_curve_known(curve_b):
    knowns = [RationalPoint.infinity(), RationalPoint.affine(2, 2)]
    with pytest.raises(InputError):
        analyze_curve(curve_b, p=7, knowns=knowns)


def test_off_curve_known_named_as_given(curve_a):
    # the mirror (1/7, -1) sorts first, but the message names the input
    knowns = [RationalPoint.affine(Fraction(1, 7), Fraction(1))]
    with pytest.raises(InputError,
                       match=r"known point \['1/7', '1'\] is not on"):
        analyze_curve(curve_a, p=7, knowns=knowns)


def test_rejects_bad_ranges_before_work(curve_a):
    knowns = [RationalPoint.from_json(k) for k in CURVE_A_KNOWN]
    for prec in (0, -3):
        with pytest.raises(InputError, match="precision"):
            analyze_curve(curve_a, p=7, prec=prec, knowns=knowns)
    with pytest.raises(InputError, match="search height"):
        analyze_curve(curve_a, p=7, search_height=-1)


def test_check_inputs_rejects_before_any_work(curve_a, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the analysis started")

    monkeypatch.setattr(pipeline, "ColemanContext", no_work)
    monkeypatch.setattr(CurveModel, "search_rational_points", no_work)
    base = RationalPoint.affine(-1, 1)
    for kwargs, message in (
            ({"knowns": []}, "no known rational points"),
            ({"base_point": RationalPoint.affine(2, 2)},
             r"base point \['2', '2'\] is not on the curve"),
            ({"base_point": base, "search_height": 0},
             r"base point \['-1', '1'\] is above search height 0"),
            ({"knowns": [RationalPoint.infinity()], "base_point": base},
             "among the known points"),
            ({"p": 1000003}, "above the cap")):
        with pytest.raises(InputError, match=message):
            analyze_curve(curve_a, **dict({"p": 7}, **kwargs))
    # the mirror of a known may be the base; height 1 reaches x = -1
    check_inputs(curve_a, 7, knowns=[RationalPoint.affine(-1, -1)],
                 base_point=base)
    check_inputs(curve_a, 7, base_point=base, search_height=1)


def test_check_inputs_caps_height_and_precision(curve_a, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the analysis started")

    check_inputs(curve_a, 7, prec=PREC_CAP, search_height=HEIGHT_CAP)
    # from p = 101 on the default precision 2p + 4 is above the cap; below
    # it, the default is over the cost cap from p = 67 on
    check_inputs(curve_a, 61)
    check_inputs(curve_a, 101, prec=40)
    with pytest.raises(InputError, match="at p = 67 and N = 138"):
        check_inputs(curve_a, 67)
    with pytest.raises(InputError, match="at p = 101 and N = 200"):
        check_inputs(curve_a, 101, prec=PREC_CAP)
    with pytest.raises(InputError, match="the default 2p \\+ 4 = 206"):
        check_inputs(curve_a, 101)
    monkeypatch.setattr(pipeline, "ColemanContext", no_work)
    monkeypatch.setattr(CurveModel, "search_rational_points", no_work)
    with pytest.raises(InputError, match="precision must be at most 200"):
        analyze_curve(curve_a, 7, prec=PREC_CAP + 1)
    with pytest.raises(InputError,
                       match="search height must be at most 100000"):
        analyze_curve(curve_a, 7, search_height=HEIGHT_CAP + 1)



def test_check_inputs_needs_the_digits_the_audit_reads(curve_a, monkeypatch):
    # b_6 = p^3 is 0 mod p^N for N <= 3, so no Frobenius attempt could pass
    def no_work(*args, **kwargs):
        raise AssertionError("the analysis started")

    check_inputs(curve_a, 7, prec=PREC_MIN)
    monkeypatch.setattr(pipeline, "ColemanContext", no_work)
    monkeypatch.setattr(CurveModel, "search_rational_points", no_work)
    for prec in range(1, PREC_MIN):
        with pytest.raises(InputError, match="at least 4, got %d" % prec):
            analyze_curve(curve_a, 7, prec=prec)


# -- one source per proof fact ----------------------------------------------

@pytest.mark.parametrize("name,p,base", [("curve_a", 7, CURVE_A_P0),
                                         ("curve_c", 11, CURVE_C_P0),
                                         ("curve_b", 11, None)],
                         ids=["A@7", "C@11", "B@11"])
def test_strassmann_order_reads_the_half_integral(name, p, base, request):
    """On every canonical disk and for both annihilators, the derivative of
    the half-integral series is the differential's series, coefficient by
    coefficient and in t-precision, so _lambda_series reads the order off
    the one series it keeps."""
    curve = request.getfixturevalue(name)
    prec = default_precision(p)
    ctx = pipeline.ColemanContext(curve, p, prec)
    knowns = pipeline._prepare_knowns(curve, p, prec,
                                      curve.search_rational_points(100))
    base_point = None if base is None else RationalPoint.from_json(base)
    _, logs = pipeline._pick_base(ctx, knowns, base_point)
    alpha, beta, _ = pipeline._annihilator_pair(logs, p)

    def digits(series):
        return series.t_prec, [(c.valuation, c.unit, c.rel_prec)
                               for c in series.coeffs]

    for disk in sorted({d.canonical(p) for d in curve.fp_points(p)}):
        data = ctx.disk_data(disk)
        forms = data.expansion.differential_series()
        for coeffs in (alpha, beta):
            form = form_series(coeffs, forms)
            derived = form_series(coeffs, data.halfints).derivative()
            assert digits(derived) == digits(form)
            assert pipeline._lambda_series(data, coeffs)[1] == \
                form.reduction_order()


def test_prepare_knowns_closes_under_the_involution_once(curve_a):
    pts = parse_points([["1", "5"], ["-1", "1"], "infinity", ["1", "-5"],
                        ["-1", "1"], "infinity", ["1", "5"]])
    known = pipeline._prepare_knowns(curve_a, 7, 10, pts)
    want = parse_points([["-1", "-1"], ["-1", "1"], ["1", "-5"], ["1", "5"],
                         "infinity"])
    assert [k.original for k in known] == want



NO_SYMPY_RUN = """
import json, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from fractions import Fraction
from g3chabauty import cli
from g3chabauty.curve import CurveModel
from g3chabauty.pipeline import analyze_curve
from conftest import (CURVE_A_COEFFS, CURVE_B_COEFFS, CURVE_B_SCALING,
                      CURVE_C_COEFFS)
a = CurveModel([Fraction(c) for c in CURVE_A_COEFFS]).validate()
b = CurveModel([Fraction(c) for c in CURVE_B_COEFFS],
               [Fraction(c) for c in CURVE_B_SCALING]).validate()
c = CurveModel([Fraction(c) for c in CURVE_C_COEFFS]).validate()
print(json.dumps(analyze_curve(a, p=7, search_height=2000)["class_counts"]))
sys.exit(cli.main(["zeta", "--curve", sys.argv[1], "--p", "11"]))
"""


def test_analysis_runs_without_sympy():
    root = pathlib.Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_RUN,
         str(root / "data" / "curve_b.json")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "tests")])))
    assert run.returncode == 0, run.stderr
    counts, zeta = run.stdout.split("\n", 1)
    assert json.loads(counts) == {"known_rational": 5, "torsion": 2,
                                  "weierstrass": 3}
    assert json.loads(zeta)["prime"] == 11
