"""End-to-end zero-set computations on the three reference curves.

The frozen digits below were produced by this code and then cross-checked
by hand against independent calculations (annihilator coefficients kill
the base logarithm; per-disk roots satisfy the counting bounds; minimal
polynomials divide the curve polynomial or reproduce its values).  They
pin down the full observable behaviour of analyze_curve at p = 7 and 11.
"""

import hashlib
from fractions import Fraction

import pytest

from g3chabauty.curve import CurveModel, RationalPoint
from g3chabauty.errors import BadReductionError, InputError
from g3chabauty.pipeline import analyze_curve, default_precision

from conftest import CURVE_A_KNOWN, CURVE_C_KNOWN


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
}


def test_report_digests_pinned(request):
    got = {name: hashlib.sha256(
        request.getfixturevalue(name).to_json().encode("utf-8")).hexdigest()
        for name in REPORT_SHA256}
    assert got == REPORT_SHA256


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


def test_rejects_off_curve_known(curve_b):
    knowns = [RationalPoint.infinity(), RationalPoint.affine(2, 2)]
    with pytest.raises(InputError):
        analyze_curve(curve_b, p=7, knowns=knowns)


def test_rejects_bad_ranges_before_work(curve_a):
    knowns = [RationalPoint.from_json(k) for k in CURVE_A_KNOWN]
    for prec in (0, -3):
        with pytest.raises(InputError, match="precision"):
            analyze_curve(curve_a, p=7, prec=prec, knowns=knowns)
    with pytest.raises(InputError, match="search height"):
        analyze_curve(curve_a, p=7, search_height=-1)
