"""Ten end-to-end acceptance checks, one test per criterion.

Each test prints exactly one PASS/FAIL line.  The expected values are the
frozen outputs of the reference computations on the three standard curves
(independently cross-checked: annihilators kill the base logarithm, zeta
numerators agree with brute-force counts, minimal polynomials satisfy the
curve equation exactly), plus randomized property suites for the solver,
the integration layer and the batch harness.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from g3chabauty._kernels import brute_zeta_numerator
from g3chabauty.cli import main
from g3chabauty.coleman import ColemanContext
from g3chabauty.curve import CurveModel, FpPoint
from g3chabauty.errors import InputError
from g3chabauty.frobenius import zeta_numerator
from g3chabauty.localdisk import disk_center
from g3chabauty.padic import PadicNumber, ord_p
from g3chabauty.recognize import eval_exact
from g3chabauty.series import PadicPowerSeries, series_roots_in_disk

from series_oracle import as_reference


class criterion:
    """Prints one 'criterion N PASS/FAIL' line however the block exits."""

    def __init__(self, num, desc):
        self.num, self.desc = num, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print("criterion %2d %s: %s" % (self.num, status, self.desc))
        return False


@pytest.fixture(scope="module")
def ctx_a7(curve_a):
    return ColemanContext(curve_a, 7, 18)


def expansion_value(s, p, n):
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


def known_keys(report):
    return {tuple(r["matched_known"]) if isinstance(r["matched_known"], list)
            else r["matched_known"]
            for r in report.zeros if r["matched_known"] is not None}


# -- criterion 1: full zero set of the first reference curve at p = 7 ---------

def test_criterion_01(ex2_p7_timed):
    with criterion(1, "p=7 zero set: 5 knowns + 2 involution classes of "
                      "quadratic points (x^2-x+1, y^2+3), under 5 minutes"):
        report, seconds = ex2_p7_timed
        assert seconds < 300
        assert report["precision"] == 18
        assert len(report.zeros) == 9
        assert known_keys(report) == {("0", "1"), ("0", "-1"), ("1", "1"),
                                      ("1", "-1"), "infinity"}
        extras = by_class(report, "other_algebraic")
        assert len(extras) == 4
        for r in extras:
            assert r["min_poly_x"] == "x^2 - x + 1"
            assert r["min_poly_y"] == "y^2 + 3"
        # two classes modulo y -> -y: mirror pairs share the parameter value
        classes = {(r["t"], r["min_poly_x"]) for r in extras}
        assert len(classes) == 2
        assert report["class_counts"] == {"known_rational": 5,
                                          "other_algebraic": 4}


# -- criterion 2: annihilator digits and the undecided disk -------------------

ALPHA_MOD_343 = (64, 53, 0)    # 1 + 2*7 + 7^2,  4 + 7^2,  0
BETA_MOD_343 = (125, 0, 53)    # 6 + 3*7 + 2*7^2,  0,  4 + 7^2
DISK_24_ROOTS = {287, 140}     # 6*7 + 5*7^2  and  6*7 + 2*7^2


def match_up_to_unit(computed, expected, p, n):
    """True when u * computed == expected mod p^n for one unit u."""
    m = p ** n
    for c, e in zip(computed, expected):
        if e % p:
            u = e * pow(c, -1, m) % m
            break
    else:
        raise AssertionError("reference vector has no unit component")
    return all((c * u - e) % m == 0 for c, e in zip(computed, expected))


def test_criterion_02(ex2_p7_timed):
    with criterion(2, "annihilator digits mod 7^3 up to a unit; disk of "
                      "(2,4) has one simple zero per form, no common zero"):
        report, _ = ex2_p7_timed
        alpha = [expansion_value(c, 7, 3) for c in report["annihilators"]["alpha"]]
        beta = [expansion_value(c, 7, 3) for c in report["annihilators"]["beta"]]
        assert match_up_to_unit(alpha, ALPHA_MOD_343, 7, 3)
        assert match_up_to_unit(beta, BETA_MOD_343, 7, 3)
        (disk,) = [d for d in report["disks"]
                   if "(2,4)" in (d["disk"], d["mirror"])]
        roots = {expansion_value(r, 7, 3)
                 for r in disk["roots_alpha"] + disk["roots_beta"]}
        assert len(disk["roots_alpha"]) == len(disk["roots_beta"]) == 1
        assert roots == DISK_24_ROOTS
        assert disk["zero_count"] == 0


# -- criterion 3: same curve at p = 11 finds nothing new ----------------------

def test_criterion_03(ex2_p11):
    with criterion(3, "p=11 zero set: the 5 known points and nothing beyond "
                      "the (2-torsion, irrational) branch locus"):
        assert known_keys(ex2_p11) == {("0", "1"), ("0", "-1"), ("1", "1"),
                                       ("1", "-1"), "infinity"}
        assert len(by_class(ex2_p11, "known_rational")) == 5
        assert by_class(ex2_p11, "new_rational") == []
        assert by_class(ex2_p11, "other_algebraic") == []
        assert by_class(ex2_p11, "torsion") == []
        for w in by_class(ex2_p11, "weierstrass"):
            assert w["torsion_order"] == 2
            assert w["min_poly_x"] is not None and "x^" in w["min_poly_x"]


# -- criterion 4: second curve, torsion pair of order 12 ----------------------

def test_criterion_04(ex1_p7):
    with criterion(4, "second curve at p=7: knowns + 3 branch points + "
                      "(0, +-2*sqrt(2)) of reduction order 12"):
        assert ex1_p7["class_counts"] == {"known_rational": 5, "torsion": 2,
                                          "weierstrass": 3}
        assert len({w["disk"] for w in by_class(ex1_p7, "weierstrass")}) == 3
        pair = by_class(ex1_p7, "torsion")
        assert len(pair) == 2
        for r in pair:
            assert r["x"] == "0"
            assert r["min_poly_y"] == "y^2 - 8"
            assert r["torsion_order"] == 12


# -- criterion 5: third curve at p = 11 ---------------------------------------

def test_criterion_05(ex3_p11):
    with criterion(5, "third curve at p=11: knowns + 2 branch points + "
                      "(-1, +-2*sqrt(-35)) beyond the annihilator kernel"):
        assert ex3_p11["class_counts"] == {"known_rational": 4,
                                           "other_algebraic": 2,
                                           "weierstrass": 2}
        extras = by_class(ex3_p11, "other_algebraic")
        for r in extras:
            assert r["x"] == "-1"
            assert r["min_poly_y"] == "y^2 + 140"
        assert len({w["disk"] for w in by_class(ex3_p11, "weierstrass")}) == 2


# -- criterion 6: zeta certification ------------------------------------------

def random_good_curve(rng):
    while True:
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(7)]
        coeffs.append(Fraction(1))
        try:
            curve = CurveModel(coeffs).validate()
        except InputError:
            continue
        if curve.is_good_prime(7) and curve.is_good_prime(11):
            return curve


def poly_divmod(a, b):
    """Quotient and remainder over Q of constant-first coefficient lists."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] -= c * bi
        while r and r[-1] == 0:
            r.pop()
    return q, r


def all_roots_in(k, lo, hi):
    """True when every complex root of k is real and in [lo, hi], decided
    exactly by the Sturm sequence of the squarefree part of k."""
    def deriv(f):
        return [i * c for i, c in enumerate(f)][1:]

    g, r = k, deriv(k)
    while r:
        g, r = r, poly_divmod(g, r)[1]
    seq = [poly_divmod(k, g)[0]]
    seq.append(deriv(seq[0]))
    while True:
        r = poly_divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append([-c for c in r])

    def variations(x):
        signs = [v for v in (eval_exact(f, x) for f in seq) if v]
        return sum(u * v < 0 for u, v in zip(signs, signs[1:]))

    # V(lo) - V(hi) counts the distinct roots in (lo, hi]
    count = (variations(lo) - variations(hi)
             + (eval_exact(seq[0], lo) == 0))
    return count == len(seq[0]) - 1


def weil_checks(coeffs, p):
    """Functional equation, and every root of the reversed numerator
    L(T) = T^6 + a1 T^5 + ... + p^3 of absolute value sqrt(p), exactly."""
    for i in range(3):
        assert coeffs[6 - i] == p ** (3 - i) * coeffs[i]
    # L(T) = T^3 h(T + p/T); its roots lie on |T| = sqrt(p) iff every root
    # of h is real in [-2 sqrt(p), 2 sqrt(p)], iff every root of the cubic
    # k with h(s) h(-s) = k(s^2) lies in [0, 4p]
    _, a1, a2, a3 = coeffs[:4]
    b, c, d = a1, a2 - 3 * p, a3 - 2 * p * a1
    k = [d * d, 2 * b * d - c * c, b * b - 2 * c, -1]
    assert all_roots_in(k, 0, 4 * p), coeffs


def test_weil_check_is_exact():
    p = 7
    # (T^2 - p)^2 (T^2 + p): k = -r (r - 4p)^2 has its roots at both ends
    weil_checks([1, 0, -p, 0, -p ** 2, 0, p ** 3], p)
    # (T^2 + p)^3, the supersingular extreme: k = -r^3
    weil_checks([1, 0, 3 * p, 0, 3 * p ** 2, 0, p ** 3], p)
    good = [1, 2, 5, -4, 35, 98, 343]  # curve A at p = 7
    weil_checks(good, p)
    # a1 + 3 moves a root off the circle; |a1| = 18 > 6 sqrt(7) cannot hold
    for i, delta in ((1, 3), (2, 3), (3, 40), (1, 16)):
        bad = list(good)
        bad[i] += delta
        bad[6 - i] = p ** (3 - i) * bad[i]
        with pytest.raises(AssertionError):
            weil_checks(bad, p)


def test_criterion_06(curve_a, curve_b, curve_c):
    with criterion(6, "zeta numerators match brute-force counts (3 reference "
                      "+ 5 random curves, p in {7,11}); Weil bounds exact"):
        rng = random.Random(20260814)
        cases = [(curve_a, 7), (curve_b, 7), (curve_b, 11), (curve_c, 11)]
        for _ in range(5):
            curve = random_good_curve(rng)
            cases.append((curve, 7))
            cases.append((curve, 11))
        for curve, p in cases:
            coeffs = zeta_numerator(curve, p)
            assert coeffs == brute_zeta_numerator(curve.f_coeffs_mod(p, 1), p)
            weil_checks(coeffs, p)


# -- criterion 7: Coleman integral properties ----------------------------------

def close3(a, b):
    d = a - b
    if d.is_zero:
        return d.valuation >= 3 or d.abs_prec >= 3
    return d.valuation >= 3


def basis_form_residual(exp, i, w):
    """w(t) dt against x^i dx / 2y without the chart's shared factor:
    w * 2y - x^i x' on a finite chart; at infinity, where x = u/t^2 and
    y = u^3/t^7, w * 2u^3 - t^(4-2i) u^i (t u' - 2u).  The products run on
    the reference series, which keeps the ring operations."""
    two = PadicNumber.from_rational(2, exp.prime, rel_prec=exp.prec)
    w = as_reference(w)
    if exp.kind == "infinity":
        u = as_reference(exp.u_series)
        rhs = u.derivative().shift_t(1) - u.scale(two)
        for _ in range(i):
            rhs = rhs * u
        return w * (u * u * u).scale(two) - rhs.shift_t(4 - 2 * i)
    x = as_reference(exp.x_series)
    rhs = x.derivative()
    for _ in range(i):
        rhs = rhs * x
    return w * as_reference(exp.y_series).scale(two) - rhs


def random_disk_points(ctx, rng, count):
    disks = sorted({d.canonical(ctx.p) for d in ctx.curve.fp_points(ctx.p)})
    pts = []
    while len(pts) < count:
        disk = rng.choice(disks)
        data = ctx.disk_data(disk)
        u = rng.randrange(1, ctx.p ** (ctx.prec - 4))
        t = PadicNumber.from_rational(ctx.p * u, ctx.p, abs_prec=ctx.prec)
        pts.append(data.expansion.point_at(t))
    return pts


def test_criterion_07(curve_a, ctx_a7):
    with criterion(7, "integration laws on 20 random point pairs: path "
                      "additivity, basis expansions equal x^i dx/2y, "
                      "involution antisymmetry, branch-to-branch zero, "
                      "in-disk fundamental theorem"):
        # the integrals are assembled from these expansions on every chart
        kinds = set()
        for disk in {d.canonical(7) for d in curve_a.fp_points(7)}:
            data = ctx_a7.disk_data(disk)
            kinds.add(data.expansion.kind)
            for i, w in enumerate(data.expansion.differential_series()):
                diff = basis_form_residual(data.expansion, i, w)
                assert all(close3(c, PadicNumber.zero(7)) for c in diff.coeffs)
        assert kinds == {"generic", "weierstrass", "infinity"}
        rng = random.Random(7)
        pts = random_disk_points(ctx_a7, rng, 60)
        for k in range(20):
            a, b, c = pts[3 * k: 3 * k + 3]
            ab = ctx_a7.integral_holomorphic(a, b)
            bc = ctx_a7.integral_holomorphic(b, c)
            ac = ctx_a7.integral_holomorphic(a, c)
            assert all(close3(x + y, z) for x, y, z in zip(ab, bc, ac))
            flipped = ctx_a7.integral_holomorphic(a.involution(),
                                                  b.involution())
            assert all(close3(f, -v) for f, v in zip(flipped, ab))
        # between branch points every holomorphic integral vanishes
        winfo = curve_a.weierstrass_points_qp(7, 18)
        assert len(winfo) == 3
        w1, w2 = (disk_center(curve_a, FpPoint("affine", r, 0), 7, 18)
                  for r in sorted(winfo)[:2])
        for v in ctx_a7.integral_holomorphic(w1, w2):
            assert close3(v, PadicNumber.zero(7, 18))
        # d(y) integrates back to the coordinate difference inside a disk
        data = ctx_a7.disk_data(curve_a.fp_points(7)[1].canonical(7))
        ys = data.expansion.y_series
        anti = ys.derivative().formal_integral()
        for _ in range(5):
            t1, t2 = (PadicNumber.from_rational(7 * rng.randrange(1, 7 ** 12),
                                                7, abs_prec=18)
                      for _ in range(2))
            lhs = anti.evaluate(t2) - anti.evaluate(t1)
            rhs = ys.evaluate(t2) - ys.evaluate(t1)
            assert close3(lhs, rhs)


# -- criterion 8: certified solver against exhaustive search -------------------

def scan_roots_mod_p3(coeffs, p):
    m = p ** 4
    hits = set()
    for k in range(p ** 3):
        r = p * k
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * r + c) % m
        if acc == 0:
            hits.add(r % p ** 3)
    return hits


def test_criterion_08(ctx_a7):
    with criterion(8, "solver vs exhaustive search mod p^3 on 100 random "
                      "integral series per p in {7,11,13}; Strassmann caps; "
                      "antiderivative coefficient valuations"):
        for p in (7, 11, 13):
            rng = random.Random(1000 + p)
            done = 0
            while done < 100:
                coeffs = [rng.randint(-p ** 4, p ** 4) for _ in range(13)]
                if all(c % p == 0 for c in coeffs):
                    continue
                series = PadicPowerSeries(
                    p, [PadicNumber.from_rational(c, p, abs_prec=9)
                        for c in coeffs], 40)
                roots = series_roots_in_disk(series, 7)
                assert len(roots) <= series.reduction_order() + 1
                got = {r.residue(3) for r in roots}
                assert got == scan_roots_mod_p3(coeffs, p)
                done += 1
        # every antiderivative the pipeline builds obeys v(a_j) >= -ord_p(j)
        for disk in sorted({d.canonical(7) for d in
                            ctx_a7.curve.fp_points(7)}):
            data = ctx_a7.disk_data(disk)
            for anti in data.halfints:
                for j, c in enumerate(anti.coeffs):
                    if j == 0 or c.is_zero:
                        continue
                    assert c.valuation >= -ord_p(j, 7)


# -- criterion 9: per-disk and global cardinality caps --------------------------

CAPS = {"generic": 2, "infinity": 3, "weierstrass": 3}


def test_criterion_09(ex1_p7, ex2_p7_timed, ex2_p11, ex3_p11):
    with criterion(9, "zero counts: <=2 per generic disk, <=3 infinity, "
                      "<=3 branch; rational points <= #C(F_p) + 4"):
        for report in (ex1_p7, ex2_p7_timed[0], ex2_p11, ex3_p11):
            per_disk = {}
            for r in report.zeros:
                per_disk.setdefault(r["disk"], []).append(r["kind"])
            for disk, kinds in per_disk.items():
                assert len(kinds) <= CAPS[kinds[0]]
            rational = len(by_class(report, "known_rational")) + \
                len(by_class(report, "new_rational"))
            assert rational <= report["coleman_bound"]


# -- criterion 10: batch determinism and isolation ------------------------------

def test_criterion_10(tmp_path):
    with criterion(10, "batch at parallelism 1 vs 8: byte-identical reports; "
                       "injected bad-reduction job fails alone"):
        jobs = tmp_path / "jobs.jsonl"
        example_jobs = pathlib.Path(__file__).parent.parent / "data" / \
            "example_jobs.jsonl"
        lines = example_jobs.read_text(encoding="utf-8")
        lines += json.dumps({
            "id": "zz-bad",
            "curve": {"coeffs": ["16", "7", "7", "0", "0", "0", "0", "1"]},
            "p": 7}) + "\n"
        jobs.write_text(lines, encoding="utf-8")
        outs = []
        for workers in (1, 8):
            out = tmp_path / ("run%d" % workers)
            rc = main(["batch", "--jobs", str(jobs), "--parallel",
                       str(workers), "--out", str(out)])
            assert rc == 1
            outs.append(out)
        names = sorted(f.name for f in outs[0].iterdir())
        assert names == ["ex1-p7.json", "ex2-p7.json", "ex3-p11.json",
                         "summary.csv"]
        assert names == sorted(f.name for f in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()
        summary = (outs[0] / "summary.csv").read_text().splitlines()
        (bad_row,) = [row for row in summary if row.startswith("zz-bad")]
        assert "BadReductionError" in bad_row
        ok_rows = [row for row in summary[1:] if ",ok," in row]
        assert len(ok_rows) == 3
