"""The mutation table: each row breaks one check and names the tests that
must catch it.

Run it from anywhere as

    python tests/mutants.py

pytest does not collect this file.  The runner copies src/, tests/, data/
and pyproject.toml to a temporary directory and runs every row's tests
there once, unmutated, expecting them to pass.  Then it applies one row at
a time: the row's snippet must occur exactly once in its file under
src/g3chabauty/, it is replaced, and the row's tests must fail (a nonzero
pytest exit).  A row marked expect="survives" is a mutant that is known to
pass its tests; it carries the reason, and the runner fails if it starts
to be killed, so that its entry gets updated.  A missing or duplicated
snippet fails the runner, so a refactor that moves a check must update
its row in the same change.

Rows added here name the narrowest tests that kill them, so that the whole
table runs in a few minutes.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "data", "pyproject.toml")

Mutant = namedtuple("Mutant", "name path snippet replacement tests expect "
                    "reason", defaults=("killed", None))

MUTANTS = [
    # -- root isolation (series.series_roots_in_disk) ----------------------
    Mutant(
        "isolation accepts a coefficient of negative valuation",
        "series.py",
        'raise InputError("series is not integral on the open disk")',
        "pass",
        ("tests/test_rootfinding.py::test_non_integral_series_rejected",)),
    Mutant(
        "isolation keeps its budget when a coefficient knows fewer digits",
        "series.py",
        "[a + j for j, a in enumerate(",
        "[prec + j for j, a in enumerate(",
        ("tests/test_cli.py::"
         "test_anomalous_digits_agree_with_a_higher_precision",)),
    Mutant(
        "isolation reads past the series' t_prec",
        "series.py",
        "    if series.t_prec < m_order:\n",
        "    if False:\n",
        ("tests/test_rootfinding.py::test_short_series_rejected",)),
    Mutant(
        "isolation does not reject a vector that reads as zero",
        "series.py",
        "    if not ints:\n",
        "    if False:\n",
        ("tests/test_rootfinding.py::test_zero_like_series_raises",)),
    Mutant(
        "isolation recurses on a shifted series that reads as zero",
        "series.py",
        "        if k >= budget:\n",
        "        if False:\n",
        ("tests/test_rootfinding.py::test_double_root_raises",),
        expect="survives",
        reason="with k = budget the next check raises PrecisionError too, "
               "as sub_budget = 0 < 2; only its message differs"),
    # -- the antiderivative's tail (series.evaluate_antiderivative) --------
    Mutant(
        "an antiderivative's value drops its tail bound",
        "series.py",
        "tail_bound=min_tail_valuation(\n"
        "            self.t_prec, t0.valuation, self.prime))",
        "tail_bound=INF)",
        ("tests/test_series.py::"
         "test_evaluate_antiderivative_caps_at_the_tail_bound",)),
    # -- one series per half-integral and per form (series) ----------------
    Mutant(
        "form_series drops its fl_a + abs_c term",
        "series.py",
        "            abs_[j] = min(abs_[j], a + flc, f + abc)\n",
        "            abs_[j] = min(abs_[j], a + flc)\n",
        ("tests/test_series.py::"
         "test_series_ops_match_padicnumber_reference",)),
    Mutant(
        "formal_integral ignores its constant",
        "series.py",
        "(_parts(constant) if constant is not None",
        "(_parts(constant) if False",
        ("tests/test_series.py::"
         "test_series_ops_match_padicnumber_reference",)),
    Mutant(
        "form_series accepts the zero form",
        "series.py",
        "    if not terms:\n",
        "    if False:\n",
        ("tests/test_localdisk.py::"
         "test_form_series_skips_exact_zeros_and_rejects_zero_form",)),
    Mutant(
        "the closed-form tail minimum drops the digits i_k loses",
        "series.py",
        "        best = min(best, i * w - ord_p(i, p))\n",
        "        best = min(best, i * w)\n",
        ("tests/test_series.py::"
         "test_min_tail_valuation_closed_form_matches_a_window_search",)),
    # -- the Teichmuller point of a generic disk (padic) -------------------
    Mutant(
        "teichmuller_point lifts a residue that is off the curve or at y = 0",
        "padic.py",
        "    if ybar % p == 0 or (fx - ybar * ybar) % p:\n",
        "    if False:\n",
        ("tests/test_padic.py::test_teichmuller_point_exhaustive_oracle",)),
    # -- p-adic equality is refused (padic) --------------------------------
    Mutant(
        "== compares p-adic values by identity",
        "padic.py",
        '        raise TypeError("p-adic values compare by (a - b).is_zero, '
        'not ==")\n',
        "        return self is other\n",
        ("tests/test_padic.py::test_equality_is_refused",)),
    # -- the disk key of h (frobenius) and its mirror (coleman) ------------
    Mutant(
        "h is folded at the mirror generic disks too",
        "frobenius.py",
        "if q.y and q == q.canonical(p)]",
        "if q.y]",
        ("tests/test_frobenius.py::"
         "test_primitive_dx_matches_the_per_term_oracle[curve_a-7]",)),
    Mutant(
        "integrate folds h at every generic disk",
        "frobenius.py",
        "[d for d in folded[1:] if d in wanted]",
        "folded[1:]",
        ("tests/test_cli.py::"
         "test_integrate_folds_h_at_the_audit_and_endpoint_disks",)),
    Mutant(
        "halfint does not negate on the mirror half",
        "coleman.py",
        "        return tuple(-v for v in vals) if flipped else vals\n",
        "        return vals\n",
        ("tests/test_coleman.py::"
         "test_same_disk_agrees_with_direct_expansion",)),
    # -- the audits of the Frobenius run (frobenius) -----------------------
    Mutant(
        "the Weil bound audit is skipped",
        "frobenius.py",
        "    if not _weil_ok(b, p):\n",
        "    if False:\n",
        ("tests/test_frobenius.py::"
         "test_weil_audit_rejects_a_large_zeta_coefficient",)),
    Mutant(
        "the functional-equation audit is skipped",
        "frobenius.py",
        "    if b[6] != p ** 3 or b[5] != p ** 2 * b[1] or b[4] != p * b[2]:\n",
        "    if False:\n",
        ("tests/test_frobenius.py::"
         "test_functional_equation_audit_rejects_a_wrong_b6",)),
    Mutant(
        "the trace audit is skipped",
        "frobenius.py",
        "    if fd.point_count() != len(fd.fp_points):\n",
        "    if False:\n",
        ("tests/test_frobenius.py::"
         "test_trace_audit_rejects_a_wrong_point_count",)),
    Mutant(
        "the matrix p-integrality audit is skipped",
        "frobenius.py",
        "            if val % pC:\n",
        "            if False:\n",
        ("tests/test_frobenius.py::"
         "test_matrix_audit_rejects_an_entry_off_the_prescale",)),
    Mutant(
        "the cofactor returns None instead of BadReductionError",
        "frobenius.py",
        "    if beta is None:\n",
        "    if False:\n",
        ("tests/test_frobenius.py::"
         "test_cofactor_audit_rejects_a_repeated_root_mod_p",)),
    Mutant(
        "the Frobenius identity audit is skipped",
        "frobenius.py",
        "        if ((lhs - rhs) * p ** C - 2 * y * dh[col]) % p ** (C + N):\n",
        "        if False:\n",
        ("tests/test_frobenius.py::"
         "test_identity_audit_catches_a_wrong_matrix_digit[curve_a-7]",)),
    Mutant(
        "_Horner packs h's values in slots 2 bytes short",
        "frobenius.py",
        "        self.slot = kernels.slot_bytes(m, 7)\n",
        "        self.slot = kernels.slot_bytes(m, 7) - 2\n",
        ("tests/test_frobenius.py::"
         "test_primitive_dx_matches_the_per_term_oracle[curve_a-7]",)),
    Mutant(
        "_Horner's dh flips the sign of its (1 - 2e) term",
        "frobenius.py",
        "+ (1 - 2 * e) * self.half_fu * vals[0]) % m",
        "+ (2 * e - 1) * self.half_fu * vals[0]) % m",
        ("tests/test_frobenius.py::"
         "test_primitive_dx_matches_the_per_term_oracle[curve_a-7]",)),
    Mutant(
        "_generic_disks does not put the audit disk first",
        "frobenius.py",
        "    disks.sort(key=lambda disk: disk.x != xbar)\n",
        "",
        ("tests/test_frobenius.py::"
         "test_primitive_dx_matches_the_per_term_oracle[curve_a-7]",)),
    Mutant(
        "each block of Psi is kept once read",
        "frobenius.py",
        "        block, blocks[n] = blocks[n], None\n",
        "        block = blocks[n]\n",
        ("tests/test_frobenius.py::test_frobenius_transient_heap_is_small",),
        expect="survives",
        reason="the heap peaks at the end of Psi's build, before any block "
               "is read, so keeping the read blocks does not raise it"),
    # -- the proof's own checks (pipeline) ---------------------------------
    Mutant(
        "an unrecovered known point passes",
        "pipeline.py",
        "        if k.original not in run.matched:\n",
        "        if False:\n",
        ("tests/test_pipeline.py::test_unrecovered_known_point_raises",)),
    Mutant(
        "a disk may report more zeros than its counting bound",
        "pipeline.py",
        "        if len(zeros) > bound:\n",
        "        if False:\n",
        ("tests/test_pipeline.py::"
         "test_more_zeros_than_the_counting_bound_raise",)),
    Mutant(
        "a mirror-disk zero is not reflected",
        "pipeline.py",
        "        if disk != disk.canonical(self.p):\n",
        "        if False:\n",
        ("tests/test_pipeline.py::"
         "test_other_algebraic_report_digest_pinned",)),
    Mutant(
        "a functional vanishing mod p is not named",
        "pipeline.py",
        "        if order_a is None or order_b is None:\n",
        "        if False:\n",
        ("tests/test_pipeline.py::test_functional_vanishing_mod_p_raises",)),
    Mutant(
        "no known point of infinite order returns no base",
        "pipeline.py",
        '    raise InputError("no known point of infinite order; supply a '
        'base point")\n',
        "    return None, None\n",
        ("tests/test_pipeline.py::"
         "test_rejects_knowns_with_no_point_of_infinite_order",)),
    # -- a quadratic zero's x (recognize.exact_point) ----------------------
    Mutant(
        "1/x's relation is not reversed",
        "recognize.py",
        "rel[::-1] if inverted else rel",
        "rel",
        ("tests/test_pipeline.py::"
         "test_algebraic_point_takes_y_as_a_square_root[7-infinity]",)),
    # -- the curve object (curve.CurveModel.from_json) ---------------------
    Mutant(
        "a bare-list curve is read as coefficients",
        "curve.py",
        "    def from_json(obj):\n",
        "    def from_json(obj):\n"
        "        obj = obj if isinstance(obj, dict) else {\"coeffs\": obj}\n",
        ("tests/test_cli.py::"
         "test_batch_with_a_malformed_job_exits_2_before_any_work"
         "[1-curve-list]",)),
    # -- zeta --brute-check (cli) ------------------------------------------
    Mutant(
        "zeta --brute-check exits 0 on a mismatch",
        "cli.py",
        "        if brute != coeffs:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_zeta_brute_check_mismatch_exits_1",)),
    # -- Cantor arithmetic's checks (jacobian) -----------------------------
    Mutant(
        "a Mumford u need not be monic",
        "jacobian.py",
        "        if not u or u[-1] != 1:\n",
        "        if False:\n",
        ("tests/test_jacobian.py::"
         "test_constructor_checks_the_mumford_conditions",)),
    Mutant(
        "a Mumford u may have degree above 3",
        "jacobian.py",
        "        if len(u) - 1 > 3:\n",
        "        if False:\n",
        ("tests/test_jacobian.py::"
         "test_constructor_checks_the_mumford_conditions",)),
    Mutant(
        "a Mumford v may have degree deg u",
        "jacobian.py",
        "        if len(v) >= len(u):\n",
        "        if False:\n",
        ("tests/test_jacobian.py::"
         "test_constructor_checks_the_mumford_conditions",)),
    Mutant(
        "classes on different curves add",
        "jacobian.py",
        "        if self.p != other.p or self.f != other.f:\n",
        "        if False:\n",
        ("tests/test_jacobian.py::"
         "test_constructor_checks_the_mumford_conditions",)),
]


def _copy(tmp):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(src, tmp / name)


def _env(tree):
    # no bytecode: a mutant of the same length written within a second of
    # the original could otherwise load the original's cached .pyc
    return dict(os.environ, PYTHONPATH=str(tree / "src"),
                PYTHONDONTWRITEBYTECODE="1")


def _pytest(tree, tests):
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=_env(tree),
                          capture_output=True, text=True)


def _check_snippets():
    """The rows whose snippet does not occur exactly once, with the count."""
    bad = []
    for row in MUTANTS:
        text = (ROOT / "src" / "g3chabauty" / row.path).read_text()
        count = text.count(row.snippet)
        if count != 1:
            bad.append((row, count))
    return bad


def main():
    bad = _check_snippets()
    for row, count in bad:
        print("SNIPPET %s: occurs %d times in %s" % (row.name, count,
                                                     row.path))
    if bad:
        return 1
    failures = 0
    with tempfile.TemporaryDirectory(prefix="g3chabauty-mutants-") as name:
        tree = pathlib.Path(name)
        _copy(tree)
        where = subprocess.run(
            [sys.executable, "-c",
             "import g3chabauty; print(g3chabauty.__file__)"],
            cwd=tree, env=_env(tree), capture_output=True, text=True,
            check=True).stdout.strip()
        if not pathlib.Path(where).resolve().is_relative_to(tree.resolve()):
            print("the copy does not shadow the package: %s" % where)
            return 1
        tests = sorted({t for row in MUTANTS for t in row.tests})
        run = _pytest(tree, tests)
        if run.returncode:
            print("UNMUTATED copy fails its tests:\n" + run.stdout[-4000:])
            return 1
        for row in MUTANTS:
            path = tree / "src" / "g3chabauty" / row.path
            original = path.read_text()
            path.write_text(original.replace(row.snippet, row.replacement))
            try:
                killed = _pytest(tree, row.tests).returncode != 0
            finally:
                path.write_text(original)
            want = row.expect == "killed"
            ok = killed == want
            failures += not ok
            print("%s %s: %s%s" % (
                "ok  " if ok else "FAIL", row.name,
                "killed" if killed else "survives",
                "" if row.reason is None else " (%s)" % row.reason))
    print("%d of %d rows as expected" % (len(MUTANTS) - failures,
                                        len(MUTANTS)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
