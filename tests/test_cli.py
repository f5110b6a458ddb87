"""Command line behaviour: plumbing, exit codes, batch isolation.

Heavy math lives behind analyze/batch and is pinned by test_pipeline; here
the assertions are that the CLI reproduces library results byte for byte,
that error classes land on their documented exit codes, and that a failing
batch job cannot disturb its siblings.
"""

import io
import json
import logging
import os
import pathlib
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g3chabauty import cli, frobenius, pipeline
from g3chabauty.cli import main
from g3chabauty.coleman import ColemanContext
from g3chabauty.curve import (HEIGHT_CAP, PREC_CAP, PRIME_CAP, RationalPoint,
                              is_prime)
from g3chabauty.errors import G3Error, PrecisionError
from g3chabauty.pipeline import analyze_curve

from conftest import CURVE_A_COEFFS, CURVE_B_COEFFS, CURVE_B_SCALING

CURVE_A_JSON = {"coeffs": [str(c) for c in CURVE_A_COEFFS]}
CURVE_B_JSON = {"coeffs": [str(c) for c in CURVE_B_COEFFS],
                "scaling": CURVE_B_SCALING}
ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
SRC_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# x^7 + 2 is a 7th power mod 7
BAD_AT_7_JSON = {"coeffs": ["16", "7", "7", "0", "0", "0", "0", "1"]}


def job_text(job):
    """One line of JSON for a job; a str is taken as that line already, as
    for a job json.dumps cannot write."""
    return job if isinstance(job, str) else json.dumps(job)


def write_json(path, obj):
    path.write_text(job_text(obj) + "\n", encoding="utf-8")
    return str(path)


def write_jobs(path, jobs):
    path.write_text("".join(job_text(j) + "\n" for j in jobs),
                    encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def ex1_report(curve_a):
    return analyze_curve(curve_a, p=7)


@pytest.fixture()
def job_a(tmp_path):
    return write_json(tmp_path / "job.json",
                      {"id": "ex1", "curve": CURVE_A_JSON, "p": 7})


def test_analyze_stdout(job_a, ex1_report, capsys):
    assert main(["analyze", "--job", job_a]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == ex1_report.data


def test_analyze_out_dir(job_a, ex1_report, tmp_path, capsys):
    assert main(["analyze", "--job", job_a, "--out", str(tmp_path / "r")]) == 0
    path = tmp_path / "r" / "ex1.json"
    assert str(path) in capsys.readouterr().out
    assert path.read_text() == ex1_report.to_json() + "\n"


def test_batch_isolates_failures(tmp_path, capsys):
    jobs = write_jobs(tmp_path / "jobs.jsonl", [
        {"id": "good", "curve": CURVE_A_JSON, "p": 7},
        {"id": "bad", "curve": BAD_AT_7_JSON, "p": 7},
    ])
    out1 = tmp_path / "run1"
    assert main(["batch", "--jobs", jobs, "--out", str(out1)]) == 1
    capsys.readouterr()
    assert (out1 / "good.json").exists()
    assert not (out1 / "bad.json").exists()
    rows = (out1 / "summary.csv").read_text().splitlines()
    assert rows[0].startswith("id,status,error")
    assert rows[1].startswith("bad,error,BadReductionError")
    assert rows[2].startswith("good,ok,,7,10,5,0,2,0,3")

    out2 = tmp_path / "run2"
    assert main(["batch", "--jobs", jobs, "--parallel", "2",
                 "--out", str(out2)]) == 1
    capsys.readouterr()
    assert (out2 / "summary.csv").read_bytes() == \
        (out1 / "summary.csv").read_bytes()
    assert (out2 / "good.json").read_bytes() == \
        (out1 / "good.json").read_bytes()


# cmd_batch imports the pool from here, and only for a pooled batch
POOL = "concurrent.futures.ProcessPoolExecutor"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool size and runs
    the jobs in this process, so no worker is ever started."""

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_cli_import_loads_no_process_pool():
    # analyze, zeta, integrate and search-points run in one process, so
    # only a pooled batch imports concurrent.futures and multiprocessing
    run = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, g3chabauty.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
        capture_output=True, text=True, timeout=120, env=SRC_ENV)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def _failing_analysis(*args, **kwargs):
    """Stands in for analyze_curve: each job passes validation and then
    fails at once in its worker."""
    raise PrecisionError("stub analysis")


def test_batch_parallel_checked_and_capped(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(RecordingPool, "sizes", [], raising=False)
    monkeypatch.setattr(POOL, RecordingPool)
    monkeypatch.setattr(cli, "analyze_curve", _failing_analysis)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    good = {"curve": CURVE_A_JSON, "p": 7}
    jobs = write_jobs(tmp_path / "jobs.jsonl",
                      [dict(good, id=n) for n in ("j1", "j2", "j3")])
    one = write_jobs(tmp_path / "one.jsonl", [dict(good, id="j1")])
    for n in ("0", "-2"):
        out = tmp_path / ("o" + n)
        assert main(["batch", "--jobs", jobs, "--parallel", n,
                     "--out", str(out)]) == 2
        assert not out.exists()
    assert RecordingPool.sizes == []
    for path, n in ((jobs, "500"), (jobs, "2"), (jobs, "1"), (one, "4")):
        assert main(["batch", "--jobs", path, "--parallel", n,
                     "--out", str(tmp_path / "out")]) == 1
    capsys.readouterr()
    assert RecordingPool.sizes == [3, 2]


@pytest.mark.parametrize("cpus,size", [(64, 3), (2, 2), (1, None),
                                       (None, None)])
def test_batch_pool_has_at_most_one_worker_per_cpu(cpus, size, tmp_path,
                                                   monkeypatch, capsys):
    # the pool starts all its workers at the first submit, so --parallel
    # 500 must not ask for 500; one CPU, or an unknown count, runs serially
    monkeypatch.setattr(RecordingPool, "sizes", [], raising=False)
    monkeypatch.setattr(POOL, RecordingPool)
    monkeypatch.setattr(cli, "analyze_curve", _failing_analysis)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    jobs = write_jobs(tmp_path / "jobs.jsonl", [
        {"id": n, "curve": CURVE_A_JSON, "p": 7} for n in ("j1", "j2", "j3")])
    assert main(["batch", "--jobs", jobs, "--parallel", "500",
                 "--out", str(tmp_path / "out")]) == 1
    capsys.readouterr()
    assert RecordingPool.sizes == ([] if size is None else [size])


class OrderRecordingPool(RecordingPool):
    """A RecordingPool that also records the job ids map receives."""

    def map(self, fn, items):
        items = list(items)
        self.ids.append([job_id for job_id, _ in items])
        return map(fn, items)


def test_batch_submits_largest_p_first(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(OrderRecordingPool, "sizes", [], raising=False)
    monkeypatch.setattr(OrderRecordingPool, "ids", [], raising=False)
    monkeypatch.setattr(POOL, OrderRecordingPool)
    monkeypatch.setattr(cli, "analyze_curve", _failing_analysis)
    good = {"curve": CURVE_A_JSON}
    jobs = write_jobs(tmp_path / "jobs.jsonl", [
        dict(good, id="a7", p=7), dict(good, id="b7", p=7),
        dict(good, id="c11", p=11)])
    out = tmp_path / "out"
    assert main(["batch", "--jobs", jobs, "--parallel", "2",
                 "--out", str(out)]) == 1
    capsys.readouterr()
    assert OrderRecordingPool.ids == [["c11", "a7", "b7"]]
    summary = (out / "summary.csv").read_text(encoding="utf-8")
    rows = summary.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["a7", "b7", "c11"]
    assert all(",error,PrecisionError: stub analysis," in r for r in rows)
    # a malformed p fails the whole file before the jobs are ordered
    jobs = write_jobs(tmp_path / "px.jsonl", [
        dict(good, id="a7", p=7), dict(good, id="px", p="x"),
        dict(good, id="c11", p=11)])
    out = tmp_path / "out_px"
    assert main(["batch", "--jobs", jobs, "--parallel", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 2 of" in err and "job field 'p' must be an integer" in err
    assert OrderRecordingPool.ids == [["c11", "a7", "b7"]]
    assert not out.exists()


class RecordedCalls:
    """Stands in for analyze_curve: records the keyword arguments of each
    call and returns a report with no zeros."""

    def __init__(self):
        self.calls = []

    def __call__(self, **kwargs):
        self.calls.append(kwargs)
        return pipeline.AnalysisReport({"prime": kwargs["p"] or 7,
                                        "zero_set": [], "class_counts": {}})


GOOD_JOB = {"curve": CURVE_A_JSON, "p": 7}
# the least prime above the cap, and the largest at or below it
ABOVE_CAP = next(n for n in range(PRIME_CAP + 1, 2 * PRIME_CAP) if is_prime(n))
AT_CAP = next(n for n in range(PRIME_CAP, 7, -1) if is_prime(n))


def _with_coeff0(c0):
    """GOOD_JOB with its constant coefficient replaced by c0."""
    return dict(GOOD_JOB, curve={"coeffs": [c0] + CURVE_A_JSON["coeffs"][1:]})


# one malformed job per check parse_job makes, with a piece of its message
MALFORMED_JOBS = {
    "key": (dict(GOOD_JOB, prec=30), "unknown job key 'prec'"),
    "integer-field": (dict(GOOD_JOB, p="seven"), "field 'p' must be an int"),
    "curve": (dict(GOOD_JOB, curve={"coeffs": ["1", "2"]}), "degree-7"),
    "no-curve": ({"p": 7}, "needs a 'curve'"),
    # a curve is the object {"coeffs": [...]}, never a bare coefficient list
    "curve-list": (dict(GOOD_JOB, curve=CURVE_A_JSON["coeffs"]),
                   'curve JSON must be an object {"coeffs": [...]'),
    "point": (dict(GOOD_JOB, known_points=[["a", "b"]]),
              "known point x must be a rational number"),
    "point-list": (dict(GOOD_JOB, known_points=5), "must be a list"),
    "id": (dict(GOOD_JOB, id="../x"), "not a plain file name"),
    "id-nul": (dict(GOOD_JOB, id="ex\x001"), "not a plain file name"),
    "id-long": (dict(GOOD_JOB, id="x" * 300), "over the 255-byte limit"),
    "precision": (dict(GOOD_JOB, precision=0), "precision must be at least"),
    # below N = 4 the Frobenius audit of b_6 = p^3 cannot pass
    "precision-1": (dict(GOOD_JOB, precision=1), "at least 4, got 1"),
    "precision-2": (dict(GOOD_JOB, precision=2), "at least 4, got 2"),
    "precision-3": (dict(GOOD_JOB, precision=3), "at least 4, got 3"),
    "height": (dict(GOOD_JOB, search_height=-1), "search height must be"),
    "composite-prime": (dict(GOOD_JOB, p=9), "9 is not prime"),
    "small-prime": (dict(GOOD_JOB, p=5), "at least 7"),
    "prime-cap": (dict(GOOD_JOB, p=ABOVE_CAP), "above the cap"),
    "height-cap": (dict(GOOD_JOB, search_height=HEIGHT_CAP + 1),
                   "search height must be at most 100000"),
    "precision-cap": (dict(GOOD_JOB, precision=PREC_CAP + 1),
                      "precision must be at most 200"),
    # within both caps, but estimated at hours
    "cost-cap": (dict(GOOD_JOB, p=293, precision=200),
                 "at p = 293 and N = 200 is estimated at"),
    "off-curve-known": (dict(GOOD_JOB, known_points=["infinity", ["2", "2"]]),
                        "known point ['2', '2'] is not on the curve"),
    "off-curve-base": (dict(GOOD_JOB, base_point=["2", "2"]),
                       "base point ['2', '2'] is not on the curve"),
    "base-not-known": (dict(GOOD_JOB, known_points=["infinity"],
                            base_point=["-1", "1"]), "among the known"),
    "base-above-height": (dict(GOOD_JOB, base_point=["-1", "1"],
                               search_height=0), "above search height 0"),
    # a JSON integer past the 4300 digits int() converts
    "json-int-digits": ('{"curve": {"coeffs": [%s, 1, 1, 1, 1, 1, 1, 1]}, '
                        '"p": 7}' % ("9" * 5000),
                        "coefficient 0 has more than 1000 digits"),
    "json-int-field": ('{"curve": {"coeffs": [1, 1, 1, 1, 1, 1, 1, 1]}, '
                       '"p": %s}' % ("7" * 5000),
                       "job field 'p' must be an integer, got '777"),
    # "1e100000" once ran a whole analysis and then failed to print the
    # searched point (0, 10^50000); building "1e10000000" alone takes
    # seconds
    "exponent": (_with_coeff0("1e100000"),
                 "coefficient 0 has an exponent over 1000"),
    "exponent-10^7": (_with_coeff0("1e10000000"),
                      "coefficient 0 has an exponent over 1000"),
    "point-exponent": (dict(GOOD_JOB, known_points=[["1e5000", "1"]]),
                       "known point x has an exponent over 1000"),
    "scaling-digits": (_with_coeff0("1/" + "3" * 600),
                       "monic scaling 1/(c^3 den) of more than 4000 digits"),
    "json-depth": ("[" * 100000 + "]" * 100000, "bad JSON in"),
}


@pytest.mark.parametrize("check", sorted(MALFORMED_JOBS))
@pytest.mark.parametrize("parallel", ["1", "2"])
def test_batch_with_a_malformed_job_exits_2_before_any_work(
        check, parallel, tmp_path, monkeypatch, capsys):
    # such a file once ran its good jobs, gave the malformed one an error
    # row and exited 1
    bad, message = MALFORMED_JOBS[check]
    stub = RecordedCalls()
    monkeypatch.setattr(cli, "analyze_curve", stub)
    monkeypatch.setattr(RecordingPool, "sizes", [], raising=False)
    monkeypatch.setattr(POOL, RecordingPool)
    jobs = write_jobs(tmp_path / "jobs.jsonl", [
        dict(GOOD_JOB, id="first"), bad, dict(GOOD_JOB, id="last")])
    out = tmp_path / "out"
    assert main(["batch", "--jobs", jobs, "--parallel", parallel,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 2 of" in err and message in err, err
    assert "Traceback" not in err
    assert stub.calls == [] and RecordingPool.sizes == []
    assert not out.exists()
    # the same job alone through analyze fails the same way
    single = write_json(tmp_path / "job.json", bad)
    assert main(["analyze", "--job", single]) == 2
    assert message in capsys.readouterr().err
    assert stub.calls == []


def test_a_job_file_that_is_not_utf8_exits_2(tmp_path, monkeypatch, capsys):
    # the decode error was once a traceback with exit 1
    stub = RecordedCalls()
    monkeypatch.setattr(cli, "analyze_curve", stub)
    path = tmp_path / "jobs.jsonl"
    path.write_bytes(json.dumps(GOOD_JOB).encode() + b"\n\xff\xfe\n")
    for argv in (["batch", "--jobs", str(path), "--out", str(tmp_path / "o")],
                 ["analyze", "--job", str(path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err
    assert stub.calls == [] and not (tmp_path / "o").exists()


def test_json_numbers_are_read_exactly(tmp_path, monkeypatch, capsys):
    # read as floats, 8.000000000000000001 was 8 and 1e-400 was 0
    stub = RecordedCalls()
    monkeypatch.setattr(cli, "analyze_curve", stub)
    coeffs = "[8.000000000000000001, 32, 32, -16, -36, -8, 9, 4]"
    job = write_json(tmp_path / "job.json",
                     '{"curve": {"coeffs": %s}, "p": 7}' % coeffs)
    assert main(["analyze", "--job", job]) == 0
    [call] = stub.calls
    assert call["curve"].original[0] == Fraction("8.000000000000000001")
    job = write_json(tmp_path / "job.json", '{"curve": {"coeffs": [8, 32, '
                     '32, -16, -36, -8, 9, 4]}, "p": 7, "known_points": '
                     '[[-1, 1e-400]]}')
    assert main(["analyze", "--job", job]) == 2
    assert "known point ['-1', '1/1%s'] is not on the curve" % ("0" * 400) \
        in capsys.readouterr().err
    assert len(stub.calls) == 1


def test_jobs_at_the_caps_run_and_one_above_exits_2(tmp_path, monkeypatch,
                                                     capsys):
    stub = RecordedCalls()
    monkeypatch.setattr(cli, "analyze_curve", stub)
    at_cap = dict(GOOD_JOB, id="cap", search_height=HEIGHT_CAP,
                  precision=PREC_CAP)
    single = write_json(tmp_path / "job.json", at_cap)
    jobs = write_jobs(tmp_path / "jobs.jsonl", [at_cap])
    assert main(["analyze", "--job", single]) == 0
    assert main(["batch", "--jobs", jobs, "--out", str(tmp_path / "o")]) == 0
    assert [(c["search_height"], c["prec"]) for c in stub.calls] == \
        [(HEIGHT_CAP, PREC_CAP)] * 2
    capsys.readouterr()
    # --N overrides the job's precision and meets the same cap
    assert main(["analyze", "--job", single, "--N", str(PREC_CAP + 1)]) == 2
    assert "precision must be at most 200" in capsys.readouterr().err
    assert main(["search-points", "--curve", str(DATA / "curve_a.json"),
                 "--height", str(HEIGHT_CAP + 1)]) == 2
    assert "search height must be at most 100000" in capsys.readouterr().err
    assert len(stub.calls) == 2


# curve A under x -> lam^2 x, y -> lam^7 y with lam = 2 10^71: coefficient
# i is g_i lam^(14 - 2i).  The constant coefficient 131072 10^994 is written
# with 1000 digits and the x coefficient 131072 10^852 with the exponent
# 1000, both at the cap on job numbers.
LAM_A_COEFFS = ["131072" + "0" * 994, "0." + "0" * 142 + "131072e1000",
                "32768e710", "-4096e568", "-2304e426", "-128e284", "36e142",
                "4"]
LAM_A_KNOWN = ["infinity", ["-4e142", "-128e497"], ["-4e142", "128e497"],
               ["4e142", "-640e497"], ["4e142", "640e497"]]


def test_numbers_at_the_digit_cap_prove(tmp_path, capsys):
    # the model is isomorphic to curve A over Z[1/10], so at p = 11 it has
    # A@11's zero classes: the five known points and one branch point
    job = {"id": "cap", "curve": {"coeffs": list(LAM_A_COEFFS)}, "p": 11,
           "known_points": LAM_A_KNOWN}
    assert main(["analyze", "--job", write_json(tmp_path / "cap.json",
                                                job)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class_counts"] == {"known_rational": 5, "weierstrass": 1}
    assert report["curve"]["coefficients"][0] == LAM_A_COEFFS[0]
    assert report["curve"]["monic_scaling"] == ["1/4", "1/64"]
    # one digit more, or an exponent one larger, exits 2
    for c0, message in (("1" + LAM_A_COEFFS[0], "more than 1000 digits"),
                        ("0.131072e1001", "an exponent over 1000")):
        job["curve"]["coeffs"][0] = c0
        assert main(["analyze", "--job", write_json(tmp_path / "over.json",
                                                    job)]) == 2
        assert "coefficient 0 has " + message in capsys.readouterr().err


def test_prime_above_the_cap_exits_2_before_any_work(job_a, tmp_path,
                                                    monkeypatch, capsys):
    # the cap bounds what one job can cost: the work grows with p
    def no_work(*args, **kwargs):
        raise AssertionError("the work started")

    stub = RecordedCalls()
    monkeypatch.setattr(cli, "analyze_curve", stub)
    monkeypatch.setattr(cli, "zeta_numerator", no_work)
    curve = str(DATA / "curve_a.json")
    for argv in (["analyze", "--job", job_a, "--p", str(ABOVE_CAP)],
                 ["zeta", "--curve", curve, "--p", str(ABOVE_CAP)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "prime %d is above the cap %d" % (ABOVE_CAP, PRIME_CAP) in err
    assert stub.calls == []
    # the prime at the cap is accepted; it needs a precision below 2p + 4
    assert main(["analyze", "--job", job_a, "--p", str(AT_CAP),
                 "--N", "4"]) == 0
    assert [c["p"] for c in stub.calls] == [AT_CAP]


def test_jobs_under_the_cost_cap_reach_the_analysis(job_a, monkeypatch,
                                                    capsys):
    # the cost model admits the default precision 2p + 4 at p = 7, 11 and
    # 37, and p = 293 at N = 10, but not p = 293 at N = 200
    stub = RecordedCalls()
    monkeypatch.setattr(cli, "analyze_curve", stub)
    runs = [(7, 18), (11, 26), (37, 78), (293, 10)]
    for p, N in runs:
        assert main(["analyze", "--job", job_a, "--p", str(p),
                     "--N", str(N)]) == 0
    assert [(c["p"], c["prec"]) for c in stub.calls] == runs
    capsys.readouterr()
    assert main(["analyze", "--job", job_a, "--p", "293", "--N", "200"]) == 2
    assert "over the budget of 600 s" in capsys.readouterr().err
    assert len(stub.calls) == len(runs)


def test_out_dir_is_checked_before_any_analysis(tmp_path, monkeypatch,
                                                capsys):
    stub = RecordedCalls()
    monkeypatch.setattr(cli, "analyze_curve", stub)
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    jobs = write_jobs(tmp_path / "jobs.jsonl", [dict(GOOD_JOB, id="ex1")])
    job = write_json(tmp_path / "job.json", GOOD_JOB)
    for argv in (["batch", "--jobs", jobs, "--out", str(taken)],
                 ["analyze", "--job", job, "--out", str(taken)]):
        assert main(argv) == 2, argv
        assert "output directory" in capsys.readouterr().err
    assert stub.calls == []


def test_report_that_cannot_be_written_exits_2(tmp_path, monkeypatch,
                                               capsys):
    # a report path that is a directory once failed after every job had
    # run, with an IsADirectoryError traceback and exit 1
    stub = RecordedCalls()
    monkeypatch.setattr(cli, "analyze_curve", stub)
    out = tmp_path / "out"
    (out / "ex1.json").mkdir(parents=True)
    (out / "summary.csv").mkdir()
    job = write_json(tmp_path / "job.json", dict(GOOD_JOB, id="ex1"))
    jobs = write_jobs(tmp_path / "jobs.jsonl", [dict(GOOD_JOB, id="ex2")])
    for argv, path in ((["analyze", "--job", job, "--out", str(out)],
                        out / "ex1.json"),
                       (["batch", "--jobs", jobs, "--out", str(out)],
                        out / "summary.csv")):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "cannot write %s" % path in err and "Traceback" not in err
    assert len(stub.calls) == 2


def test_analyze_checks_the_id_without_out(tmp_path, monkeypatch, capsys):
    stub = RecordedCalls()
    monkeypatch.setattr(cli, "analyze_curve", stub)
    job = write_json(tmp_path / "job.json", dict(GOOD_JOB, id="a/b"))
    assert main(["analyze", "--job", job]) == 2
    assert "not a plain file name" in capsys.readouterr().err
    # with no id the file name's stem is the id
    job = write_json(tmp_path / "ex9.json", GOOD_JOB)
    assert main(["analyze", "--job", job, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "ex9.json").exists()
    assert len(stub.calls) == 1


def test_parse_job_returns_the_analyze_arguments(curve_a):
    job_id, kwargs = cli.parse_job(
        {"curve": CURVE_A_JSON, "p": 11, "precision": 30,
         "known_points": [["-1", "1"], "infinity"], "base_point": ["-1", "1"],
         "search_height": 5}, "job007", p=7)
    assert job_id == "job007"
    assert kwargs.pop("curve").original == curve_a.original
    assert kwargs == {"p": 7, "prec": 30, "search_height": 5,
                      "knowns": [RationalPoint.affine(-1, 1),
                                 RationalPoint.infinity()],
                      "base_point": RationalPoint.affine(-1, 1)}
    # absent and null fields are left to analyze_curve's defaults
    job_id, kwargs = cli.parse_job({"id": 17, "curve": CURVE_A_JSON,
                                    "search_height": None}, "job001")
    assert job_id == "17" and "search_height" not in kwargs
    assert (kwargs["p"], kwargs["prec"], kwargs["knowns"]) == (None,) * 3


# each job with the pair of known points whose logarithms are independent
RANK2_JOBS = {
    "rank2-p7": (json.loads((DATA / "job_rank2.json").read_text("utf-8")),
                 "known points ['1', '3'] and ['0', '-1']"),
    "census-b-p7": ({
        "curve": {"coeffs": ["3", "-2", "4", "-4", "2", "-1", "1", "1"]},
        "p": 7, "known_points": ["infinity", ["-1", "-4"], ["-1", "4"],
                                 ["1", "-2"], ["1", "2"]]},
        "known points ['1', '2'] and ['-1', '-4']"),
    "census-c-p11": ({
        "curve": {"coeffs": ["-3", "3", "4", "-3", "-2", "4", "2", "-4"]},
        "p": 11, "known_points": ["infinity", ["-1", "-1"], ["-1", "1"],
                                  ["1", "-1"], ["1", "1"]]},
        "known points ['1', '1'] and ['-1', '-1']"),
}


@pytest.mark.parametrize("name", sorted(RANK2_JOBS))
def test_rank_two_exits_2(name, tmp_path, capsys):
    # each exited 4 with "known point ... was not recovered", which told
    # the user to rerun at a larger --N that could never help
    job, pair = RANK2_JOBS[name]
    assert main(["analyze", "--job", write_json(tmp_path / "j.json", job)]) == 2
    err = capsys.readouterr().err
    assert pair in err and "minor of valuation 2" in err
    assert "rank is at least 2" in err


# p = 7 is anomalous for both: #J(F_7) = 343 = 7^3, so the disk solve
# loses 3 of the N = 18 digits; base_log is known to O(7^15) and the
# annihilators to O(7^17).  The first is data/job_anomalous.json
ANOMALOUS_JOBS = {
    "anomalous-p7": json.loads(
        (DATA / "job_anomalous.json").read_text("utf-8")),
    "census-d-p7": {
        "curve": {"coeffs": ["3", "2", "-2", "-1", "-1", "0", "3", "1"]},
        "p": 7},
}


@pytest.mark.parametrize("N", [18, 40])
@pytest.mark.parametrize("name", sorted(ANOMALOUS_JOBS))
def test_anomalous_prime_proves(name, N, tmp_path, capsys):
    # each exited 4 with "coefficient of t^0 only known mod p^15 / ..
    # p^13" at both precisions: the isolation asked for prec - 2 digits
    # that no rerun could give
    job = write_json(tmp_path / "j.json", ANOMALOUS_JOBS[name])
    assert main(["analyze", "--job", job, "--N", str(N)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["jacobian_order"] == 343
    assert report["class_counts"] == {"known_rational": 3}


def _digits(expansion):
    """({exponent: digit}, precision) of an 'a*p^k + ... + O(p^n)'
    expansion; an exact one has precision None."""
    digits, prec = {}, None
    for term in expansion.split(" + "):
        if term.startswith("O("):
            prec = int(term[2:-1].split("^")[1]) if "^" in term else 1
        elif "*" in term:
            digit, power = term.split("*")
            exp = int(power.split("^")[1]) if "^" in power else 1
            digits[exp] = int(digit)
        elif term != "0":
            digits[0] = int(term)
    return digits, prec


def _agree(a, b):
    """Whether two digit expansions agree on every digit both know."""
    (da, pa), (db, pb) = _digits(a), _digits(b)
    if pa is None and pb is None:
        return da == db
    n = min(x for x in (pa, pb) if x is not None)
    return all(da.get(k, 0) == db.get(k, 0)
               for k in set(da) | set(db) if k < n)


@pytest.mark.parametrize("name", sorted(ANOMALOUS_JOBS))
def test_anomalous_digits_agree_with_a_higher_precision(name):
    """Every digit the N = 18 and N = 40 reports share agrees, in base_log,
    the annihilators and each disk's roots, so the digits the solve keeps
    at an anomalous prime are correct ones.  Roots are sorted by their
    digits, so each N = 18 root is matched to the one N = 40 root it
    agrees with."""
    low = cli.run_job(ANOMALOUS_JOBS[name], prec=18).data
    high = cli.run_job(ANOMALOUS_JOBS[name], prec=40).data
    assert low["class_counts"] == high["class_counts"]
    for key in ("alpha", "beta"):
        assert all(map(_agree, low["annihilators"][key],
                       high["annihilators"][key]))
    assert all(map(_agree, low["base_log"], high["base_log"]))
    assert len(low["disks"]) == len(high["disks"])
    for d_low, d_high in zip(low["disks"], high["disks"]):
        assert d_low["disk"] == d_high["disk"]
        for key in ("roots_alpha", "roots_beta"):
            if d_low[key] is None or d_high[key] is None:
                assert d_low[key] == d_high[key]
                continue
            assert len(d_low[key]) == len(d_high[key])
            for root in d_low[key]:
                assert sum(_agree(root, r) for r in d_high[key]) == 1, root


@pytest.mark.parametrize("job,lost", [("job_anomalous", 3), ("job_ex1", 0)])
def test_info_line_states_the_solve_loss(job, lost, capsys, caplog):
    # v_p(#J(F_p)) goes to -v logging and never into the report
    caplog.set_level(logging.INFO, logger="g3chabauty.pipeline")
    assert main(["-v", "analyze", "--job", str(DATA / (job + ".json"))]) == 0
    assert "loses" not in capsys.readouterr().out
    lines = [r.getMessage() for r in caplog.records
             if r.name == "g3chabauty.pipeline" and r.levelno == logging.INFO]
    assert len(lines) == 1
    assert lines[0].endswith("the disk solve loses v_p(|J(F_p)|)=%d digits"
                             % lost)


def test_curve_with_no_generic_disk_proves(capsys, caplog):
    # every affine point over F_7 has y = 0 (x = 5 only), so no residue
    # carries the identity audit's test point; the proof reads no
    # Frobenius matrix or primitive, and the skipped audit is logged
    job = str(DATA / "job_no_generic.json")
    caplog.set_level(logging.DEBUG, logger="g3chabauty.frobenius")
    assert main(["analyze", "--job", job]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class_counts"] == {"known_rational": 3, "weierstrass": 1}
    assert any("identity audit skipped" in r.getMessage()
               for r in caplog.records if r.name == "g3chabauty.frobenius")


def test_batch_rejects_duplicate_ids(tmp_path):
    jobs = write_jobs(tmp_path / "jobs.jsonl", [
        {"id": "x", "curve": CURVE_A_JSON, "p": 7},
        {"id": "x", "curve": CURVE_A_JSON, "p": 7},
    ])
    assert main(["batch", "--jobs", jobs, "--out", str(tmp_path / "o")]) == 2


def test_zeta_brute_check(tmp_path, capsys):
    curve = write_json(tmp_path / "c.json", CURVE_A_JSON)
    assert main(["zeta", "--curve", curve, "--p", "7", "--brute-check"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["brute_check"] == data["zeta_numerator"]
    assert data["curve_point_count"] == 10
    assert data["jacobian_order"] == sum(data["zeta_numerator"])
    assert data["zeta_numerator"][6] == 343


def test_zeta_brute_check_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    # a disagreement prints both numerators and exits 1
    curve = write_json(tmp_path / "c.json", CURVE_A_JSON)
    wrong = [1, 0, 0, 0, 0, 0, 343]
    monkeypatch.setattr(cli, "brute_zeta_numerator", lambda f, p: wrong)
    assert main(["zeta", "--curve", curve, "--p", "7", "--brute-check"]) == 1
    out = capsys.readouterr()
    data = json.loads(out.out)
    assert data["brute_check"] == wrong
    assert data["zeta_numerator"] != wrong
    assert data["zeta_numerator"][6] == 343
    assert "zeta mismatch against brute-force counts" in out.err


def test_zeta_on_a_bare_list_curve_exits_2(tmp_path, monkeypatch, capsys):
    # a --curve file is an object like data/curve_a.json, not its coeffs
    calls = []
    monkeypatch.setattr(cli, "zeta_numerator", lambda *a: calls.append(a))
    curve = write_json(tmp_path / "c.json", CURVE_A_JSON["coeffs"])
    assert main(["zeta", "--curve", curve, "--p", "7"]) == 2
    assert capsys.readouterr().err == ('error: curve JSON must be an object '
                                       '{"coeffs": [...], "scaling": [...]?}\n')
    assert calls == []


def test_batch_of_blank_lines_exits_2(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text("\n  \n\t\n", encoding="utf-8")
    assert main(["batch", "--jobs", str(jobs), "--out",
                 str(tmp_path / "o")]) == 2
    assert "no jobs in %s" % jobs in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_zeta_brute_check_over_the_cost_cap_exits_2(tmp_path, monkeypatch,
                                                    capsys):
    # the brute-force count grows like p^3: its cost model admits p = 199
    # and not p = 211, and p = 293 still gets its zeta without the check
    curve = write_json(tmp_path / "c.json", CURVE_A_JSON)
    calls = []

    def stub(name):
        def count(c, p):
            calls.append((name, p))
            return [1, 0, 0, 0, 0, 0, p ** 3]
        return count
    monkeypatch.setattr(cli, "zeta_numerator", stub("zeta"))
    monkeypatch.setattr(cli, "brute_zeta_numerator", stub("brute"))
    for p in (211, 293):
        assert main(["zeta", "--curve", curve, "--p", str(p),
                     "--brute-check"]) == 2
        assert "over the budget of 600 s" in capsys.readouterr().err
    assert calls == []
    assert main(["zeta", "--curve", curve, "--p", "199",
                 "--brute-check"]) == 0
    assert main(["zeta", "--curve", curve, "--p", "293"]) == 0
    assert calls == [("zeta", 199), ("brute", 199), ("zeta", 293)]


def test_search_points(tmp_path, capsys):
    curve = write_json(tmp_path / "c.json", CURVE_B_JSON)
    assert main(["search-points", "--curve", curve, "--height", "100"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["points"] == [["0", "-1"], ["0", "1"], ["1", "-1"],
                              ["1", "1"], "infinity"]
    assert main(["search-points", "--curve", curve, "--height", "-3"]) == 2
    assert "search height" in capsys.readouterr().err


def test_integrate_matches_library(curve_a, tmp_path, capsys):
    curve = write_json(tmp_path / "c.json", CURVE_A_JSON)
    argv = ["integrate", "--curve", curve, "--p", "7", "--from=-1,-1",
            "--to=1,5"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    ctx = ColemanContext(curve_a, 7, 18)
    pts = [curve_a.padic_point(RationalPoint.affine(*xy), 7, 18)
           for xy in ((-1, -1), (1, 5))]
    vals = ctx.integral_holomorphic(*pts)
    assert data["integrals"] == {"w%d" % i: v.expansion_str()
                                 for i, v in enumerate(vals)}
    # every run prints all three integrals, so there is no --form to pick one
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--form", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("ends", [
    (RationalPoint.affine(-1, -1), RationalPoint.affine(1, 5)),
    (RationalPoint.infinity(), RationalPoint.affine(1, -5))])
def test_integrate_folds_h_at_the_audit_and_endpoint_disks(
        curve_a, ends, tmp_path, capsys, monkeypatch):
    """integrate reads h only at its endpoints' generic disks, so its
    Frobenius run folds h there and at the audit disk alone, as the zeta
    folds it at the audit disk alone, and prints the integrals of a run
    that folds every generic disk."""
    folded = []
    real = frobenius._Horner

    class Horner(real):
        def __init__(self, f, points, m):
            folded.append(sorted((x % 7, y % 7) for x, y in points))
            super().__init__(f, points, m)

    monkeypatch.setattr(frobenius, "_Horner", Horner)
    curve = write_json(tmp_path / "c.json", CURVE_A_JSON)
    args = ["--%s=%s" % (opt, ",".join(pt.coord_strings())
                         if not pt.is_infinity else "infinity")
            for opt, pt in zip(("from", "to"), ends)]
    assert main(["integrate", "--curve", curve, "--p", "7"] + args) == 0
    data = json.loads(capsys.readouterr().out)
    pts = [curve_a.padic_point(pt, 7, 18) for pt in ends]
    disks = [curve_a.reduce_curve_point(pt, 7).canonical(7) for pt in pts]
    generic = frobenius._generic_disks(curve_a.fp_points(7), 7)
    want = sorted({(d.x, d.y) for d in [generic[0]] + disks
                   if not d.is_infinity and d.y})
    assert folded == [want] and len(want) < len(generic)
    full = ColemanContext(curve_a, 7, 18).integral_holomorphic(*pts)
    assert data["integrals"] == {"w%d" % i: v.expansion_str()
                                 for i, v in enumerate(full)}


def test_integrate_rejects_off_curve(tmp_path, capsys):
    # each endpoint is named by its option, not as a known point
    curve = write_json(tmp_path / "c.json", CURVE_A_JSON)
    assert main(["integrate", "--curve", curve, "--p", "7",
                 "--from=1,1", "--to=infinity"]) == 2
    assert capsys.readouterr().err == \
        "error: --from point ['1', '1'] is not on the curve\n"
    assert main(["integrate", "--curve", curve, "--p", "7",
                 "--from=infinity", "--to=2,3"]) == 2
    assert capsys.readouterr().err == \
        "error: --to point ['2', '3'] is not on the curve\n"


@pytest.mark.parametrize("spelling", ["inf", "oo"])
def test_integrate_takes_infinity_only_spelled_out(spelling, tmp_path,
                                                   monkeypatch, capsys):
    # --from and --to take 'infinity' or x,y, as their help text says
    calls = []
    monkeypatch.setattr(cli, "ColemanContext", lambda *a: calls.append(a))
    curve = write_json(tmp_path / "c.json", CURVE_A_JSON)
    assert main(["integrate", "--curve", curve, "--p", "7",
                 "--from", spelling, "--to=-1,-1"]) == 2
    assert capsys.readouterr().err == \
        "error: --from point must be 'infinity' or [x, y]\n"
    assert calls == []


def test_exit_code_input(job_a):
    assert main(["analyze", "--job", job_a, "--p", "9"]) == 2


def test_exit_code_bad_reduction(tmp_path):
    job = write_json(tmp_path / "job.json",
                     {"curve": BAD_AT_7_JSON, "p": 7})
    assert main(["analyze", "--job", job]) == 3


def test_exit_code_precision(job_a):
    # the working window is too small to separate anything
    assert main(["analyze", "--job", job_a, "--N", "4"]) == 4


EXAMPLE_JOBS = (DATA / "example_jobs.jsonl").read_text("utf-8").splitlines()


def test_exit_code_recognition(tmp_path):
    # enough precision to isolate zeros, too little to recognize them: the
    # zeros of curve B at p = 7 have quadratic x (min poly x^2 - x + 1), and
    # the lattice search on x needs N = 9
    job = write_json(tmp_path / "job.json", EXAMPLE_JOBS[1])
    assert main(["analyze", "--job", job, "--N", "6"]) == 5


# Jobs whose zeros off the known points all have rational x, so y comes
# from the curve equation and the proof finishes as soon as isolation
# does.  Each exited 5 at these N while y was reconstructed separately.
RATIONAL_X_JOBS = {
    "A7": (json.loads((DATA / "job_ex1.json").read_text("utf-8")),
           {"known_rational": 5, "torsion": 2, "weierstrass": 3}),
    "C11": (json.loads(EXAMPLE_JOBS[2]),
            {"known_rational": 4, "other_algebraic": 2, "weierstrass": 2}),
    # y^2 = x^7 - x^4 + x: the zeros (-1, +-sqrt(-3))
    "x7-x4+x-p7": ({"curve": {"coeffs": [0, 1, 0, 0, -1, 0, 0, 1]}, "p": 7},
                   {"known_rational": 4, "other_algebraic": 2}),
}


@pytest.mark.parametrize("name,N", [("A7", 5), ("A7", 6), ("A7", 8),
                                    ("C11", 6), ("C11", 8), ("C11", 12),
                                    ("x7-x4+x-p7", 6)])
def test_rational_x_proves_at_low_precision(name, N, tmp_path, capsys):
    job, counts = RATIONAL_X_JOBS[name]
    path = write_json(tmp_path / "job.json", job)
    assert main(["analyze", "--job", path, "--N", str(N)]) == 0
    assert json.loads(capsys.readouterr().out)["class_counts"] == counts


def test_rejects_malformed_job(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["analyze", "--job", str(path)]) == 2
    assert main(["analyze", "--job", str(tmp_path / "missing.json")]) == 2
    scaled = {"coeffs": CURVE_B_JSON["coeffs"], "scaling": ["1"]}
    for bad in ({"curve": scaled, "p": 7},
                {"curve": CURVE_A_JSON, "p": "7"},
                {"curve": CURVE_A_JSON, "p": 7.0},
                {"curve": CURVE_A_JSON, "p": 7, "search_height": "x"},
                {"curve": CURVE_A_JSON, "p": 7, "precision": "x"},
                {"curve": CURVE_A_JSON, "p": 7, "precision": -3},
                {"curve": CURVE_A_JSON, "p": 7, "precision": 0},
                {"curve": CURVE_A_JSON, "p": 7, "search_height": -1},
                {"curve": CURVE_A_JSON, "p": 7, "known_points": [["a", "b"]]},
                {"curve": CURVE_A_JSON, "p": 7, "known_points": 5},
                {"curve": CURVE_A_JSON, "p": 7, "known_points": [None]},
                {"curve": CURVE_A_JSON, "p": 7, "base_point": ["1/0", "2"]},
                # misspelt keys must not fall back to defaults
                {"curve": CURVE_A_JSON, "p": 7, "prec": 30},
                {"curve": dict(CURVE_A_JSON, scale=["1", "1"]), "p": 7}):
        job = write_json(tmp_path / "bad.json", bad)
        assert main(["analyze", "--job", job]) == 2, bad
    err = capsys.readouterr().err
    assert "unknown job key 'prec'" in err
    assert "unknown curve key 'scale'" in err
    job = write_json(tmp_path / "job.json", {"curve": CURVE_A_JSON, "p": 7})
    for n in ("-3", "0"):
        assert main(["analyze", "--job", job, "--N", n]) == 2
    curve = write_json(tmp_path / "curve.json", CURVE_A_JSON)
    for n in ("-3", "0"):
        assert main(["integrate", "--curve", curve, "--p", "7", "--N", n,
                     "--from", "infinity", "--to=-1,-1"]) == 2
    capsys.readouterr()


def test_job_ids_stay_inside_out(tmp_path):
    out = tmp_path / "nest" / "out"
    out.mkdir(parents=True)
    for job_id in ("../escaped", "", ".", "..", "a/b", "a\\b"):
        job = {"id": job_id, "curve": CURVE_A_JSON, "p": 7}
        jobs = write_jobs(tmp_path / "jobs.jsonl", [job])
        assert main(["batch", "--jobs", jobs, "--out", str(out)]) == 2
        single = write_json(tmp_path / "job.json", job)
        assert main(["analyze", "--job", single, "--out", str(out)]) == 2
    written = {q.relative_to(tmp_path).as_posix()
               for q in tmp_path.rglob("*")}
    assert written == {"nest", "nest/out", "jobs.jsonl", "job.json"}


def test_job_id_with_nul_exits_2_before_any_work(tmp_path, monkeypatch,
                                                 capsys):
    calls = []

    def analyze_curve(*args, **kwargs):
        calls.append(kwargs)
        raise RuntimeError("a job ran")

    monkeypatch.setattr(cli, "analyze_curve", analyze_curve)
    job = {"id": "ex\x001", "curve": CURVE_A_JSON, "p": 7}
    jobs = write_jobs(tmp_path / "jobs.jsonl", [job])
    single = write_json(tmp_path / "job.json", job)
    for argv in (["batch", "--jobs", jobs, "--out", str(tmp_path / "o")],
                 ["batch", "--jobs", jobs, "--parallel", "2",
                  "--out", str(tmp_path / "o")],
                 ["analyze", "--job", single, "--out", str(tmp_path / "o")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "not a plain file name" in err and "Traceback" not in err
    assert calls == []


@pytest.mark.parametrize("job_id", ["x" * 300, "\u00e9" * 126, "ex\ud8001"],
                         ids=["300-ascii", "126-two-byte", "lone-surrogate"])
def test_job_id_that_cannot_name_a_file_exits_2_before_any_work(
        job_id, tmp_path, monkeypatch, capsys):
    # "x" * 300 once ran its job, then batch died writing <id>.json with
    # errno 36 (name too long) and left no summary.csv
    calls = []

    def analyze_curve(*args, **kwargs):
        calls.append(kwargs)
        raise RuntimeError("a job ran")

    monkeypatch.setattr(cli, "analyze_curve", analyze_curve)
    job = {"id": job_id, "curve": CURVE_A_JSON, "p": 7}
    jobs = write_jobs(tmp_path / "jobs.jsonl", [job])
    single = write_json(tmp_path / "job.json", job)
    for argv in (["batch", "--jobs", jobs, "--out", str(tmp_path / "o")],
                 ["batch", "--jobs", jobs, "--parallel", "2",
                  "--out", str(tmp_path / "o")],
                 ["analyze", "--job", single, "--out", str(tmp_path / "o")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "job id" in err and "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "o").exists()


def test_job_id_length_limit_is_the_file_name_limit(tmp_path):
    # 250 and 125 two-byte characters leave <id>.json at exactly 255 bytes
    for ok, over in (("x" * 250, "x" * 251),
                     ("\u00e9" * 125, "\u00e9" * 125 + "x")):
        assert cli._check_job_id(ok) == ok
        (tmp_path / (ok + ".json")).write_text("{}\n", encoding="utf-8")
        with pytest.raises(G3Error, match="256-byte file name"):
            cli._check_job_id(over)


def test_prime_above_cap_exits_2():
    # at 10^9 + 7 zeta once died of a MemoryError and analyze never ended;
    # each runs in its own interpreter so a regression cannot stall the suite
    for argv in (["zeta", "--curve", str(DATA / "curve_b.json"),
                  "--p", "1000000007"],
                 ["analyze", "--job", str(DATA / "job_ex1.json"),
                  "--p", "1000000007"]):
        run = subprocess.run([sys.executable, "-m", "g3chabauty.cli"] + argv,
                             capture_output=True, text=True, timeout=120,
                             env=SRC_ENV)
        assert run.returncode == 2, (argv, run.stderr)
        assert "above the cap" in run.stderr
        assert "Traceback" not in run.stderr


def test_out_must_be_a_directory(tmp_path, monkeypatch, capsys):
    # an existing file as --out fails as malformed input before any job runs
    calls = []

    def analyze_curve(*args, **kwargs):
        calls.append(kwargs)
        raise RuntimeError("a job ran")

    monkeypatch.setattr(cli, "analyze_curve", analyze_curve)
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    jobs = write_jobs(tmp_path / "jobs.jsonl",
                      [{"id": "ex1", "curve": CURVE_A_JSON, "p": 7}])
    job = write_json(tmp_path / "job.json", {"curve": CURVE_A_JSON, "p": 7})
    for argv in (["batch", "--jobs", jobs, "--out", str(taken)],
                 ["batch", "--jobs", jobs, "--parallel", "2",
                  "--out", str(taken / "sub")],
                 ["analyze", "--job", job, "--out", str(taken)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "output directory" in err and "Traceback" not in err
    assert calls == []
    assert taken.read_text(encoding="utf-8") == "keep\n"


# -- fuzzing run_job with mutated job dicts -------------------------------------

class _ReachedFrobenius(Exception):
    """Stands in for the Frobenius set-up: the job passed every check."""


def _no_frobenius(*args, **kwargs):
    raise _ReachedFrobenius()


SEED_JOBS = [json.loads(line) for line in (DATA / "example_jobs.jsonl")
             .read_text(encoding="utf-8").splitlines()]

_atoms = (st.none() | st.booleans() | st.integers(-12, 14)
          | st.floats(-8, 8, allow_nan=False)
          | st.sampled_from([float("nan"), float("inf"), "", "x", "7", "1/0",
                             "-1/2", "infinity", "0", "1", "-5", "4.5"]))
_values = st.recursive(
    _atoms,
    lambda inner: (st.lists(inner, max_size=9)
                   | st.dictionaries(st.sampled_from(["coeffs", "scaling",
                                                      "x", "p"]),
                                     inner, max_size=3)),
    max_leaves=12)
_keys = st.sampled_from(list(cli.JOB_KEYS) + ["prec", "N", "height"])


@st.composite
def mutated_jobs(draw):
    job = json.loads(json.dumps(draw(st.sampled_from(SEED_JOBS))))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "set", "curve", "point"]))
        if op == "drop" and job:
            job.pop(draw(st.sampled_from(sorted(job))))
        elif op == "set":
            key = draw(_keys)
            small = key in ("p", "precision", "search_height")
            job[key] = draw(st.integers(-3, 30) | _values if small
                            else _values)
        elif op == "curve" and isinstance(job.get("curve"), dict):
            curve = job["curve"]
            field = draw(st.sampled_from(["coeffs", "scaling", "extra"]))
            seq = curve.get(field)
            if isinstance(seq, list) and seq and draw(st.booleans()):
                seq[draw(st.integers(0, len(seq) - 1))] = draw(_values)
            else:
                curve[field] = draw(_values)
        elif op == "point" and isinstance(job.get("known_points"), list):
            pts = job["known_points"]
            pts[draw(st.integers(0, len(pts) - 1))] = draw(_values)
    if "search_height" not in job:
        job["search_height"] = draw(st.integers(0, 30))
    return job


@settings(derandomize=True, max_examples=300, deadline=None)
@given(job=mutated_jobs())
def test_run_job_fuzz_raises_only_library_errors(job):
    # no Frobenius work runs: the context is replaced by a sentinel raiser
    with mock.patch.object(pipeline, "ColemanContext", _no_frobenius):
        try:
            cli.run_job(job)
        except (G3Error, _ReachedFrobenius):
            pass


# -- fuzzing main with mutated job files -----------------------------------------

_junk_lines = st.sampled_from(["{not json", "[]", "null", "7", '"job"'])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(jobs=st.lists(mutated_jobs(), min_size=1, max_size=3),
       junk=st.none() | _junk_lines,
       overrides=st.lists(st.sampled_from(["--p", "--N"]), max_size=2,
                          unique=True),
       value=st.integers(-2, 12))
def test_main_fuzz_rejects_malformed_files_before_any_call(jobs, junk,
                                                           overrides, value):
    # analyze_curve is stubbed, so a job that passes validation succeeds:
    # the only exit codes are 0 and 2, and 2 means no analysis was called
    stub = RecordedCalls()
    lines = [json.dumps(j) for j in jobs] + ([junk] if junk else [])
    argv_extra = [a for opt in overrides for a in (opt, str(value))]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "analyze_curve", stub), \
            redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()) as err:
        tmp = pathlib.Path(tmp)
        single = tmp / "job.json"
        single.write_text(lines[-1] + "\n", encoding="utf-8")
        code = main(["analyze", "--job", str(single)] + argv_extra)
        assert code in (0, 2)
        assert len(stub.calls) == (code == 0)
        stub.calls.clear()

        batch = tmp / "jobs.jsonl"
        batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp / "out"
        code = main(["batch", "--jobs", str(batch), "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert stub.calls == [] and not out.exists()
        else:
            assert len(stub.calls) == len(lines)
            assert (out / "summary.csv").exists()
    text = err.getvalue()
    assert "Traceback" not in text
    assert all(line.startswith("error: ") for line in text.splitlines())
