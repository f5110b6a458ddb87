"""Command line behaviour: plumbing, exit codes, batch isolation.

Heavy math lives behind analyze/batch and is pinned by test_pipeline; here
the assertions are that the CLI reproduces library results byte for byte,
that error classes land on their documented exit codes, and that a failing
batch job cannot disturb its siblings.
"""

import json

import pytest

from g3chabauty import cli
from g3chabauty.cli import main
from g3chabauty.coleman import ColemanContext
from g3chabauty.curve import RationalPoint
from g3chabauty.localdisk import curve_point_from_rational
from g3chabauty.pipeline import analyze_curve

from conftest import CURVE_A_COEFFS, CURVE_B_COEFFS, CURVE_B_SCALING

CURVE_A_JSON = {"coeffs": [str(c) for c in CURVE_A_COEFFS]}
CURVE_B_JSON = {"coeffs": [str(c) for c in CURVE_B_COEFFS],
                "scaling": CURVE_B_SCALING}
# x^7 + 2 is a 7th power mod 7
BAD_AT_7_JSON = {"coeffs": ["16", "7", "7", "0", "0", "0", "0", "1"]}


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def write_jobs(path, jobs):
    path.write_text("".join(json.dumps(j) + "\n" for j in jobs),
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


def test_batch_parallel_checked_and_capped(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(RecordingPool, "sizes", [], raising=False)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    # each job fails its field check at once, before any analysis
    bad = {"curve": CURVE_A_JSON, "p": 7, "known_points": 5}
    jobs = write_jobs(tmp_path / "jobs.jsonl",
                      [dict(bad, id=n) for n in ("j1", "j2", "j3")])
    one = write_jobs(tmp_path / "one.jsonl", [dict(bad, id="j1")])
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
    assert main(["integrate", "--curve", curve, "--p", "7", "--form", "1",
                 "--from=-1,-1", "--to=1,5"]) == 0
    data = json.loads(capsys.readouterr().out)
    ctx = ColemanContext(curve_a, 7, 18)
    pts = [curve_point_from_rational(
        curve_a, curve_a.to_monic(RationalPoint.affine(*xy)), 7, 18)
        for xy in ((-1, -1), (1, 5))]
    vals = ctx.integral_holomorphic(*pts)
    assert data["integrals"] == {"w1": vals[1].expansion_str()}


def test_integrate_rejects_off_curve(tmp_path, capsys):
    curve = write_json(tmp_path / "c.json", CURVE_A_JSON)
    assert main(["integrate", "--curve", curve, "--p", "7",
                 "--from=1,1", "--to=infinity"]) == 2


def test_exit_code_input(job_a):
    assert main(["analyze", "--job", job_a, "--p", "9"]) == 2


def test_exit_code_bad_reduction(tmp_path):
    job = write_json(tmp_path / "job.json",
                     {"curve": BAD_AT_7_JSON, "p": 7})
    assert main(["analyze", "--job", job]) == 3


def test_exit_code_precision(job_a):
    # the working window is too small to separate anything
    assert main(["analyze", "--job", job_a, "--N", "4"]) == 4


def test_exit_code_recognition(job_a):
    # enough precision to isolate zeros, too little to recognize them
    assert main(["analyze", "--job", job_a, "--N", "6"]) == 5


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
                {"curve": CURVE_A_JSON, "p": 7, "base_point": ["1/0", "2"]}):
        job = write_json(tmp_path / "bad.json", bad)
        assert main(["analyze", "--job", job]) == 2, bad
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
