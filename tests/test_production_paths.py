"""Every function under src/g3chabauty/ runs on a production path.

The CLI commands that CI runs, each job in data/job_*.json, the example
batch, a brute-checked zeta, a point search and an integral, run here in
process under sys.setprofile, with two more jobs for the branches those
leave out: a job with no prime, which chooses one, and one that knows a
single rational point, so the others come out as new rational zeros.  A
function that none of them enters is surface that no proof runs: the test
fails and names it, unless ALLOWED names it with the reason it stays.
"""

import ast
import json
import os
import pathlib
import sys

import g3chabauty
from g3chabauty.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
PACKAGE = pathlib.Path(g3chabauty.__file__).resolve().parent

ALLOWED = {
    "padic.py:PadicNumber.__repr__": "debugging aid, no report prints it",
    "curve.py:CurvePoint.__repr__": "debugging aid, no report prints it",
    "jacobian.py:MumfordDivisorFp.__repr__":
        "debugging aid, no report prints it",
    "padic.py:PadicNumber.__rtruediv__":
        "1 / x for a zero in the infinity disk whose x no rational matches; "
        "no data job has a quadratic x there",
    "padic.py:PadicNumber.__eq__":
        "refuses ==, so no caller may compare p-adic values that way",
    "cli.py:run_job": "the benchmark's entry point (perfbench/run.py)",
}


def _functions():
    """{(file, first line of its code object): 'file:qualname'} of every
    def in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        _collect(ast.parse(path.read_text(encoding="utf-8")), path, "", found)
    return found


def _collect(node, path, prefix, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            name = prefix + child.name
            # a decorated def's code object starts at its first decorator
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            found[(str(path), first)] = "%s:%s" % (path.name, name)
            _collect(child, path, name + ".<locals>.", found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, path, prefix + child.name + ".", found)
        else:
            _collect(child, path, prefix, found)


def _commands(tmp):
    """(argv, exit code) of each command; job files go under tmp."""
    def job(name, obj):
        path = tmp / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def load(name):
        return json.loads((DATA / name).read_text(encoding="utf-8"))

    curve_a = load("curve_a.json")
    commands = [(["analyze", "--job", str(DATA / name)],
                 2 if name == "job_rank2.json" else 0)
                for name in ("job_anomalous.json", "job_ex1.json",
                             "job_no_generic.json",
                             "job_other_algebraic.json", "job_rank2.json")]
    commands += [
        (["batch", "--jobs", str(DATA / "example_jobs.jsonl"),
          "--parallel", "1", "--out", str(tmp / "out")], 0),
        (["zeta", "--curve", job("anomalous.json",
                                 load("job_anomalous.json")["curve"]),
          "--p", "7", "--brute-check"], 0),
        (["search-points", "--curve", str(DATA / "curve_c.json"),
          "--height", "1000"], 0),
        (["integrate", "--curve", str(DATA / "curve_a.json"), "--p", "7",
          "--from=-1,-1", "--to", "1,5"], 0),
        (["analyze", "--job", job("choose_prime.json",
                                  {"curve": curve_a, "precision": 10})], 0),
        (["analyze", "--job", job("new_rational.json",
                                  {"curve": curve_a, "p": 7,
                                   "known_points": [["-1", "-1"]]})], 0),
    ]
    return commands


def test_every_function_runs_on_a_production_path(tmp_path, capsys):
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    exits = []
    sys.setprofile(hook)
    try:
        for argv, want in _commands(tmp_path):
            exits.append((argv[0], main(argv), want))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert all(got == want for _, got, want in exits), exits

    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno)
               for c in codes}
    functions = _functions()
    unreached = {name for key, name in functions.items()
                 if key not in entered}
    never = sorted(unreached - set(ALLOWED))
    assert not never, "no production command enters: " + ", ".join(never)
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, ("allowed, but entered or gone: " + ", ".join(stale))
