"""Command line front end.

Subcommands: analyze (one job), batch (JSON-lines of jobs, optional worker
pool, per-job reports plus a summary CSV), zeta (numerator of the local
zeta function, optionally cross-checked by brute-force counting),
search-points (rational point search on the original model), integrate
(basis integrals between two rational points).

Every job passes parse_job before any work: analyze checks the id even
without --out, and one malformed line in a batch exits 2 before any job
runs.  Exit codes, each the exit_code of its error class: 0 success, 1
internal failure, 2 malformed input (rank at least 2 included), 3 bad
reduction at the requested prime, 4 precision or multiple-zero
obstruction (rerun with a larger --N), 5 a zero resisted exact
recognition.  A batch run exits 0 only when every job succeeded;
jobs that fail during analysis are isolated and reported in the summary.
"""

import argparse
import csv
import io
import json
import logging
import os
import sys
from pathlib import Path

from ._kernels import brute_zeta_numerator
from .coleman import ColemanContext
from .curve import (COST_CAP_S, NUMBER_DIGITS_CAP, CurveModel, RationalPoint,
                    estimated_brute_seconds)
from .errors import G3Error, InputError
from .frobenius import zeta_numerator
from .pipeline import analyze_curve, check_inputs, default_precision

log = logging.getLogger(__name__)


def _json_int(text):
    """A JSON integer literal as an int, or as its text when it is over
    NUMBER_DIGITS_CAP: the check of its field then rejects it by name, and
    no int is built past the cap (int() refuses over 4300 digits)."""
    return int(text) if len(text) <= NUMBER_DIGITS_CAP else text


def _parse_json(text, where):
    """The JSON value of text.  A number with a fraction or an exponent
    stays its literal, for curve.parse_number to read exactly: a float
    would round it (8.000000000000000001 to 8, 1e-400 to 0)."""
    try:
        return json.loads(text, parse_int=_json_int, parse_float=str)
    except (ValueError, RecursionError) as exc:
        raise InputError("bad JSON in %s: %s" % (where, exc)) from None


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    return _parse_json(text, path)


def _load_curve_file(path):
    return CurveModel.from_json(_load_json(path))


def _parse_point(text, what):
    """'infinity' or 'x,y' with exact fractions, e.g. '1/2,-3/8'."""
    s = text.strip()
    return RationalPoint.from_json(
        "infinity" if s in ("infinity", "inf", "oo") else s.split(","), what)


# bytes in one file name on common file systems (ext4, XFS, APFS, tmpfs)
NAME_MAX = 255


def _check_job_id(job_id):
    """Job ids name report files <id>.json, so they must stay inside the
    out dir, hold no NUL byte, which no file name can, and encode to a file
    name of at most NAME_MAX bytes."""
    if (job_id in ("", ".", "..") or "/" in job_id or "\\" in job_id
            or "\x00" in job_id):
        raise InputError("job id %r is not a plain file name" % job_id)
    try:
        size = len(os.fsencode(job_id + ".json"))
    except UnicodeEncodeError:
        raise InputError("job id %r cannot be encoded as a file name"
                         % job_id) from None
    if size > NAME_MAX:
        raise InputError("job id %r... makes a %d-byte file name, over the "
                         "%d-byte limit" % (job_id[:40], size, NAME_MAX))
    return job_id


JOB_KEYS = ("id", "curve", "p", "precision", "search_height",
            "known_points", "base_point")


def parse_job(job, default_id, p=None, prec=None):
    """(id, analyze_curve kwargs) of a job object that passes every check
    needing no analysis; p and prec, when given, win over the job's own."""
    if not isinstance(job, dict):
        raise InputError("job must be a JSON object")
    for key in job:
        if key not in JOB_KEYS:
            raise InputError("unknown job key %r (expected one of %s)"
                             % (key, ", ".join(JOB_KEYS)))
    job_id = job.get("id")
    job_id = _check_job_id(default_id if job_id is None else str(job_id))
    for key in ("p", "precision", "search_height"):
        if job.get(key) is not None and type(job[key]) is not int:
            raise InputError("job field %r must be an integer, got %.60r"
                             % (key, job[key]))
    if "curve" not in job:
        raise InputError("job needs a 'curve' entry")
    knowns = job.get("known_points")
    if knowns is not None:
        if not isinstance(knowns, list):
            raise InputError("job field 'known_points' must be a list")
        knowns = [RationalPoint.from_json(k, "known point") for k in knowns]
    base = job.get("base_point")
    if base is not None:
        base = RationalPoint.from_json(base, "base point")
    kwargs = {"curve": CurveModel.from_json(job["curve"]), "knowns": knowns,
              "base_point": base, "p": job.get("p") if p is None else p,
              "prec": job.get("precision") if prec is None else prec}
    if job.get("search_height") is not None:
        kwargs["search_height"] = job["search_height"]
    check_inputs(**kwargs)
    return job_id, kwargs


def run_job(job, p=None, prec=None):
    """Analysis report for one job dict; CLI overrides win over job keys."""
    return analyze_curve(**parse_job(job, "job", p, prec)[1])


def _out_dir(path):
    """The output directory, created before any job runs, so a path that
    cannot be a directory fails as malformed input, not after the work."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError("cannot use %s as the output directory: %s"
                         % (path, exc)) from None
    return out


def cmd_analyze(args):
    job_id, kwargs = parse_job(_load_json(args.job), Path(args.job).stem,
                               args.p, args.N)
    if args.out:
        out = _out_dir(args.out)
    report = analyze_curve(**kwargs)
    if not args.out:
        print(report.to_json())
        return 0
    path = out / (job_id + ".json")
    path.write_text(report.to_json() + "\n", encoding="utf-8")
    print(path)
    return 0


# -- batch --------------------------------------------------------------------

CSV_FIELDS = ["id", "status", "error", "prime", "zeros", "known_rational",
              "new_rational", "torsion", "other_algebraic", "weierstrass"]


def _load_jobs(path):
    jobs = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for k, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                job = _parse_json(line, "line %d of %s" % (k, path))
                try:
                    jobs.append(parse_job(job, "job%03d" % k))
                except InputError as exc:
                    raise InputError("line %d of %s: %s"
                                     % (k, path, exc)) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    if not jobs:
        raise InputError("no jobs in %s" % path)
    ids = [job_id for job_id, _ in jobs]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate job ids in %s" % path)
    return jobs


def _run_one(job):
    """Worker body: never raises, so one bad job cannot take down the pool."""
    row = {f: "" for f in CSV_FIELDS}
    row["id"], kwargs = job
    try:
        report = analyze_curve(**kwargs)
    except Exception as exc:
        row["status"] = "error"
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
        return row, None
    row["status"] = "ok"
    row["prime"] = report["prime"]
    row["zeros"] = len(report.zeros)
    counts = report["class_counts"]
    for cls in CSV_FIELDS[5:]:
        row[cls] = counts.get(cls, 0)
    return row, report.to_json()


def cmd_batch(args):
    if args.parallel < 1:
        raise InputError("--parallel must be at least 1, got %d"
                         % args.parallel)
    jobs = _load_jobs(args.jobs)
    out = _out_dir(args.out)
    # the pool starts all its workers at once, so it gets no more than
    # one per job and one per CPU
    workers = min(args.parallel, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # largest p first, so no slow job starts behind a fast one while a
        # worker idles; a job that chooses its own p sorts last
        jobs = sorted(jobs, key=lambda job: -(job[1]["p"] or 0))
        # imported here: the per-curve commands never load the pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(job) for job in jobs]

    worst = 0
    rows = []
    for row, report_json in results:
        rows.append(row)
        if report_json is not None:
            (out / (row["id"] + ".json")).write_text(report_json + "\n",
                                                     encoding="utf-8")
        else:
            log.warning("job %s failed: %s", row["id"], row["error"])
            worst = max(worst, 1)
    rows.sort(key=lambda r: r["id"])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    (out / "summary.csv").write_text(buf.getvalue(), encoding="utf-8")
    print(out / "summary.csv")
    return worst


# -- small tools ----------------------------------------------------------------

def cmd_zeta(args):
    curve = _load_curve_file(args.curve)
    curve.check_prime(args.p)
    cost = estimated_brute_seconds(args.p)
    if args.brute_check and cost > COST_CAP_S:
        raise InputError("the brute-force check at p = %d is estimated at "
                         "%.0f s, over the budget of %d s"
                         % (args.p, cost, COST_CAP_S))
    coeffs = zeta_numerator(curve, args.p)
    result = {
        "prime": args.p,
        "zeta_numerator": coeffs,
        "curve_point_count": args.p + 1 + coeffs[1],
        "jacobian_order": sum(coeffs),
    }
    if args.brute_check:
        brute = brute_zeta_numerator(curve.f_coeffs_mod(args.p, 1), args.p)
        result["brute_check"] = brute
        if brute != coeffs:
            print(json.dumps(result, indent=2, sort_keys=True))
            print("zeta mismatch against brute-force counts", file=sys.stderr)
            return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_search_points(args):
    curve = _load_curve_file(args.curve)
    check_inputs(curve, search_height=args.height)
    pts = curve.search_rational_points(args.height)
    print(json.dumps({
        "height": args.height,
        "points": [pt.coord_strings() for pt in pts],
    }, indent=2, sort_keys=True))
    return 0


def cmd_integrate(args):
    curve = _load_curve_file(args.curve)
    src = _parse_point(getattr(args, "from"), "--from point")
    dst = _parse_point(args.to, "--to point")
    p = args.p
    check_inputs(curve, p=p, prec=args.N)
    for pt, what in ((src, "--from point"), (dst, "--to point")):
        if not curve.is_on_curve_original(pt):
            raise InputError("%s %s is not on the curve"
                             % (what, pt.coord_strings()))
    prec = default_precision(p) if args.N is None else args.N
    ends = [curve.padic_point(pt, p, prec) for pt in (src, dst)]
    # h is read at the endpoints' disks alone, so it is folded only there
    ctx = ColemanContext(curve, p, prec,
                         [curve.reduce_curve_point(pt, p) for pt in ends])
    vals = ctx.integral_holomorphic(*ends)
    wanted = range(3) if args.form == "all" else [int(args.form)]
    print(json.dumps({
        "prime": p,
        "precision": prec,
        "from": src.coord_strings(),
        "to": dst.coord_strings(),
        "integrals": {"w%d" % i: vals[i].expansion_str() for i in wanted},
    }, indent=2, sort_keys=True))
    return 0


# -- argument plumbing ----------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="g3chabauty",
        description="Provable zero sets of p-adic line integrals on rank-1 "
                    "genus-3 hyperelliptic curves.")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v per-run info, -vv per-disk trace")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run one analysis job")
    pa.add_argument("--job", required=True, help="JSON job file")
    pa.add_argument("--p", type=int, help="override the job's prime")
    pa.add_argument("--N", type=int, help="override the working precision")
    pa.add_argument("--out", help="directory for <id>.json (default stdout)")
    pa.set_defaults(func=cmd_analyze)

    pb = sub.add_parser("batch", help="run a JSON-lines job list")
    pb.add_argument("--jobs", required=True, help="JSON-lines job file")
    pb.add_argument("--parallel", type=int, default=1, help="worker count")
    pb.add_argument("--out", required=True, help="output directory")
    pb.set_defaults(func=cmd_batch)

    pz = sub.add_parser("zeta", help="numerator of the local zeta function")
    pz.add_argument("--curve", required=True, help="JSON curve file")
    pz.add_argument("--p", type=int, required=True)
    pz.add_argument("--brute-check", action="store_true",
                    help="verify against naive counts over F_p^k, k <= 3")
    pz.set_defaults(func=cmd_zeta)

    ps = sub.add_parser("search-points", help="rational point search")
    ps.add_argument("--curve", required=True, help="JSON curve file")
    ps.add_argument("--height", type=int, default=1000)
    ps.set_defaults(func=cmd_search_points)

    pi = sub.add_parser("integrate", help="basis integrals between points")
    pi.add_argument("--curve", required=True, help="JSON curve file")
    pi.add_argument("--p", type=int, required=True)
    pi.add_argument("--N", type=int, help="working precision")
    pi.add_argument("--form", default="all", choices=["0", "1", "2", "all"])
    pi.add_argument("--from", required=True, metavar="PT",
                    help="'infinity' or 'x,y' (use --from=-1,2 for negatives)")
    pi.add_argument("--to", required=True, metavar="PT")
    pi.set_defaults(func=cmd_integrate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except G3Error as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
