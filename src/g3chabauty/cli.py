"""Command line front end.

Subcommands: analyze (one job), batch (JSON-lines of jobs, optional worker
pool, per-job reports plus a summary CSV), zeta (numerator of the local
zeta function, optionally cross-checked by brute-force counting),
search-points (rational point search on the original model), integrate
(basis integrals between two rational points).

Exit codes: 0 success, 1 internal failure, 2 malformed input, 3 bad
reduction at the requested prime, 4 precision or multiple-zero obstruction
(rerun with a larger --N), 5 a zero resisted exact recognition.  A batch
run exits 0 only when every job succeeded; failing jobs are isolated and
reported in the summary.
"""

import argparse
import csv
import io
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from .curve import CurveModel, RationalPoint
from .errors import (BadReductionError, G3Error, InputError, PrecisionError,
                     RecognitionError, SimplicityError)
from .frobenius import brute_zeta_numerator, zeta_numerator
from .pipeline import analyze_curve

log = logging.getLogger(__name__)

EXIT_INPUT = 2
EXIT_BAD_REDUCTION = 3
EXIT_PRECISION = 4
EXIT_RECOGNITION = 5


def exit_code_for(exc):
    if isinstance(exc, InputError):
        return EXIT_INPUT
    if isinstance(exc, BadReductionError):
        return EXIT_BAD_REDUCTION
    if isinstance(exc, (PrecisionError, SimplicityError)):
        return EXIT_PRECISION
    if isinstance(exc, RecognitionError):
        return EXIT_RECOGNITION
    return 1


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise InputError("bad JSON in %s: %s" % (path, exc)) from None


def _load_curve_file(path):
    return CurveModel.from_json(_load_json(path)).validate()


def _parse_point(text):
    """'infinity' or 'x,y' with exact fractions, e.g. '1/2,-3/8'."""
    s = text.strip()
    if s in ("infinity", "inf", "oo"):
        return RationalPoint.infinity()
    parts = s.split(",")
    if len(parts) != 2:
        raise InputError("point must be 'infinity' or 'x,y': %r" % text)
    try:
        return RationalPoint.affine(Fraction(parts[0]), Fraction(parts[1]))
    except (ValueError, ZeroDivisionError):
        raise InputError("bad coordinate in point %r" % text) from None


def _job_curve(job):
    if "curve" not in job:
        raise InputError("job needs a 'curve' entry")
    return CurveModel.from_json(job["curve"]).validate()


def _job_int(job, key, default=None):
    value = job.get(key, default)
    if value is not None and type(value) is not int:
        raise InputError("job field %r must be an integer, got %r"
                         % (key, value))
    return value


def _check_job_id(job_id):
    """Job ids name report files, so they must stay inside the out dir."""
    if job_id in ("", ".", "..") or "/" in job_id or "\\" in job_id:
        raise InputError("job id %r is not a plain file name" % job_id)
    return job_id


def run_job(job, p=None, prec=None):
    """Analysis report for one job dict; CLI overrides win over job keys."""
    if not isinstance(job, dict):
        raise InputError("job must be a JSON object")
    if p is None:
        p = _job_int(job, "p")
    if prec is None:
        prec = _job_int(job, "precision")
    height = _job_int(job, "search_height", 1000)
    curve = _job_curve(job)
    knowns = job.get("known_points")
    if knowns is not None:
        if not isinstance(knowns, list):
            raise InputError("job field 'known_points' must be a list")
        knowns = [RationalPoint.from_json(k) for k in knowns]
    base = job.get("base_point")
    if base is not None:
        base = RationalPoint.from_json(base)
    return analyze_curve(curve, p=p, prec=prec, knowns=knowns,
                         base_point=base, search_height=height)


def _write_report(out_dir, job_id, report):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / (job_id + ".json")
    path.write_text(report.to_json() + "\n", encoding="utf-8")
    return path


def cmd_analyze(args):
    job = _load_json(args.job)
    if args.out:
        job_id = job.get("id") if isinstance(job, dict) else None
        job_id = _check_job_id(
            Path(args.job).stem if job_id is None else str(job_id))
    report = run_job(job, p=args.p, prec=args.N)
    if args.out:
        print(_write_report(args.out, job_id, report))
    else:
        print(report.to_json())
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
                try:
                    job = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError("bad JSON on line %d of %s: %s"
                                     % (k, path, exc)) from None
                if not isinstance(job, dict):
                    raise InputError("line %d of %s is not a job object"
                                     % (k, path))
                job.setdefault("id", "job%03d" % k)
                jobs.append(job)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    if not jobs:
        raise InputError("no jobs in %s" % path)
    ids = [_check_job_id(str(j["id"])) for j in jobs]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate job ids in %s" % path)
    return jobs


def _run_one(job):
    """Worker body: never raises, so one bad job cannot take down the pool."""
    row = {f: "" for f in CSV_FIELDS}
    row["id"] = str(job["id"])
    try:
        report = run_job(job)
    except Exception as exc:
        row["status"] = "error"
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
        return row, None, exit_code_for(exc)
    row["status"] = "ok"
    row["prime"] = report["prime"]
    row["zeros"] = len(report.zeros)
    counts = report["class_counts"]
    for cls in CSV_FIELDS[5:]:
        row[cls] = counts.get(cls, 0)
    return row, report.to_json(), 0


def cmd_batch(args):
    if args.parallel < 1:
        raise InputError("--parallel must be at least 1, got %d"
                         % args.parallel)
    jobs = _load_jobs(args.jobs)
    workers = min(args.parallel, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(job) for job in jobs]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    worst = 0
    rows = []
    for job, (row, report_json, code) in zip(jobs, results):
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
    coeffs = zeta_numerator(curve, args.p)
    result = {
        "prime": args.p,
        "zeta_numerator": coeffs,
        "curve_point_count": args.p + 1 + coeffs[1],
        "jacobian_order": sum(coeffs),
    }
    if args.brute_check:
        brute = list(brute_zeta_numerator(curve, args.p))
        result["brute_check"] = brute
        if brute != coeffs:
            print(json.dumps(result, indent=2, sort_keys=True))
            print("zeta mismatch against brute-force counts", file=sys.stderr)
            return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_search_points(args):
    curve = _load_curve_file(args.curve)
    pts = curve.search_rational_points(args.height)
    print(json.dumps({
        "height": args.height,
        "points": [pt.coord_strings() for pt in pts],
    }, indent=2, sort_keys=True))
    return 0


def cmd_integrate(args):
    curve = _load_curve_file(args.curve)
    src = _parse_point(getattr(args, "from"))
    dst = _parse_point(args.to)
    for pt in (src, dst):
        if not curve.is_on_curve_original(pt):
            raise InputError("point %s is not on the curve"
                             % (pt.coord_strings(),))
    from .coleman import ColemanContext
    from .localdisk import curve_point_from_rational
    from .pipeline import default_precision
    p = curve.check_prime(args.p)
    if args.N is not None and args.N < 1:
        raise InputError("--N must be at least 1, got %d" % args.N)
    prec = default_precision(p) if args.N is None else args.N
    ctx = ColemanContext(curve, p, prec)
    a = curve_point_from_rational(curve, curve.to_monic(src), p, prec)
    b = curve_point_from_rational(curve, curve.to_monic(dst), p, prec)
    vals = ctx.integral_holomorphic(a, b)
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
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
