"""Closed-loop benchmark of the g3chabauty prover; see README.md.

    python3 perfbench/run.py --workload prove-known --seed 1 --seconds 10 \
        --trace 0

One client runs one operation at a time, each a real ``analyze_curve`` call
in a fresh interpreter or one ``g3chabauty batch`` run, and checks every
output against the reference digests in ``reference.json``.  With
``--trace 0`` it runs whole cycles of the workload's cases until
``--seconds`` have passed and prints the end-to-end metrics; with
``--trace 1`` it runs one cycle untraced and the same cycle traced and
prints the per-layer metrics.  The last line of standard output is the
result object; the line before it says what ran, with every sample.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import cases
from tracing import Tracer, layer_metrics, layer_unit

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5


class Bench:
    """State of one benchmark run: inputs, outcomes and spans."""

    def __init__(self, args, reference):
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.rng = random.Random(args.seed)
        self.ref = reference
        self.ops = []           # (case, seconds, matched reference)
        self.probes = []        # matched reference, untimed
        self.setup = []         # seconds per set-up
        self.wall = 0.0         # timed wall of the closed loop
        self.peak_rss_mb = 0.0
        self.passes = {False: 0.0, True: 0.0}   # time in the call, by traced
        self.tracer = Tracer()
        self.extra = {}         # per-layer metrics measured outside spans
        self.info = {"workload": args.workload, "seed": args.seed,
                     "errors": []}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(cases.SRC)] + ([self.env["PYTHONPATH"]]
                                if self.env.get("PYTHONPATH") else []))
        self.stderr = open(OUT / (args.workload + ".stderr"), "wb")

    def close(self):
        self.stderr.close()

    # -- plumbing ----------------------------------------------------------

    def child(self, argv):
        """Run argv to completion: (seconds, exit code, stdout, peak RSS in
        MB of the child and the children it waited for)."""
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=self.stderr, cwd=cases.ROOT,
                                env=self.env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (seconds, proc.returncode, out.decode("utf-8", "replace"),
                usage.ru_maxrss / 1024)

    def worker(self, *args):
        """One worker.py child: (seconds, its JSON result, peak RSS)."""
        seconds, code, out, rss = self.child(
            [sys.executable, str(WORKER)] + list(args))
        lines = out.splitlines()
        res = json.loads(lines[-1]) if code == 0 and lines else {
            "error": "worker exited %d" % code}
        return seconds, res, rss

    def record(self, case, seconds, ok, rss, error=None):
        self.ops.append((case, seconds, ok))
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if not ok:
            self.info["errors"].append("%s: %s" % (case, error or
                                                   "output differs"))

    def warm_children(self):
        """Set-up: start an interpreter that imports the package and
        builds the curves, several times."""
        for _ in range(SETUP_REPEATS):
            seconds, res, _ = self.worker("--warm")
            if "backend" not in res:
                raise RuntimeError("warm-up interpreter failed: %s" % res)
            self.setup.append(seconds)
            self.info["backend"] = res["backend"]

    def closed_loop(self, cycle, op):
        """Whole cycles of ops until --seconds have passed, so every run
        covers each case equally often whatever order the seed gives."""
        t0 = perf_counter()
        while True:
            for item in cycle():
                op(item)
            if perf_counter() - t0 >= self.seconds:
                break
        self.wall = perf_counter() - t0

    # -- results -----------------------------------------------------------

    def end_to_end(self):
        walls = [s for _, s, _ in self.ops]
        matched = sum(ok for _, _, ok in self.ops)
        return {
            "setup_s": (statistics.median(self.setup), "s"),
            "proofs_per_min": (60.0 * matched / self.wall, "1/min"),
            "op_s.p50": (statistics.median(walls), "s"),
            "match_frac": (matched / len(self.ops), "frac"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self):
        values = layer_metrics(self.tracer.spans)
        values.update({"cli.batch.makespan_s": 0.0, "cli.batch.job_s": 0.0,
                       "cli.batch.idle_frac": 0.0,
                       "cli.batch.report_bytes": 0})
        values.update(self.extra)
        untraced = self.passes[False]
        values["trace.overhead_frac"] = (
            self.passes[True] / untraced - 1.0 if untraced else 0.0)
        return {k: (v, layer_unit(k)) for k, v in values.items()}

    def result(self):
        metrics = self.per_layer() if self.trace else self.end_to_end()
        attempted = len(self.ops) + len(self.probes)
        matched = sum(ok for _, _, ok in self.ops) + sum(self.probes)
        samples = {}
        for case, seconds, _ in self.ops:
            samples.setdefault(case, []).append(seconds)
        self.info.update({
            "op_seconds": samples,
            "op_s.max": {"value": max(s for _, s, _ in self.ops),
                         "unit": "s", "samples": len(self.ops)},
            "failed_frac": (attempted - matched) / attempted,
            "timed_wall_s": self.wall, "setup_samples": self.setup,
        })
        return {
            "correct": all(ok for _, _, ok in self.ops),
            "attempted": attempted,
            "failed": attempted - matched,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }


# -- prove-known / prove-search: one fresh interpreter per op -------------------

def fresh_workload(bench, case_list, search):
    suffix = "-search" if search else ""
    spans_file = OUT / "op-spans.json"

    def op(case, traced=False):
        args = ["--case", case] + (["--search"] if search else [])
        if traced:
            args += ["--spans", str(spans_file)]
        seconds, res, rss = bench.worker(*args)
        ok = (res.get("error") is None
              and res.get("digest") == bench.ref["reports"][case + suffix])
        bench.record(case + suffix, seconds, ok, rss, res.get("error"))
        if "analyze_s" in res:
            bench.passes[traced] += res["analyze_s"]
        if traced:
            with open(spans_file, encoding="utf-8") as fh:
                bench.tracer.extend(json.load(fh), case + suffix)
            spans_file.unlink()

    bench.warm_children()
    if not bench.trace:
        bench.closed_loop(
            lambda: bench.rng.sample(case_list, len(case_list)), op)
        return
    order = bench.rng.sample(case_list, len(case_list))
    for traced in (False, True):
        for case in order:
            op(case, traced)


def prove_known(bench):
    fresh_workload(bench, cases.PROVE_KNOWN, search=False)


def prove_search(bench):
    fresh_workload(bench, [cases.PROVE_SEARCH], search=True)
    # Known precision defect: at N >= 38 the LLL inside recognition fails.
    # Untimed, counted against match_frac until it is fixed.
    _, res, _ = bench.worker("--case", cases.PROBE_CASE,
                             "--prec", str(cases.PROBE_N))
    bench.probes.append(res.get("error") is None and res.get("class_counts")
                        == bench.ref["probe"]["class_counts"])
    bench.info["probe"] = {"case": cases.PROBE_CASE, "N": cases.PROBE_N,
                           "error": res.get("error")}


# -- batch-mixed: the CLI batch command over the example jobs -------------------

def batch_mixed(bench):
    jobs_file = OUT / "jobs.jsonl"
    dest = OUT / "batch"
    argv = [sys.executable, "-m", "g3chabauty.cli", "batch", "--jobs",
            str(jobs_file), "--parallel", str(cases.BATCH_PARALLEL),
            "--out", str(dest)]
    expected = bench.ref["batch"]
    bench.warm_children()

    def seeded_order():
        # ex3-p11, the slowest job, stays last as in data/example_jobs.jsonl:
        # it then waits behind a p = 7 job, so the makespan includes the
        # pool's scheduling loss.  Queued earlier it alone sets the makespan,
        # which is 15% shorter, and the seed would decide which of the two
        # a run measures.
        head = bench.rng.sample(cases.JOBS[:-1], len(cases.JOBS) - 1)
        return head + cases.JOBS[-1:]

    def op(_):
        """One batch run over the jobs in a seeded order."""
        jobs = seeded_order()
        jobs_file.write_text("".join(json.dumps(j) + "\n" for j in jobs),
                             encoding="utf-8")
        shutil.rmtree(dest, ignore_errors=True)
        seconds, code, _, rss = bench.child(argv)
        files = sorted(dest.iterdir()) if dest.is_dir() else []
        ok = (code == 0
              and {f.name: cases.file_digest(f) for f in files} == expected)
        bench.record("batch", seconds, ok, rss,
                     None if code == 0 else "batch exited %d" % code)
        return seconds, sum(f.stat().st_size for f in files)

    if not bench.trace:
        bench.closed_loop(lambda: [None], op)
        return
    makespan, report_bytes = op(None)
    from g3chabauty import cli
    jobs = seeded_order()

    def run_jobs(traced):
        total = 0.0
        for job in jobs:
            bench.tracer.op = job["id"]
            t0 = perf_counter()
            error = None
            try:
                text = cli.run_job(job).to_json() + "\n"
            except Exception as exc:  # counted as a failed op
                text, error = "", "%s: %s" % (type(exc).__name__, exc)
            seconds = perf_counter() - t0
            total += seconds
            ok = cases.sha256(text) == expected[job["id"] + ".json"]
            bench.record(job["id"], seconds, ok, 0.0, error)
        bench.passes[traced] += total
        return total

    job_s = run_jobs(False)
    with bench.tracer.installed():
        run_jobs(True)
    bench.extra = {
        "cli.batch.makespan_s": makespan,
        "cli.batch.job_s": job_s,
        "cli.batch.idle_frac": 1.0 - job_s / (cases.BATCH_PARALLEL
                                              * makespan),
        "cli.batch.report_bytes": report_bytes,
    }


WORKLOADS = {
    "prove-known": prove_known,
    "prove-search": prove_search,
    "batch-mixed": batch_mixed,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cases.use_checkout_package()
    reference = json.loads((HERE / "reference.json").read_text("utf-8"))
    OUT.mkdir(exist_ok=True)
    bench = Bench(args, reference)
    try:
        WORKLOADS[args.workload](bench)
        result = bench.result()
    finally:
        bench.close()
    if bench.trace:
        bench.tracer.dump(OUT / ("spans-%s.json" % args.workload))
    print(json.dumps(bench.info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
