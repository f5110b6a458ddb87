"""Write reference.json, the outputs every benchmark operation must match.

    python3 perfbench/make_reference.py

Records the SHA-256 of each case's full report (default base point) and of
every file a batch run writes, and the class counts the precision probe
should reach once it stops failing.  The committed file was made from the code the
benchmark was introduced with; regenerating it after a change to the
program would hide exactly the differences the benchmark exists to catch.
"""

import json
import sys
import tempfile
from pathlib import Path

import cases

HERE = Path(__file__).resolve().parent


def main():
    cases.use_checkout_package()
    from g3chabauty import analyze_curve, cli

    ref = {"reports": {}, "batch": {}}
    for case in cases.PROVE_KNOWN:
        name, p = cases.CASES[case]
        report = analyze_curve(cases.make_curve(name), p=p,
                               knowns=cases.known_points(name))
        ref["reports"][case] = cases.sha256(report.to_json())
        if case == cases.PROBE_CASE:
            ref["probe"] = {"class_counts": report["class_counts"]}
    name, p = cases.CASES[cases.PROVE_SEARCH]
    report = analyze_curve(cases.make_curve(name), p=p,
                           search_height=cases.SEARCH_HEIGHT)
    ref["reports"][cases.PROVE_SEARCH + "-search"] = cases.sha256(
        report.to_json())

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        jobs = Path(tmp) / "jobs.jsonl"
        jobs.write_text("".join(json.dumps(j) + "\n" for j in cases.JOBS),
                        encoding="utf-8")
        out = Path(tmp) / "out"
        if cli.main(["batch", "--jobs", str(jobs), "--parallel",
                     str(cases.BATCH_PARALLEL), "--out", str(out)]) != 0:
            raise SystemExit("batch run failed")
        for f in sorted(out.iterdir()):
            ref["batch"][f.name] = cases.file_digest(f)

    (HERE / "reference.json").write_text(
        json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
