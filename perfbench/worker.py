"""One benchmark operation in a fresh interpreter, like one CLI analysis.

    python3 perfbench/worker.py --case A7 [--search] [--prec N] [--spans FILE]
    python3 perfbench/worker.py --warm

Runs ``analyze_curve`` on a reference case (with its known points, or with
none and a point search up to ``cases.SEARCH_HEIGHT``; ``--prec`` overrides
the working precision) and prints one JSON line: the SHA-256 of the full
report, its class counts, the time inside ``analyze_curve``, the kernel
backend, and the error if the call raised.  ``--spans`` traces the call and
writes its spans to FILE.  ``--warm`` only imports the package and builds
the curves, which is the set-up every operation pays first.
"""

import argparse
import json
import sys
from time import perf_counter

import cases


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--case", choices=sorted(cases.CASES))
    parser.add_argument("--search", action="store_true")
    parser.add_argument("--prec", type=int)
    parser.add_argument("--spans")
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args()
    cases.use_checkout_package()
    from g3chabauty import _kernels, pipeline

    if args.warm:
        for name in cases.CURVES:
            cases.make_curve(name)
        print(json.dumps({"backend": _kernels.BACKEND}))
        return 0
    name, p = cases.CASES[args.case]
    curve = cases.make_curve(name)
    kwargs = ({"search_height": cases.SEARCH_HEIGHT} if args.search
              else {"knowns": cases.known_points(name)})
    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
    result = {"backend": _kernels.BACKEND, "error": None, "digest": None}
    t0 = perf_counter()
    try:
        if tracer is None:
            report = pipeline.analyze_curve(curve, p=p, prec=args.prec,
                                            **kwargs)
        else:
            with tracer.installed():
                report = pipeline.analyze_curve(curve, p=p, prec=args.prec,
                                                **kwargs)
        result["analyze_s"] = perf_counter() - t0
        result["digest"] = cases.sha256(report.to_json())
        result["class_counts"] = report["class_counts"]
    except Exception as exc:  # reported to the client, counted as failed
        result["analyze_s"] = perf_counter() - t0
        result["error"] = "%s: %s" % (type(exc).__name__, exc)
    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
