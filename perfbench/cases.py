"""Reference curves and benchmark cases, shared by every benchmark script.

The curves are the three models of ``tests/conftest.py`` (coefficients
constant first) with their known rational points; ``JOBS`` is a verbatim
copy of ``data/example_jobs.jsonl``.  Both are copied rather than read so
the benchmark's inputs stay fixed while the repository changes.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CURVES = {
    "A": {"coeffs": [8, 32, 32, -16, -36, -8, 9, 4], "scaling": None,
          "known": ["infinity", ["-1", "-1"], ["-1", "1"], ["1", "-5"],
                    ["1", "5"]]},
    "B": {"coeffs": [1, -8, 28, -56, 72, -56, 24, -4],
          "scaling": ["-4", "256"],
          "known": ["infinity", ["0", "-1"], ["0", "1"], ["1", "-1"],
                    ["1", "1"]]},
    "C": {"coeffs": [0, 4, -15, 32, -38, 32, -15, 4], "scaling": None,
          "known": ["infinity", ["0", "0"], ["1", "-2"], ["1", "2"]]},
}

# case id -> (curve, prime)
CASES = {"A7": ("A", 7), "B11": ("B", 11), "C11": ("C", 11)}

PROVE_KNOWN = ["A7", "C11", "B11"]
PROVE_SEARCH = "A7"
SEARCH_HEIGHT = 2000
PROBE_CASE, PROBE_N = "A7", 40
BATCH_PARALLEL = 2

JOBS = [
    {"id": "ex1-p7",
     "curve": {"coeffs": ["8", "32", "32", "-16", "-36", "-8", "9", "4"]},
     "p": 7},
    {"id": "ex2-p7",
     "curve": {"coeffs": ["1", "-8", "28", "-56", "72", "-56", "24", "-4"],
               "scaling": ["-4", "256"]},
     "p": 7,
     "known_points": ["infinity", ["0", "-1"], ["0", "1"], ["1", "-1"],
                      ["1", "1"]]},
    {"id": "ex3-p11",
     "curve": {"coeffs": ["0", "4", "-15", "32", "-38", "32", "-15", "4"]},
     "p": 11,
     "known_points": ["infinity", ["0", "0"], ["1", "-2"], ["1", "2"]],
     "base_point": ["1", "-2"]},
]


def use_checkout_package():
    """Put this checkout's ``src`` first on the import path, or exit 2 when
    the checkout has no package (then no result may be printed)."""
    if not (SRC / "g3chabauty" / "__init__.py").is_file():
        print("no g3chabauty package under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_curve(name):
    from fractions import Fraction
    from g3chabauty import CurveModel
    spec = CURVES[name]
    scaling = spec["scaling"]
    if scaling is not None:
        scaling = (Fraction(scaling[0]), Fraction(scaling[1]))
    return CurveModel([Fraction(c) for c in spec["coeffs"]],
                      scaling).validate()


def known_points(name):
    from g3chabauty import RationalPoint
    return [RationalPoint.from_json(o) for o in CURVES[name]["known"]]


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()
