"""Shared fixtures: the three demo curves and cached pipeline runs.

The demo curves are identified by minimal discriminant (544256, 48519 and
1573040).  Coefficients are constant-first.  Each reference analysis runs
once per session and is shared by test_acceptance and test_pipeline; tests
only read the reports.
"""

import time
from fractions import Fraction

import pytest

from g3chabauty.curve import CurveModel, RationalPoint
from g3chabauty.pipeline import analyze_curve

# y^2 = 4x^7 + 9x^6 - 8x^5 - 36x^4 - 16x^3 + 32x^2 + 32x + 8
CURVE_A_COEFFS = [8, 32, 32, -16, -36, -8, 9, 4]
CURVE_A_KNOWN = ["infinity", ["-1", "-1"], ["-1", "1"], ["1", "-5"], ["1", "5"]]
CURVE_A_P0 = ["-1", "-1"]

# y^2 = -4x^7 + 24x^6 - 56x^5 + 72x^4 - 56x^3 + 28x^2 - 8x + 1
CURVE_B_COEFFS = [1, -8, 28, -56, 72, -56, 24, -4]
CURVE_B_SCALING = ["-4", "256"]
CURVE_B_KNOWN = ["infinity", ["0", "-1"], ["0", "1"], ["1", "-1"], ["1", "1"]]

# y^2 = 4x^7 - 15x^6 + 32x^5 - 38x^4 + 32x^3 - 15x^2 + 4x
CURVE_C_COEFFS = [0, 4, -15, 32, -38, 32, -15, 4]
CURVE_C_KNOWN = ["infinity", ["0", "0"], ["1", "-2"], ["1", "2"]]
CURVE_C_P0 = ["1", "-2"]


def make_curve(coeffs, scaling=None):
    sc = None
    if scaling is not None:
        sc = (Fraction(scaling[0]), Fraction(scaling[1]))
    return CurveModel([Fraction(c) for c in coeffs], sc).validate()


def parse_points(objs):
    return [RationalPoint.from_json(o) for o in objs]


@pytest.fixture(scope="session")
def curve_a():
    return make_curve(CURVE_A_COEFFS)


@pytest.fixture(scope="session")
def curve_b():
    return make_curve(CURVE_B_COEFFS, CURVE_B_SCALING)


@pytest.fixture(scope="session")
def curve_c():
    return make_curve(CURVE_C_COEFFS)


@pytest.fixture(scope="session")
def ex1_p7(curve_a):
    """Example 1 at p = 7, known points from a height-1000 search."""
    return analyze_curve(curve_a, p=7)


@pytest.fixture(scope="session")
def ex2_p7_timed(curve_b):
    """Example 2 at p = 7 and the seconds its analysis took."""
    t0 = time.perf_counter()
    report = analyze_curve(curve_b, p=7)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ex2_p7(ex2_p7_timed):
    return ex2_p7_timed[0]


@pytest.fixture(scope="session")
def ex2_p11(curve_b):
    return analyze_curve(curve_b, p=11)


@pytest.fixture(scope="session")
def ex3_p11(curve_c):
    return analyze_curve(curve_c, p=11, knowns=parse_points(CURVE_C_KNOWN),
                         base_point=RationalPoint.affine(1, -2))
