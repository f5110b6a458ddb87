"""Provable zero sets of p-adic line integrals on rank-1 genus-3 curves.

The top-level entry point is analyze_curve: given an odd-degree genus-3
hyperelliptic curve over Q whose Jacobian has rank 1, a good prime p >= 7
and a list of known rational points, it computes the common vanishing
locus of the two annihilating integrals on C(Q_p), certifies per-disk
root counts, and classifies every member of the locus.
"""

from .coleman import ColemanContext
from .curve import CurveModel, FpPoint, RationalPoint
from .errors import (BadReductionError, G3Error, InputError, PrecisionError,
                     RecognitionError, SimplicityError)
from .frobenius import brute_zeta_numerator, frobenius_data, zeta_numerator
from .jacobian import MumfordDivisorFp
from .padic import PadicNumber
from .pipeline import AnalysisReport, analyze_curve, default_precision
from .rootfinding import series_roots_in_disk
from .series import PadicPowerSeries

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BadReductionError",
    "ColemanContext",
    "CurveModel",
    "FpPoint",
    "G3Error",
    "InputError",
    "MumfordDivisorFp",
    "PadicNumber",
    "PadicPowerSeries",
    "PrecisionError",
    "RationalPoint",
    "RecognitionError",
    "SimplicityError",
    "analyze_curve",
    "brute_zeta_numerator",
    "default_precision",
    "frobenius_data",
    "series_roots_in_disk",
    "zeta_numerator",
    "__version__",
]
