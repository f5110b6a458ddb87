"""Exception types shared across the package.

Each class carries the exit code the CLI returns for it, so anything a
caller may want to route on should be raised as one of the classes below
rather than a bare ValueError.
"""


class G3Error(Exception):
    """Base class for package errors."""

    exit_code = 1


class InputError(G3Error, ValueError):
    """Malformed or inconsistent user input (curve, job, point, CLI args)."""

    exit_code = 2


class BadReductionError(G3Error, ValueError):
    """The prime divides the scaling, g7 or a denominator of F, or F mod p
    is not squarefree: p is not a prime of good reduction."""

    exit_code = 3


class PrecisionError(G3Error, ArithmeticError):
    """A result would be known to zero digits, or an audit found that the
    working precision was insufficient."""

    exit_code = 4


class SimplicityError(G3Error, ArithmeticError):
    """A disk's zeros are not certified: a functional vanishes identically
    mod p on it, or root isolation certifies neither functional's roots
    on it and its known points fall short of its counting bound."""

    exit_code = 4


class RecognitionError(G3Error, ValueError):
    """A zero-set member could not be classified at working precision."""

    exit_code = 5
