"""Power series operations against exact Fraction oracles, and the
integer-vector series against term-by-term PadicNumber arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g3chabauty.curve import PREC_CAP, PREC_MIN, PRIME_CAP, is_prime
from g3chabauty.errors import InputError, PrecisionError
from g3chabauty.padic import PadicNumber, ord_p
from g3chabauty.series import (PadicPowerSeries, form_series,
                               min_tail_valuation, truncation_order)

from series_oracle import ReferenceSeries, padic_series, reference_form

P = 7
PREC = 12


def S(fracs, t_prec=10, prec=PREC):
    return padic_series(
        P, [PadicNumber.from_rational(c, P, abs_prec=prec) for c in fracs],
        t_prec)


def test_formal_integral_tracks_loss():
    # integral of t^6: coefficient t^7/7 loses one digit of absolute precision
    s = S([0, 0, 0, 0, 0, 0, 1], t_prec=8)
    F = s.formal_integral()
    c7 = F[7]
    assert c7.valuation == -1
    assert c7.abs_prec == PREC - 1
    assert F[0].is_zero


def test_derivative_and_integral_inverse():
    s = S([3, 1, 4, 1, 5], t_prec=6)
    assert all((s.formal_integral().derivative()[k] - s[k]).is_zero
               for k in range(5))


def test_evaluate_integral_series_tail_bound():
    # f(t) = sum t^i truncated at t^5, evaluated at t0 = 7: tail O(7^5)
    s = S([1, 1, 1, 1, 1], t_prec=5)
    t0 = PadicNumber.from_rational(P, P, abs_prec=PREC)
    v = s.evaluate(t0)
    exact = sum(Fraction(P) ** i for i in range(5))
    assert v.abs_prec == 5
    assert (v - PadicNumber.from_rational(exact, P, abs_prec=5)).is_zero


def test_evaluate_requires_disk():
    s = S([1, 1])
    with pytest.raises(InputError):
        s.evaluate(PadicNumber.from_rational(3, P, abs_prec=5))


def test_evaluate_non_integral_needs_bound():
    s = S([Fraction(1, P)], t_prec=4, prec=6)
    t0 = PadicNumber.from_rational(P, P, abs_prec=6)
    with pytest.raises(PrecisionError):
        s.evaluate(t0)
    v = s.evaluate(t0, tail_bound=3)
    assert v.abs_prec == 3


def test_evaluate_antiderivative_caps_at_the_tail_bound():
    # F = the integral of 1 + t + .. + t^5 has t_prec 7; at v(t0) = 1 its
    # dropped terms j >= 7 are O(p^(j - ord_p(j))), least at j = 7: p^6,
    # below the 12 digits that the kept terms carry
    F = S([1] * 6, t_prec=6).formal_integral()
    t0 = PadicNumber.from_rational(P, P, abs_prec=PREC)
    v = F.evaluate_antiderivative(t0)
    exact = sum(Fraction(P) ** j / j for j in range(1, 7))
    assert v.abs_prec == min_tail_valuation(7, 1, P) == 6
    assert (v - PadicNumber.from_rational(exact, P, abs_prec=6)).is_zero
    assert (F.evaluate_antiderivative(PadicNumber.zero(P)) - F[0]).is_zero
    with pytest.raises(InputError):
        F.evaluate_antiderivative(PadicNumber.from_rational(3, P, abs_prec=5))


def test_reduction_order():
    s = S([P, 2 * P, 3], t_prec=6, prec=8)
    assert s.reduction_order() == 2
    z = S([P, P * 5], t_prec=6, prec=8)
    assert z.reduction_order() is None


def test_min_tail_valuation_brute():
    for start in (5, 14, 18, 22):
        for w in (1, 2, 3):
            got = min_tail_valuation(start, w, P)
            brute = min(i * w - ord_p(i, P) for i in range(start, start + 3000))
            assert got == brute
    assert min_tail_valuation(9, 2, P) == 18


def test_min_tail_valuation_closed_form_matches_a_window_search():
    """The closed form against a brute-force minimum over i in
    [start, start + 16).  That window holds the true minimum: below 7^4 no
    i has ord_p(i) > 3, so any i >= start + 4 gives i w - ord_p(i) >=
    start w + 1, more than the value at i = start."""
    primes = [p for p in range(7, PRIME_CAP + 1) if is_prime(p)]
    for p in primes:
        for start in range(1, 251):
            for w in (1, 2, 3):
                brute = min(i * w - ord_p(i, p)
                            for i in range(start, start + 16))
                assert min_tail_valuation(start, w, p) == brute, (p, start, w)


def test_chart_length_covers_isolation_and_tail():
    """A chart keeps t-terms to t^(N + 3), t_prec N + 4 (localdisk), so
    its half-integrals have t_prec N + 5.  At every prime and precision an
    analysis takes, root isolation at the budget N - 2 that
    pipeline._isolate passes reads no term past the chart's, and the tail
    a half-integral drops is O(p^(N + 3)) at v(t) >= 1.  The chart's own
    t_prec would not do for the tail: at p = 7 and N = 45 it gives only
    O(p^(N + 2))."""
    primes = [p for p in range(7, PRIME_CAP + 1) if is_prime(p)]
    assert len(primes) == 59
    for p in primes:
        for n in range(PREC_MIN, PREC_CAP + 1):
            assert truncation_order(n - 2, p) <= n + 4, (p, n)
            assert min_tail_valuation(n + 5, 1, p) >= n + 3, (p, n)
    assert min_tail_valuation(49, 1, 7) == 45 + 2


# -- the integer-vector series against term-by-term PadicNumber arithmetic --


def _nonzero(p, v, r, u):
    u %= p ** r
    if u % p == 0:
        u += 1
    return PadicNumber(p, v, u, r)


def numbers(p):
    """Exact zeros, zeros at a stated precision (negative included), and
    nonzero values of mixed valuation and precision."""
    return st.one_of(
        st.just(PadicNumber.zero(p)),
        st.integers(-3, 8).map(lambda a: PadicNumber.zero(p, a)),
        st.builds(_nonzero, st.just(p), st.integers(-3, 5),
                  st.integers(1, 7), st.integers(1, 10 ** 6)))


@st.composite
def series_cases(draw):
    p = draw(st.sampled_from((5, 7)))
    coeffs = st.lists(numbers(p), max_size=9)
    return (p, draw(coeffs), draw(st.integers(1, 11)), draw(coeffs),
            draw(st.integers(1, 11)), draw(numbers(p)), draw(numbers(p)),
            draw(st.integers(0, 12)))


def _data(s):
    return (s.t_prec, len(s.coeffs),
            tuple((c.valuation, c.unit, c.rel_prec) for c in s.coeffs))


def _outcome(fn, *args):
    """A series' data, another value, or the type of the error raised."""
    try:
        out = fn(*args)
    except (InputError, PrecisionError, ZeroDivisionError) as exc:
        return type(exc)
    if isinstance(out, (PadicPowerSeries, ReferenceSeries)):
        return _data(out)
    if isinstance(out, PadicNumber):
        return (out.valuation, out.unit, out.rel_prec)
    return out


# each operation on series a and b, numbers c and d and an index k; a pair
# is the library's operation and the chain of ReferenceSeries operations it
# must match
_SERIES_OPS = {
    "derivative": lambda a, b, c, d, k: a.derivative(),
    "formal_integral": lambda a, b, c, d, k: a.formal_integral(),
    "integral_constant": (lambda a, b, c, d, k: a.formal_integral(c),
                          lambda a, b, c, d, k: a.formal_integral() + c),
    "form_one": (lambda a, b, c, d, k: form_series([c], [a]),
                 lambda a, b, c, d, k: reference_form([c], [a])),
    "form_two": (lambda a, b, c, d, k: form_series([c, d], [a, b]),
                 lambda a, b, c, d, k: reference_form([c, d], [a, b])),
    # an exact-zero coefficient leaves out its series, t_prec and all
    "form_exact_zero": (
        lambda a, b, c, d, k: form_series([c, PadicNumber.zero(a.prime)],
                                          [a, b]),
        lambda a, b, c, d, k: reference_form([c], [a])),
    "reduction_order": lambda a, b, c, d, k: a.reduction_order(),
    "getitem": lambda a, b, c, d, k: a[min(k, a.t_prec - 1)],
    "evaluate": lambda a, b, c, d, k: a.evaluate(
        PadicNumber.from_rational(a.prime * (k + 1), a.prime, abs_prec=9),
        tail_bound=6),
    # a form of half-integrals and its differential, as the pipeline reads
    # them, so shared exponents and floors meet every other operation
    "form_of_integrals": (
        lambda a, b, c, d, k: form_series(
            [c, d], [a.formal_integral(d), b.formal_integral()]).derivative(),
        lambda a, b, c, d, k: reference_form(
            [c, d], [a.formal_integral() + d, b.formal_integral()]
        ).derivative()),
}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=series_cases())
def test_series_ops_match_padicnumber_reference(case):
    p, ca, ta, cb, tb, c, d, k = case
    new = (padic_series(p, ca, ta), padic_series(p, cb, tb))
    ref = (ReferenceSeries(p, ca, ta), ReferenceSeries(p, cb, tb))
    assert _data(new[0]) == _data(ref[0])
    for name, op in _SERIES_OPS.items():
        new_op, ref_op = op if isinstance(op, tuple) else (op, op)
        assert _outcome(new_op, *new, c, d, k) == \
            _outcome(ref_op, *ref, c, d, k), name
