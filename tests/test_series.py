"""Power series ring operations against exact Fraction oracles, and the
integer-vector series against term-by-term PadicNumber arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g3chabauty.errors import InputError, PrecisionError
from g3chabauty.padic import PadicNumber, ord_p
from g3chabauty.series import PadicPowerSeries, min_tail_valuation

from series_oracle import ReferenceSeries

P = 7
PREC = 12


def S(fracs, t_prec=10):
    return PadicPowerSeries(P, [Fraction(c) for c in fracs], t_prec,
                            coeff_prec=PREC)


def test_mul_convolution_oracle():
    rng = random.Random(3)
    for _ in range(40):
        a = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 6))]
        b = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 6))]
        sa, sb = S(a), S(b)
        prod = sa * sb
        # exact convolution
        want = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                want[i + j] += ai * bj
        for k in range(min(len(want), prod.t_prec)):
            assert prod[k] == want[k]


def test_geometric_series_inverse():
    one_minus_t = S([1, -1])
    inv = one_minus_t.invert_unit()
    for k in range(10):
        assert inv[k] == 1
    assert (one_minus_t * inv)[0] == 1
    for k in range(1, 10):
        assert (one_minus_t * inv)[k] == 0


def test_invert_needs_unit():
    with pytest.raises(InputError):
        S([0, 1]).invert_unit()


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
    assert all((s.formal_integral().derivative())[k] == s[k] for k in range(5))


def test_evaluate_integral_series_tail_bound():
    # f(t) = sum t^i truncated at t^5, evaluated at t0 = 7: tail O(7^5)
    s = S([1, 1, 1, 1, 1], t_prec=5)
    t0 = PadicNumber.from_rational(P, P, abs_prec=PREC)
    v = s.evaluate(t0)
    exact = sum(Fraction(P) ** i for i in range(5))
    assert v.abs_prec == 5
    assert v == PadicNumber.from_rational(exact, P, abs_prec=5)


def test_evaluate_requires_disk():
    s = S([1, 1])
    with pytest.raises(InputError):
        s.evaluate(PadicNumber.from_rational(3, P, abs_prec=5))


def test_evaluate_non_integral_needs_bound():
    s = PadicPowerSeries(P, [Fraction(1, P)], 4, coeff_prec=6)
    t0 = PadicNumber.from_rational(P, P, abs_prec=6)
    with pytest.raises(PrecisionError):
        s.evaluate(t0)
    v = s.evaluate(t0, tail_bound=3)
    assert v.abs_prec == 3


def test_reduction_order():
    s = PadicPowerSeries(P, [Fraction(P), Fraction(2 * P), Fraction(3)], 6,
                         coeff_prec=8)
    assert s.reduction_order() == 2
    z = PadicPowerSeries(P, [Fraction(P), Fraction(P * 5)], 6, coeff_prec=8)
    assert z.reduction_order() is None


def test_min_tail_valuation_brute():
    for start in (5, 14, 18, 22):
        for w in (1, 2, 3):
            got = min_tail_valuation(start, w, P)
            brute = min(i * w - ord_p(i, P) for i in range(start, start + 3000))
            assert got == brute
    assert min_tail_valuation(9, 2, P) == 18


def test_scale_and_shift_t():
    s = S([1, 2, 3], t_prec=5)
    two = PadicNumber.from_rational(2, P, rel_prec=PREC)
    assert (s.scale(two))[1] == 4
    sh = s.shift_t(2)
    assert sh[0].is_zero and sh[2] == 1 and sh.t_prec == 7


def test_mul_gains_t_precision_from_exact_zero_factor():
    # multiplying O(t^4) data by an exactly-known t^2 shifts the unknown tail;
    # t^2 is built from exact zeros, as the series t squared
    s = S([1, 1], t_prec=4)
    t = PadicPowerSeries.identity(P, 6, PREC)
    t2 = t * t
    assert t2[0].is_exact_zero and t2[1].is_exact_zero
    prod = s * t2
    assert prod.t_prec == 6
    assert prod[2] == 1 and prod[3] == 1


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
            draw(st.integers(1, 11)), draw(numbers(p)),
            draw(st.integers(0, 12)))


def _data(s):
    return (s.t_prec, len(s),
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


_SERIES_OPS = {
    "add": lambda a, b, c, k: a + b,
    "sub": lambda a, b, c, k: a - b,
    "neg": lambda a, b, c, k: -a,
    "mul": lambda a, b, c, k: a * b,
    "rmul": lambda a, b, c, k: b * a,
    "square": lambda a, b, c, k: a * a,
    "add_number": lambda a, b, c, k: a + c,
    "scale": lambda a, b, c, k: a.scale(c),
    "truncate": lambda a, b, c, k: a.truncate(k),
    "shift_t": lambda a, b, c, k: a.shift_t(k),
    "invert_unit": lambda a, b, c, k: a.invert_unit(),
    "derivative": lambda a, b, c, k: a.derivative(),
    "formal_integral": lambda a, b, c, k: a.formal_integral(),
    "reduction_order": lambda a, b, c, k: a.reduction_order(),
    "getitem": lambda a, b, c, k: a[min(k, a.t_prec - 1)],
    "evaluate": lambda a, b, c, k: a.evaluate(
        PadicNumber.from_rational(a.prime * (k + 1), a.prime, abs_prec=9),
        tail_bound=6),
    # chains, so shared exponents and floors meet every other operation
    "integral_times": lambda a, b, c, k: a.formal_integral() * b,
    "inverse_times": lambda a, b, c, k: (a + b).invert_unit() * a,
    "poly": lambda a, b, c, k: (a * b + a.scale(c)).derivative() - b,
}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=series_cases())
def test_series_ops_match_padicnumber_reference(case):
    p, ca, ta, cb, tb, c, k = case
    new = (PadicPowerSeries(p, ca, ta), PadicPowerSeries(p, cb, tb))
    ref = (ReferenceSeries(p, ca, ta), ReferenceSeries(p, cb, tb))
    assert _data(new[0]) == _data(ref[0])
    for name, op in _SERIES_OPS.items():
        assert _outcome(op, *new, c, k) == _outcome(op, *ref, c, k), name
    # with_t_prec is the Newton solver's re-declaration of t-precision
    assert _data(new[0].with_t_prec(k + 1)) == \
        _data(ReferenceSeries(p, ref[0].coeffs, k + 1))
