"""Provable zero isolation on the open disk p Z_p.

The rescaling g(s) = f(p s) has integral coefficients whenever
v(coeff_j) >= -j, so zeros of f with positive valuation biject with
zeros of g in Z_p.  Every such zero reduces to a residue of g mod p;
residues where the derivative stays a unit lift uniquely by Hensel, and
repeated residues recurse on the shifted series g(r + p s) whose content
strictly shrinks the precision budget.  The search therefore either
returns a provably complete list of simple zeros, each tagged with the
modulus to which it is determined, or raises PrecisionError.

Truncation is sound for antiderivative-shaped input: when
v(coeff_j) >= -ord_p(j) the dropped tail of a degree-M truncation is
O(p^prec) on the disk as soon as j - ord_p(j) >= prec for all j >= M.
"""

from . import _kernels as kernels
from .errors import InputError, PrecisionError
from .padic import PadicNumber, ord_p
from .series import min_tail_valuation


def truncation_order(prec, p):
    """Least M so that tail terms j >= M of an antiderivative-shaped
    series stay below p^-prec for v(t) >= 1."""
    m = max(prec, 1)
    while min_tail_valuation(m, 1, p) < prec:
        m += 1
    return m


def _scaled_residue(coeff, j, p, prec):
    """Integer residue of coeff * p^j mod p^prec, or None for zero; the
    caller reads only coefficients known mod p^(prec - j)."""
    if coeff.is_zero:
        return None
    v = coeff.valuation + j
    if v < 0:
        raise InputError("series is not integral on the open disk")
    if v >= prec:
        return None
    return coeff.unit % p ** (prec - v) * p ** v % p ** prec


def _taylor_shift(h, r, mod):
    """Coefficients of h(s + r) mod `mod` by iterated synthetic division."""
    out = list(h)
    n = len(out)
    for i in range(n):
        for k in range(n - 2, i - 1, -1):
            out[k] = (out[k] + r * out[k + 1]) % mod
    return out


def _zp_roots(h, p, budget):
    """(residue, exponent) pairs describing all zeros in Z_p of any function
    within O(p^budget) of the integral polynomial h; each coset mod
    p^exponent contains exactly one zero, and it is simple."""
    mod = p ** budget
    hd = kernels.poly_deriv_mod(h, mod)
    found = []
    for r in range(p):
        if kernels.poly_eval_mod(h, r, p):
            continue
        if kernels.poly_eval_mod(hd, r, p):
            found.append((kernels.hensel_lift(h, hd, r, p, budget), budget))
            continue
        # repeated residue: zoom in on r + p Z_p and shed the content
        shifted = _taylor_shift(h, r, mod)
        scaled = [shifted[j] * p ** j % mod for j in range(len(shifted))]
        k = min([budget] + [ord_p(c, p) for c in scaled])
        if k >= budget:
            raise PrecisionError(
                "series vanishes on a whole disk at working precision")
        sub_budget = budget - k
        if sub_budget < 2:
            raise PrecisionError(
                "cannot separate zeros near residue %d" % r)
        sub_mod = p ** sub_budget
        sub = [c // p ** k % sub_mod for c in scaled]
        for res, e in _zp_roots(sub, p, sub_budget):
            found.append(((r + p * res) % p ** (e + 1), e + 1))
    return found


def series_roots_in_disk(series, prec):
    """All t with v(t) >= 1 where the function behind `series` vanishes.

    The input must be antiderivative-shaped (v(coeff_j) >= -ord_p(j)) so
    the truncation bound applies.  Returns PadicNumbers sorted by their
    integer representative; each carries the modulus to which the zero is
    pinned down, and each is a provably simple zero.

    The budget b is prec lowered to min_j(abs_prec(c_j) + j), j <
    truncation_order(prec), as after a solve that loses digits at an
    anomalous prime.  That is sound: each c_j read, j < truncation_order(b)
    <= truncation_order(prec), is known mod p^(b - j), and the tail is
    O(p^b) on the disk by the antiderivative shape.  So the Hensel count
    holds for every function within O(p^b) of the integral polynomial
    isolated here: each zero returned is simple, and none is missed.

    A root in the coset t = 0 mod p^(e+1) comes back as the exact zero,
    built by name, though it is pinned only mod p^(e+1): the reports pin
    the "0" it prints, where from_rational would give O(p^(e+1)).
    """
    p = series.prime
    for j in range(min(truncation_order(prec, p), len(series))):
        prec = min(prec, series[j].abs_prec + j)
    m_order = truncation_order(prec, p)
    if series.t_prec < m_order:
        raise PrecisionError(
            "need series terms up to t^%d, have t^%d" % (m_order, series.t_prec))
    coeffs = []
    for j in range(min(m_order, len(series))):
        coeffs.append(_scaled_residue(series[j], j, p, prec))
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    ints = [c if c is not None else 0 for c in coeffs]
    if not any(ints):
        raise PrecisionError(
            "series is indistinguishable from zero at this precision")
    k = min([prec] + [ord_p(c, p) for c in ints if c])
    budget = prec - k
    if budget < 2:
        raise PrecisionError("dominant coefficient eats the precision budget")
    mod = p ** budget
    h = [c // p ** k % mod for c in ints]
    roots = []
    for res, e in _zp_roots(h, p, budget):
        roots.append(PadicNumber.from_rational(p * res, p, abs_prec=e + 1)
                     if res else PadicNumber.zero(p))
    roots.sort(key=lambda r: (0 if r.is_zero else 1,
                              0 if r.is_zero else r.unit * p ** r.valuation))
    return roots
