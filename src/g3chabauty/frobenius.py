"""Frobenius action on the odd de Rham cohomology of y^2 = F(x), deg F = 7.

The lift of the p-power Frobenius sends x to x^p and y to
y^p (1 + p Dt(x) / F(x)^p)^(1/2) with Dt = (F(x^p) - F(x)^p) / p integral.
Expanding the inverse square root binomially writes the pullback of each
basis form w_j = x^j dx/2y (j = 0..5) as a sum of terms

    c_k p^(k+1) x^(pj+p-1) Dt(x)^k dx / (2 y^(2pk+p)),   k = 0..k_max,

that is x^(pj+p-1) Psi dx / (2 y^s_max) with s_max = 2p k_max + p and
Psi = sum_k c_k p^(k+1) Dt^k F^(p (k_max - k)).  Two telescopes reduce it
back to the span of the w_i (Kedlaya's algorithm, as in Balakrishnan,
Bradshaw and Kedlaya, Explicit Coleman integration for hyperelliptic
curves, ANTS IX).  The first lowers the y-exponent s two at a time via
A = aF + bF' and

    A dx/(2y^s) = (a + 2b'/(s-2)) dx/(2y^(s-2)) + d(-b y^(2-s) / (s-2)).

In F-adic digits A = sum_t A_t F^t, deg A_t < 7 (unique, as F is monic),
only the lowest digit needs that decomposition: a step sends the digits
(A_0, A_1, A_2, ...) to (A_1 + f_s(A_0), A_2, ...) with deg f_s(A_0) <= 5.
So the digits of Psi are computed once, by Horner's rule in Dt with no
division by F^p: H_(k_max) = c_(k_max),
H_(k-1) = p Dt H_k + c_(k-1) F^(p (k_max - k + 1)) and Psi = p H_0 on
F-adic digits, where multiplication by Dt is one packed linear map on a
digit (_digit_columns; Dt has degree below 7p, so a digit's image spans
p + 1 digits).  Each column's digits follow from the previous column's by
the same kind of map, multiplication by x^p on a digit (x^(p-1) for
column 0), read through a window one digit at a time (_window_step), and
the six columns are reduced in lockstep: digit t of every column is made
from digit t of the one before, goes through that column's pole step t
and is dropped before digit t + 1 is made.  Psi's digits are lifted from
its graded blocks as they are read, so a run holds nothing larger than
those blocks.  Every pole step works on a polynomial of degree below 7.
There the splitting A_0 = aF + bF' is linear in A_0: b = A_0 beta mod F for the
cofactor beta with beta F' = 1 mod F, and a = (A_0 - bF')/F.  Both maps
are built once per run as one packed map on the monomials x^0 .. x^6
(_pole_map), so a pole step is one packed product on c = A_0, giving b
and a, and scalars that depend on s alone: the primitive -b/(s-2) and
the new lowest digit a + 2b'/(s-2).  Where p^e, e > 0, divides s - 2, the
divisions of the primitive and of the correction 2b'/(s-2) by p^e are
checked.  Building the map checks that F divides x^i - b(x^i) F' for every
i; the remainder A_0 -> A_0 (1 - beta F') mod F is linear mod p^W, so
that basis check covers every numerator a per-step remainder check would
see.  At s = 1 the remaining digits are reassembled and the second
telescope lowers the x-degree via d(x^j y).  The telescopes run over
Z/p^W on p^C times each form, both sized by Kedlaya's bound on the
denominators the two reductions introduce:
L = floor(log_p s_max) + floor(log_p(2 deg_cap + 7)) digits with
deg_cap = (5p + 5) // 2, which is 3 at the default precision for p = 7
to 17.  One run computes the N digits the report reads and no
more: k_max is the least series length whose dropped terms move the
result by multiples of p^N, C = L and W = max(N + C + L, C + k_max + 2),
as _compute argues.
The digits of Psi carry precision graded twice, by the term k and by
their position: block n of p digits of H_k is divisible by p^(k_max-n-k)
and needed mod p^(W-C-1-k), so it is kept divided by the one and mod the
other (_psi_digits).  F is monic, so the digits commute with reduction
mod any p^M, and they equal the full-precision ones mod p^W.  The
reduction also gives the primitive h_j of
phi^* w_j = sum_i M[i][j] w_i + d h_j: its pole terms b_s(x) y^(2-s), s
odd, and its degree-reduction terms mu(x) y make h_j = y sum_e u^e E_e(x)
in u = y^-2, with E_e = b_(2e+1) and E_0 = mu.  The steps make E_J down
to E_0, which is Horner's order in u, so each term is folded, as it is
made, into h_j at the Teichmuller point of each generic disk the caller
names, and into dh_j/dx at the first of them, the audit point (_Horner);
no term is kept.  frobenius_data names every canonical generic disk, the
only points where Coleman integration reads h, or, for integrate, the
audit disk and the disks of the two endpoints; for zeta_numerator, which
reads no h, it is given no disks and names the audit disk alone.

The zeta numerator P(T) = det(1 - T M) follows from the characteristic
polynomial; integrality, the Weil bounds, the functional equation and the
point count over F_p audit M, and the pullback identity at one point of a
generic disk audits M and the h_j together (identity_check).  The naive
counts that check P(T) without Frobenius are _kernels.brute_zeta_numerator.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from . import _kernels as kernels
from .errors import BadReductionError, PrecisionError
from .padic import PadicNumber, ord_p, teichmuller_point

log = logging.getLogger(__name__)


def _exact_pdiv(c, p, e):
    if e == 0:
        return c
    pe = p ** e
    if c % pe:
        raise PrecisionError("prescale budget exhausted in reduction")
    return c // pe


def _lift_cofactor(Q, Qd, p, W):
    """beta with deg beta <= 6 and 1 - beta Q' divisible by Q mod p^W: the
    inverse of Q' mod Q (kernels.poly_inverse_mod), which exists when Q
    is squarefree mod p.  The division of 1 - beta Q' by Q is checked
    once, by column 0 of _pole_map, as b(x^0) = beta."""
    beta = kernels.poly_inverse_mod(Qd, Q, p, W)
    if beta is None:
        raise BadReductionError("curve polynomial not squarefree mod p")
    return beta


def _half_binomial_units(k_max, m):
    """binom(-1/2, k) = (-1)^k binom(2k, k) / 4^k as residues mod m."""
    out = []
    for k in range(k_max + 1):
        num = (-1) ** k * math.comb(2 * k, k)
        out.append(num * pow(pow(4, k, m), -1, m) % m)
    return out


class FrobeniusData(namedtuple(
        "FrobeniusData", "curve p prec scale_exp work_exp k_max matrix_ints "
        "adjugate teich_prims zeta fp_points")):
    """Matrix of Frobenius on the w_i basis plus the primitives h_j at the
    Teichmuller point of every generic disk.  k_max (the last term of the
    binomial series), scale_exp (C) and work_exp (W) are the budget of
    _compute, read by no other module.  matrix_ints holds M and adjugate
    holds adj(I - M), both mod p^prec: phi^*(w_j) = sum_i M[i][j] w_i +
    dh_j, and (I - M) adj(I - M) = det(I - M) I with det(I - M) = #J(F_p).
    teich_prims maps each canonical generic disk, an FpPoint, that
    _compute folded at (every one, unless frobenius_data is given the disks
    to read) to the six values p^C h_j mod p^W at its Teichmuller point,
    which _compute folds as it reduces; no term of h is kept.
    fp_points is C(F_p), infinity first (curve.fp_points), as the trace
    audit counted it."""

    __slots__ = ()

    # perfbench/tracing.py maps delta 4 to attempt 1, the only attempt
    delta = 4

    def jacobian_order(self):
        return sum(self.zeta)

    def point_count(self):
        """#C(F_p) = p + 1 + a_1, audited by _compute."""
        return self.p + 1 + self.zeta[1]

    def primitives_at(self, disk):
        """(h_0, .., h_5) as PadicNumbers to p^prec at the Teichmuller point
        over the canonical generic disk `disk`, an FpPoint."""
        return [self._wrap_scaled(acc) for acc in self.teich_prims[disk]]

    def _wrap_scaled(self, acc):
        value = Fraction(acc, self.p ** self.scale_exp)
        return PadicNumber.from_rational(value, self.p, abs_prec=self.prec)


class _Horner:
    """p^C h_j mod m at the points (x, y), y a unit, and p^C dh_j/dx at the
    first, for the six columns j at once, folded in the order _compute
    makes the terms of h_j = y sum_e u^e E_e(x), u = y^-2: E_J, .., E_1
    (degree <= 6), then E_0 = mu(x).  Both go by Horner's rule in u, as
    y' = F'(x)/2y gives d(E_e y u^e)/dx = y u^e (E_e' + (1 - 2e)/2 F' u E_e).
    Each column has its own accumulators, so the columns' terms may come
    interleaved.  One packed dot product reads a pole term: slot k of column
    i holds x^i at point k, and the last slot i x^(i-1) at the first point.
    mu, of any degree, is read by Horner's rule in x."""

    def __init__(self, f, points, m):
        self.m = m
        self.points = [(x, y, pow(y * y % m, -1, m)) for x, y in points]
        x0, _, u0 = self.points[0]
        powers = [[pow(x, i, m) for i in range(7)] for x, _ in points]
        slopes = [i * v % m for i, v in enumerate([0] + powers[0][:6])]
        # a slot holds any sum of 7 products of residues mod m
        self.slot = kernels.slot_bytes(m, 7)
        self.xcols = [kernels.pack([xpow[i] for xpow in powers] + [slopes[i]],
                                   self.slot) for i in range(7)]
        fd0 = kernels.poly_eval_mod(kernels.poly_deriv_mod(f, m), x0, m)
        self.half_fu = fd0 * u0 * pow(2, -1, m) % m
        self.accs = [[0] * len(points) for _ in range(6)]
        self.daccs = [0] * 6

    def add(self, col, E, e):
        m = self.m
        *vals, slope = kernels.unpack(sum(map(mul, E, self.xcols)), self.slot,
                                      len(self.points) + 1, m)
        self.daccs[col] = (self.daccs[col] * self.points[0][2] + slope
                           + (1 - 2 * e) * self.half_fu * vals[0]) % m
        self.accs[col] = [(acc * u + v) % m for acc, (_, _, u), v
                          in zip(self.accs[col], self.points, vals)]

    def finish(self, col, mu):
        """(values, dh): p^C h_col at the points and p^C dh_col/dx at the
        first."""
        m = self.m
        mus = [kernels.poly_eval_mod(mu, x, m) for x, _, _ in self.points]
        values = [(acc * u + v) * y % m for acc, (_, y, u), v
                  in zip(self.accs[col], self.points, mus)]
        x0, y0, u0 = self.points[0]
        slope = kernels.poly_eval_mod(kernels.poly_deriv_mod(mu, m), x0, m)
        dh = (self.daccs[col] * u0 + slope + self.half_fu * mus[0]) * y0 % m
        return values, dh


def _char_series_coeffs(mat, modulus):
    """Coefficients of det(1 - T mat) and adj(1 - mat), mod modulus, via
    Faddeev-LeVerrier.  The loop's B_k = mat^k + c_1 mat^(k-1) + ... + c_k
    (B_0 = 1) are the coefficients of adj(x - mat) = sum_k B_k x^(n-1-k),
    so their sum is adj(1 - mat): (1 - mat) sum_k B_k = det(1 - mat) by
    Cayley-Hamilton."""
    n = len(mat)
    coeffs = [1]
    adj = [[int(i == j) for j in range(n)] for i in range(n)]
    ak = [row[:] for row in mat]
    for k in range(1, n + 1):
        tr = sum(ak[i][i] for i in range(n)) % modulus
        ck = -tr * pow(k, -1, modulus) % modulus
        coeffs.append(ck)
        if k == n:
            break
        nxt = [[(ak[i][j] + (ck if i == j else 0)) % modulus
                for j in range(n)] for i in range(n)]
        adj = [[(a + b) % modulus for a, b in zip(ra, rb)]
               for ra, rb in zip(adj, nxt)]
        ak = [[sum(mat[i][t] * nxt[t][j] for t in range(n)) % modulus
               for j in range(n)] for i in range(n)]
    return coeffs, adj


def _weil_ok(b, p):
    for i, bi in enumerate(b):
        bound = math.comb(6, i) ** 2 * p ** i
        if bi * bi > bound:
            return False
    return True


def _compute(curve, p, N, k_max, C, W, fp_points, disks):
    """The audited Frobenius structure to p^N: the telescopes run on p^C
    times each form, mod p^W, on the binomial series up to term k_max.
    fp_points is C(F_p), infinity first, and h is folded at the
    Teichmuller point of each of disks, canonical generic disks (FpPoints)
    with the audit disk first (_generic_disks).

    Per column j the numerator x^(pj+p-1) Psi comes, as Q-adic digits,
    from the previous column's by the packed x^p digit map (x^(p-1) from
    Psi itself): x^e x^i = sum_u r_(i,u) Q^u is precomputed for i < 7, so
    a digit's image is one sum of 7 integer multiples and digit t of the
    result adds the images of digits t, t-1, .. at their offsets u, which
    one window per column carries (_window_step).  The six columns are
    reduced in lockstep, one digit at a time: Psi's digit t, lifted from
    its graded block as it is read (_psi_digits), gives column 0's digit
    t, which gives column 1's, and so on; each goes at once into its
    column's pole step t and is dropped, and only the digits from J on,
    which the pole steps do not read, are kept for the reassembly of what
    is left over y^1, the degree reduction and the column of M.  So a run
    holds Psi's graded blocks, six windows and six carries, and never a
    column's digits.  The pole steps run on the one packed map of
    _pole_map, built once, and on s - 2 = p^e d' and 1/d' mod p^W, formed
    once per s for the six columns' steps: the exact division by Q is
    checked once on x^0 .. x^6, which covers every step, since the
    remainder c (1 - beta Q') mod Q is linear in c mod p^W.  Where p does
    not divide s - 2 no division by p is left; where p^e does, the
    divisions by p^e of the correction and of the primitive are checked at
    every step (_pole_step).  The primitive of step s is E_((s-1)/2) and
    the degree reduction's mu(x) is E_0 in h_j = y sum_e E_e(x) y^-2e,
    made in Horner's order in y^-2: each is folded, as it is made, into
    its column's p^C h_j at the Teichmuller point of each disk, lifted mod
    p^W before the first digit (FrobeniusData.teich_prims), and into
    p^C dh_j/dx at the audit point, the first of them, by the same packed
    product, and then dropped.

    Why the budget of _budget suffices, for the matrix M and the
    primitives h alike: k_max is the least length with
    k - 1 - floor(log_p(2k + 1)) >= N for every k > k_max, C = L and
    W = max(N + C + L, C + k_max + 2), with L = floor(log_p s_max) +
    floor(log_p(2 deg_cap + 7)) (_budget; the denominator bounds of
    Kedlaya, Counting points on hyperelliptic curves using
    Monsky-Washnitzer cohomology, 2001).  The argument needs only C >= L,
    W - C - L >= N, W >= C + k_max + 2 and that tail bound:

    1. Denominators.  Every form below is B(x) dx/2y^s with s <= s_max odd
       and a pole of order at most 2 deg_cap + 8 at infinity (the numerator
       over y^1 has degree at most deg_cap).  Its reduction
       sum_i M_i w_i + dh, h = sum_s b_s(x) y^(2-s) + sum_j mu_j x^j y with
       deg b_s <= 6, is unique: the w_i are independent in cohomology and
       an odd h with dh = 0 is 0.  If B is p-integral, p^L M and p^L h are:
       - At a root r of F, y is a parameter, x - r is an integral series in
         y^2 (F'(r) is a unit) and the w_i are holomorphic, so the polar
         part of h is the integral of that of the form: divisors n <= s - 2.
         h y^-1 - sum_j mu_j x^j is the sum of its polar parts at the seven
         roots, distinct mod p and unramified, so p^floor(log_p s_max) b_s
         is p-integral for each s, and so is each carry in between.
       - At infinity t = x^3/y is a parameter with x t^2 and y t^7 integral
         units, x^j y = t^-(2j+7)(1 + ..) and the w_i have poles of order
         at most 6.  So the mu_j follow unitriangularly from the
         coefficients of t^-n, n >= 7, of the integral of the form minus
         the pole part of dh, each divided by n <= 2 deg_cap + 7: one more
         floor(log_p(2 deg_cap + 7)) digits, for mu and then for M.
    2. Prescale.  Every carry, primitive and matrix entry is p^C times
       such a value, so with C >= L each exact division by the p^e of s - 2
       or of 2j + 7 divides a p-integral value, and the matrix check
       divides p^C M by p^C.
    3. Perturbation.  Each reduction mod p^W drops p^W times an integral
       form at some pole order: a digit or carry mod p^W; a pole step's
       images a + 2b'/(s-2) and -b/(s-2), for the (a, b) that the map of
       _pole_map gives mod p^W, as c' = aQ + bQ' = c mod p^W (the basis
       check) and the step identity holds for any a, b; the
       correction 2b'/(s-2), where p^e divides s - 2, known mod p^(W-e)
       after its checked division, the same as b moved by p^W times an
       antiderivative of degree <= 6 < p, so integral; and mu known mod
       p^(W-e), the same as the leading coefficient moved by p^W times an
       integer.  So the run is the exact reduction of p^C phi^* w_j plus
       p^W times integral forms; reduction is linear, and by 1 the second
       part moves M and h by multiples of p^(W-L).  A stored primitive's
       own division is off by p^(W-e), e <= L, as well.  So after
       division by p^C, M and h are right mod p^(W-C-L), a multiple of
       p^N, and the divisions of 2 stay exact, as W - L >= C and
       W - L >= L >= e.
    4. Truncation.  The terms k > k_max of the binomial series are
       p^(k+1) times integral forms with s = 2pk + p, so by 1 they move M
       and h by multiples of p^(k - 1 - floor(log_p(2k + 1))), a multiple
       of p^N for every k > k_max by the choice of k_max.
    5. Grading.  Psi = p^(C+1) H_0 for the Horner steps
       H_(k-1) = p Dt H_k + cks[k-1] Q^(p (k_max - k + 1)), so H_k is
       needed mod p^(W-C-1-k) (by term); and E-block n of H_k, its Q-digits
       pn .. pn+p-1, is divisible by p^(k_max-n-k) (by position), as term
       j of H_k lies in blocks k_max-j to k_max-k with the factor p^(j-k).
       Kept divided by that power, mod p^(W-C-1-k_max+n) (_psi_digits),
       every block gives its digits mod p^W; W >= C + k_max + 2 leaves
       block 0 at least one digit.
    So M and h are right to the N digits the report reads.  Every exact
    division stays checked, and the result is audited: the zeta, and M and
    h together by identity_check at the Teichmuller point over the least
    nonzero residue x with F(x) a nonzero square mod p, so that every row
    of M enters (x = 0 only when it is the one such residue), where h_j is
    read from the same packed products.  Without one, every affine point
    over F_p has y = 0, so the proof has no generic disk: it reads neither
    M nor h, only the zeta, and that audit is skipped.
    """
    s_max = 2 * p * k_max + p
    m = p ** W
    m1 = p ** (W + 1)

    Q1 = curve.f_coeffs_mod(p, W + 1)
    Q = [c % m for c in Q1]
    Qd = kernels.poly_deriv_mod(Q, m)

    qxp = [0] * (7 * p + 1)
    for i, c in enumerate(Q1):
        qxp[i * p] = c
    qpow = kernels.poly_pow_mod(Q1, p, m1)
    dt = [_exact_pdiv(c, p, 1) % m
          for c in kernels.poly_sub_mod(qxp, qpow, m1)]

    beta = _lift_cofactor(Q, Qd, p, W)
    cks = _half_binomial_units(k_max, m)

    J = (s_max - 1) // 2
    pmap = _pole_map(Q, Qd, beta, m)
    xmaps = (_digit_map(Q, [0] * (p - 1) + [1], m),
             _digit_map(Q, [0] * p + [1], m))

    # h_j is read only at the Teichmuller points (primitives_at), and dh_j/dx
    # only by the audit, at the first
    lifts = None
    if disks:
        lifts = _Horner(Q, [teichmuller_point(Q, d.x, d.y, p, W)
                            for d in disks], m)

    # column col's digit t is read through its window from column
    # col - 1's digit t (Psi's for column 0); digit t < J goes into pole
    # step t at once, and the digits from J on are kept for s = 1
    psi = _psi_digits(Q, dt, cks, C, p, W)
    windows = [0] * 6
    carries = [[] for _ in range(6)]
    for t in range(J):
        # step t lowers s = s_max - 2t, s - 2 = p^e d', and makes E_k
        s = s_max - 2 * t
        e = ord_p(s - 2, p)
        inv = pow((s - 2) // p ** e, -1, m)
        k = (s - 1) // 2
        digit = next(psi, ())
        for col in range(6):
            digit, windows[col] = _window_step(windows[col], digit,
                                               xmaps[col > 0], m)
            c = kernels.poly_add_mod(kernels.poly_trim(digit), carries[col], m)
            carries[col], E = _pole_step(c, s, e, inv, pmap, p, m)
            if lifts is not None:
                lifts.add(col, E, k)
    tops = [[] for _ in range(6)]
    while True:
        digit = next(psi, None)
        if digit is None and not any(windows):
            break
        digit = digit or ()
        for col in range(6):
            digit, windows[col] = _window_step(windows[col], digit,
                                               xmaps[col > 0], m)
            tops[col].append(digit)

    matrix_ints = [[0] * 6 for _ in range(6)]
    h_cols, dh = [], []
    pC = p ** C
    for col in range(6):
        # the numerator over y^1: the carry plus the digits from J on
        A = []
        for d in reversed(tops[col]):
            A = kernels.poly_add_mod(kernels.poly_mul_mod(A, Q, m),
                                     kernels.poly_trim(d), m)
        A, mu = _degree_reduce(kernels.poly_add_mod(A, carries[col], m),
                               Q, Qd, p, m)
        if lifts is not None:
            values, slope = lifts.finish(col, mu)
            h_cols.append(values)
            dh.append(slope)
        for i in range(6):
            rep = A[i] if i < len(A) else 0
            val = kernels.balanced(rep, m)
            if val % pC:
                raise PrecisionError("matrix entry not p-integral")
            matrix_ints[i][col] = (val // pC) % (p ** N)

    modulus = p ** N
    coeffs, adjugate = _char_series_coeffs(matrix_ints, modulus)
    b = [kernels.balanced(c, modulus) for c in coeffs]
    if not _weil_ok(b, p):
        raise PrecisionError("zeta coefficients violate the Weil bounds")
    if b[6] != p ** 3 or b[5] != p ** 2 * b[1] or b[4] != p * b[2]:
        raise PrecisionError("zeta functional equation failed")
    fd = FrobeniusData(curve, p, N, C, W, k_max, matrix_ints, adjugate,
                       dict(zip(disks, zip(*h_cols))), tuple(b), fp_points)
    if fd.point_count() != len(fd.fp_points):
        raise PrecisionError("trace does not match the point count")
    if lifts is None:
        log.debug("p = %d: no residue x with F(x) a nonzero square mod p, "
                  "so no generic disk; identity audit skipped", p)
    else:
        x0, y0, _ = lifts.points[0]
        identity_check(fd, x0, y0, dh)
    return fd


def _generic_disks(fp_points, p):
    """The canonical generic disks of the points fp_points of C(F_p),
    infinity first, as FpPoints: the audit disk, over _generic_residue's
    x, first."""
    disks = [q for q in fp_points[1:] if q.y and q == q.canonical(p)]
    xbar = _generic_residue(disks)
    disks.sort(key=lambda disk: disk.x != xbar)
    return disks


def _generic_residue(points):
    """The least nonzero x among the affine FpPoints with y != 0 of
    y^2 = f(x) over F_p; else 0 if such a point has x = 0, else None.
    At x = 0 the identity audit's sum_i M_ij x^i reads only row 0 of
    M; at a unit x it reads every row."""
    xs = {q.x for q in points if q.y}
    return min(xs - {0}, default=0 if 0 in xs else None)


def _floor_log(n, p):
    """floor(log_p n) for n >= 1."""
    e = 0
    while n >= p:
        n //= p
        e += 1
    return e


def _psi_digits(Q, dt, cks, C, p, W):
    """The Q-adic digits (7-coefficient lists, mod p^W) of
    Psi = sum_k cks[k] p^(C+k+1) Dt^k Q^(p (K - k)), K = len(cks) - 1,
    lowest first, made as they are read.

    Horner's rule in Dt with E = Q^p: H_K = cks[K] and
    H_(k-1) = p Dt H_k + cks[k-1] E^(K-k+1) give Psi = p^(C+1) H_0.  Dt
    has degree below 7p, so multiplication by Dt maps a Q-digit to p + 1
    digits (the packed map of _digit_columns) and an E-block of p digits
    to two blocks, the low half lo and the high half hi of its image.
    Nothing is divided by Q^p.

    The digits are graded twice.  Term j of H_k is
    cks[j] p^(j-k) Dt^(j-k) E^(K-j), which lies in E-blocks K-j to K-k;
    so E-block n of H_k (digits pn .. pn+p-1) is divisible by p^(K-n-k).
    And H_k enters Psi times p^(C+1+k), so it is needed only mod
    p^(W-C-1-k).  So block n is kept as S_n = block / p^(K-n-k) mod
    p^(e_n), e_n = W-C-1-K+n, which does not depend on k; W >= C + K + 2
    makes e_0 >= 1.  A step is

        S'_n = lo(Dt S_n) + p hi(Dt S_(n-1))  mod p^(e_n),

    and the new top block, n = K-k+1, is p hi(Dt S_(K-k)) + cks[k-1].
    S'_n reads S_n and the hi of S_(n-1), so a step rewrites the blocks in
    place, lowest first.  At the end block n of Psi is p^(C+1+K-n) S_n mod
    p^W: each digit is lifted as it is read, and each block is dropped
    once read, so Psi is never held lifted.  Psi has degree at most 7pK,
    so block K is a constant; its trailing zero digits are not made.

    Q is monic, so the digits commute with reduction mod any p^M: the map
    is built once, mod p^(e_K), and packed for each band of blocks that
    share a slot width, rounded up to 8 bytes, reduced mod the band's
    largest p^(e_n).  So a block's products are as wide as its own
    precision needs, which is what makes the grading by position pay.
    Where the band changes, the hi carried into the next block is
    repacked.  p S_(n-1) < p^(e_n), so lo + p hi sums at most 14(p+1)
    products of residues mod the band's modulus.  The grading goes by
    C+k+1, not by the valuation of the whole prefactor: cks[k] need not
    be a unit (binom(8, 4) = 70 at p = 7).
    """
    K = len(cks) - 1
    e0 = W - C - 1 - K
    if e0 < 1:
        raise PrecisionError("working precision leaves Psi no digit")
    mods = [p ** (e0 + n) for n in range(K + 1)]
    columns = _digit_columns(Q, dt, mods[K])
    width = 7 * p
    bands = [None] * (K + 1)
    band = None
    for n in range(K, -1, -1):
        slot = -(-kernels.slot_bytes(mods[n], len(columns[0])) // 8) * 8
        if band is None or band[0] != slot:
            cols = [kernels.pack([c % mods[n] for c in col], slot)
                    for col in columns]
            band = (slot, cols, 56 * slot, (1 << 56 * slot * p) - 1)
        bands[n] = band
    del columns  # the bands hold the map, packed
    blocks = [[cks[K] % mods[0]] + [0] * (width - 1)]
    for k in range(K, 0, -1):
        hi = 0
        for n, block in enumerate(blocks):
            slot, cols, dbits, low = bands[n]
            image = 0
            for t in range(width - 7, -1, -7):
                image = (image << dbits) + sum(map(mul, block[t:t + 7], cols))
            blocks[n] = kernels.unpack((image & low) + p * hi, slot, width,
                                       mods[n])
            hi = image >> (p * dbits)
            if bands[n + 1] is not bands[n]:
                hi = kernels.pack(kernels.unpack(hi, slot, width, mods[n]),
                                  bands[n + 1][0])
        n = len(blocks)
        top = kernels.unpack(p * hi, bands[n][0], width, mods[n])
        top[0] = (top[0] + cks[k - 1]) % mods[n]
        blocks.append(top)
    m = p ** W
    end = width
    while end and not any(blocks[K][end - 7:end]):
        end -= 7
    for n in range(K + 1):
        block, blocks[n] = blocks[n], None
        lift = p ** (C + 1 + K - n)
        for t in range(0, end if n == K else width, 7):
            yield [c * lift % m for c in block[t:t + 7]]


def _digit_columns(Q, g, m):
    """Multiplication by g on one Q-adic digit: x^i g = sum_u r_(i,u) Q^u
    with deg r_(i,u) < 7 and u < U = (deg g + 6) // 7 + 1, mod m, as seven
    columns; column i lists coefficient r of r_(i,u) at 7u + r.  Column 0
    holds the digits of g, split off by division by Q; column i + 1 is
    column i times x: x d_u = lc Q + (x d_u - lc Q), with lc the x^6
    coefficient of d_u carried into digit u + 1, and nothing carries out
    of digit U - 1, as deg x^i g < 7U for i <= 6."""
    n = 7 * ((len(g) + 5) // 7 + 1)
    coeffs = []
    rest = [c % m for c in g]
    while rest:
        rest, r = kernels.poly_divmod_monic_mod(rest, Q, m)
        coeffs += r + [0] * (7 - len(r))
    coeffs += [0] * (n - len(coeffs))
    columns = [coeffs]
    for _ in range(6):
        nxt = []
        carry = 0
        for t in range(0, n, 7):
            lc = coeffs[t + 6]
            nxt.append((carry - lc * Q[0]) % m)
            nxt.extend((coeffs[t + r - 1] - lc * Q[r]) % m
                       for r in range(1, 7))
            carry = lc
        coeffs = nxt
        columns.append(coeffs)
    return columns


def _digit_map(Q, g, m):
    """The columns of _digit_columns for _window_step, each packed into
    one integer, entry 7u + r in slot 7u + r; a slot holds any sum of 14U
    products of residues mod m."""
    columns = _digit_columns(Q, g, m)
    slot = kernels.slot_bytes(m, len(columns[0]))
    return slot, [kernels.pack(col, slot) for col in columns]


def _window_step(window, digit, dmap, m):
    """Digit t of g sum_t d_t Q^t, for dmap = _digit_map(Q, g, M), mod m
    for m dividing M, from d_t = digit (() past the last) and the window
    the step before returned; returns (digit t, the next window).

    sum_i d_t[i] P_i packs the digits of g d_t, and digit t of the result
    sums the u-th of them over d_(t-u), u < U.  So the window holds the
    packed images of d_0 .. d_(t-1) shifted down by t digits: adding that
    of d_t completes its lowest 7 slots, which form digit t, and the rest,
    shifted down by a digit, is the next window.  Past the last digit the
    window runs empty, and every digit after is zero."""
    slot, cols = dmap
    window += sum(map(mul, digit, cols))
    bits = 56 * slot
    return (kernels.unpack(window & ((1 << bits) - 1), slot, 7, m),
            window >> bits)


def _pole_map(Q, Qd, beta, m):
    """The linear maps c -> b = c beta mod Q and c -> a = (c - b Q') / Q on
    polynomials of degree <= 6, packed as one map (slot, columns): column i
    holds b(x^i) in slots 0 .. 6 and a(x^i), of degree <= 5, in slots
    7 .. 12, so sum_i c_i column_i packs b and a of c, for c reduced mod m.

    Each column's division by Q is checked to be exact.  The remainder
    c -> (c - b Q') mod Q = c (1 - beta Q') mod Q is linear in c mod m, so
    it vanishes on every c once it vanishes on x^0 .. x^6."""
    slot = kernels.slot_bytes(m, 7)
    cols = []
    for i in range(7):
        xi = [0] * i + [1]
        b = kernels.poly_divmod_monic_mod(
            kernels.poly_mul_mod(xi, beta, m), Q, m)[1]
        a = kernels.poly_div_exact_mod(
            kernels.poly_sub_mod(xi, kernels.poly_mul_mod(b, Qd, m), m), Q, m)
        cols.append(kernels.pack(b + [0] * (7 - len(b)) + a, slot))
    return slot, cols


def _pole_step(c, s, e, inv, pmap, p, m):
    """One y-exponent drop s -> s-2 on the lowest Q-adic digit c of the
    numerator, reduced mod m: c = aQ + bQ' with deg a <= 5, and c dx/2y^s
    leaves a + 2b'/(s-2) at y^(s-2).  One packed product of pmap =
    _pole_map(..) gives b and a; with s - 2 = p^e d', p not dividing d',
    and inv = 1/d' mod m, the primitive is -inv b / p^e and the correction
    2b'/(s-2) is 2 inv r b_r / p^e in degree r - 1.  Returns the new
    lowest digit (degree <= 5) and the subtracted primitive, both trimmed.
    Where e > 0 both divisions by p^e are checked; where e = 0 none is
    left."""
    slot, cols = pmap
    ba = kernels.unpack(sum(map(mul, c, cols)), slot, 13, m)
    prim = kernels.poly_trim([-inv * v % m for v in ba[:7]])
    corr = [2 * r * inv * ba[r] % m for r in range(1, 7)]
    if e:
        prim = [_exact_pdiv(v, p, e) for v in prim]
        corr = [_exact_pdiv(v, p, e) for v in corr]
    return (kernels.poly_trim([(a + v) % m for a, v in zip(ba[7:], corr)]),
            tuple(prim))


def _degree_reduce(A, Q, Qd, p, m):
    """Lower deg A to <= 5 against d(x^j y); returns A and the primitive
    mu(x) = sum_j mu_j x^j, as a trimmed coefficient tuple, for
    d(mu(x) y)."""
    A = list(A)
    mu = [0] * max(0, len(A) - 6)
    while len(A) > 6:
        n = len(A) - 1
        j = n - 6
        lc = A[n]
        if lc:
            d = 2 * j + 7
            e = ord_p(d, p)
            mu[j] = _exact_pdiv(lc * pow(d // p ** e, -1, m) % m, p, e) % m
            g = (kernels.poly_shift(kernels.poly_scale_mod(Q, 2 * j % m, m),
                                    j - 1) if j else [])
            g = kernels.poly_add_mod(g, kernels.poly_shift(Qd, j), m)
            sub = kernels.poly_scale_mod(g, mu[j], m)
            for i in range(min(len(sub), n)):
                A[i] = (A[i] - sub[i]) % m
        # the top coefficient cancels up to working-precision junk
        A = kernels.poly_trim(A[:n])
    return A, tuple(kernels.poly_trim(mu))


def _tail_length(p, N):
    """The least k_max with k - 1 - floor(log_p(2k + 1)) >= N for every
    k > k_max (_compute, 4).  That exponent never falls as k grows, so
    this is the least k_max whose k_max + 1 meets it."""
    k = N + 1
    while k - 1 - _floor_log(2 * k + 1, p) < N:
        k += 1
    return k - 1


def _budget(p, N):
    """(k_max, C, W) for the N digits the report reads and no more: k_max
    is the least series length whose dropped terms are multiples of p^N,
    C = L, the denominator bound of _compute, and
    W = max(N + C + L, C + k_max + 2), the second term leaving block 0 of
    the graded Psi a digit (the two agree for every prime from 7 to
    PRIME_CAP and N up to PREC_CAP)."""
    # deg_cap = (5p + 5) // 2 is the degree of column 5's numerator over y^1
    top = 2 * ((5 * p + 5) // 2) + 7
    k_max = _tail_length(p, N)
    C = _floor_log(2 * p * k_max + p, p) + _floor_log(top, p)
    return k_max, C, max(N + 2 * C, C + k_max + 2)


def frobenius_data(curve, p, prec, disks=None):
    """The Frobenius structure to p^prec, audited by _compute, with h at
    every canonical generic disk; given the points `disks` of C(F_p), with
    h at the audit disk and at the canonical generic disks under them."""
    curve.check_prime(p)
    fp_points = curve.fp_points(p)
    folded = _generic_disks(fp_points, p)
    if disks is not None:
        wanted = {q.canonical(p) for q in disks}
        folded = folded[:1] + [d for d in folded[1:] if d in wanted]
    return _compute(curve, p, prec, *_budget(p, prec), fp_points, folded)


def zeta_numerator(curve, p):
    """[b0..b6] with #C(F_{p^k}) determined by P(T) = sum b_i T^i."""
    # the Weil bounds put every |b_i| below p^6 / 2, so 6 digits read them;
    # the zeta reads no h, so h is folded at the audit disk alone
    return list(frobenius_data(curve, p, 6, ()).zeta)


def identity_check(fd, x, y, dh):
    """Audit phi^* w_j = sum_i M[i][j] w_i + d h_j mod p^N, column by
    column, at the point (x, y) with x any residue mod p^W, y a unit and
    y^2 = F(x) mod p^W, from dh[j] = p^C dh_j/dx there mod p^W (_compute
    folds it as it reduces); raise PrecisionError naming the first column
    where it fails.

    In dx-coefficients, times 2 y: with u = y^-2 and z = Dt(x) u^p,
    phi^* w_j gives x^(pj+p-1) y^(1-p) sum_k c_k p^(k+1) z^k, whose terms
    k >= N - 1 vanish mod p^N, and the right side gives sum_i M[i][j] x^i
    + 2 y h_j'.  The primitive is known as p^C h_j mod p^(W-L), so both
    sides are compared times p^C, mod p^(C+N)."""
    p, N, C = fd.p, fd.prec, fd.scale_exp
    mn = p ** N
    f = fd.curve.f_coeffs_mod(p, fd.work_exp)
    fx = kernels.poly_eval_mod(f, x, p * mn)
    fxp = kernels.poly_eval_mod(f, pow(x, p, p * mn), p * mn)
    dt = _exact_pdiv((fxp - pow(fx, p, p * mn)) % (p * mn), p, 1)
    u = pow(y * y % mn, -1, mn)
    z = dt * pow(u, p, mn) % mn
    series = 0
    for c in reversed(_half_binomial_units(N - 2, mn)):
        series = (series * z + c) * p % mn
    # column 0's left side; column j + 1's is x^p times column j's
    lhs = series * pow(u, (p - 1) // 2, mn) * pow(x, p - 1, mn) % mn
    for col in range(6):
        rhs = sum(fd.matrix_ints[i][col] * pow(x, i, mn) for i in range(6))
        if ((lhs - rhs) * p ** C - 2 * y * dh[col]) % p ** (C + N):
            raise PrecisionError(
                "frobenius identity fails at column %d: the budget "
                "argument of _compute failed" % col)
        lhs = lhs * pow(x, p, mn) % mn
