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
So the digits of Psi are computed once, p at a time by division by F^p;
each column's digits follow from the previous column's by multiplying by
x (x A_t = lc F + rest, the x^6 coefficient lc carrying into the next
digit); and every pole step works on a polynomial of degree below 7.  At
s = 1 the remaining digits are reassembled and the second telescope lowers
the x-degree via d(x^j y).  All arithmetic runs over Z/p^W with a p^C
prescale absorbing the small denominators the telescopes introduce; the
exact forms are kept so Coleman integration can evaluate the primitive h_j
with phi^* w_j = sum_i M[i][j] w_i + d h_j.

The zeta numerator P(T) = det(1 - T M) follows from the characteristic
polynomial; integrality, the functional equation and the point count over
F_p act as built-in audits, retried at higher working precision on failure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernels as kernels
from .errors import BadReductionError, PrecisionError
from .padic import PadicNumber, ord_p, sqrt_mod_pn


def _exact_pdiv(c, p, e):
    if e == 0:
        return c
    pe = p ** e
    if c % pe:
        raise PrecisionError("prescale budget exhausted in reduction")
    return c // pe


def _exact_poly_div(a, q, m):
    quo, rem = kernels.poly_divmod_monic_mod(a, q, m)
    if rem:
        raise PrecisionError("inexact division by the curve polynomial")
    return quo


def _lift_cofactor(Q, Qd, p, W):
    """beta with deg beta <= 6 and 1 - beta Q' divisible by Q mod p^W.

    Newton on the defect r = (1 - beta Q') mod Q: replacing beta by
    beta (1 + r) mod Q squares r, so the defect vanishes quadratically.
    """
    g, _, beta = kernels.poly_xgcd_mod(Q, Qd, p)
    if g != [1]:
        raise BadReductionError("curve polynomial not squarefree mod p")
    known = 1
    while known < W:
        known = min(2 * known, W)
        mm = p ** known
        r = kernels.poly_sub_mod([1], kernels.poly_mul_mod(beta, Qd, mm), mm)
        r = kernels.poly_divmod_monic_mod(r, Q, mm)[1]
        beta = kernels.poly_add_mod(
            beta, kernels.poly_mul_mod(beta, r, mm), mm)
        beta = kernels.poly_divmod_monic_mod(beta, Q, mm)[1]
    m = p ** W
    _exact_poly_div(
        kernels.poly_sub_mod([1], kernels.poly_mul_mod(beta, Qd, m), m), Q, m)
    return beta


def _half_binomial_units(k_max, m):
    """binom(-1/2, k) = (-1)^k binom(2k, k) / 4^k as residues mod m."""
    out = []
    for k in range(k_max + 1):
        num = (-1) ** k * math.comb(2 * k, k)
        out.append(num * pow(pow(4, k, m), -1, m) % m)
    return out


class FrobeniusData:
    """Matrix of Frobenius on the w_i basis plus the exact-form bookkeeping
    needed to evaluate the primitives h_j at points with unit y."""

    __slots__ = ("curve", "p", "prec", "delta", "scale_exp", "work_exp",
                 "k_max", "matrix_ints", "pole_prims", "deg_prims",
                 "zeta", "npoints", "_matrix_cache")

    def __init__(self, curve, p, prec, delta, scale_exp, work_exp, k_max,
                 matrix_ints, pole_prims, deg_prims, zeta, npoints):
        self.curve = curve
        self.p = p
        self.prec = prec
        self.delta = delta
        self.scale_exp = scale_exp
        self.work_exp = work_exp
        self.k_max = k_max
        self.matrix_ints = matrix_ints
        self.pole_prims = pole_prims
        self.deg_prims = deg_prims
        self.zeta = zeta
        self.npoints = npoints
        self._matrix_cache = None

    def matrix(self):
        """6x6 tuple of PadicNumbers: phi^*(w_j) = sum_i M[i][j] w_i + dh_j."""
        if self._matrix_cache is None:
            self._matrix_cache = tuple(
                tuple(PadicNumber.from_rational(v, self.p, abs_prec=self.prec)
                      if v else PadicNumber.zero(self.p, self.prec)
                      for v in row)
                for row in self.matrix_ints)
        return self._matrix_cache

    def jacobian_order(self):
        return sum(self.zeta)

    def _wrap_scaled(self, acc):
        if acc == 0:
            return PadicNumber.zero(self.p, self.prec)
        value = Fraction(acc, self.p ** self.scale_exp)
        return PadicNumber.from_rational(value, self.p, abs_prec=self.prec)

    def primitive_value(self, col, x_int, y_int):
        """h_col at a point given by integer residues with y a unit."""
        return self._wrap_scaled(self._primitive_acc(col, x_int, y_int))

    def _primitive_acc(self, col, x_int, y_int):
        """p^scale_exp h_col at (x_int, y_int), reduced mod p^work_exp.
        Every term is odd in y, so at (x_int, -y_int) it is the negative."""
        m = self.p ** self.work_exp
        yinv2 = pow(y_int * y_int % m, -1, m)
        acc = 0
        power = {}
        for s, b in self.pole_prims[col]:
            e = (s - 1) // 2
            if e not in power:
                power[e] = pow(yinv2, e, m)
            # y^(2-s) = y * (y^-2)^((s-1)/2) for odd s
            val = kernels.poly_eval_mod(list(b), x_int, m)
            acc = (acc + val * y_int % m * power[e]) % m
        for j, mu in self.deg_prims[col]:
            acc = (acc + mu * pow(x_int, j, m) % m * y_int) % m
        return acc

    def primitive_dx(self, col, x_int, y_int):
        """d h_col / dx at a point, using y' = F'(x) / 2y."""
        m = self.p ** self.work_exp
        Qd = kernels.poly_deriv_mod(
            self.curve.f_coeffs_mod(self.p, self.work_exp), m)
        qd_val = kernels.poly_eval_mod(Qd, x_int, m)
        yinv = pow(y_int, -1, m)
        yinv2 = yinv * yinv % m
        inv2 = pow(2, -1, m)
        acc = 0
        for s, b in self.pole_prims[col]:
            e = (s - 1) // 2
            ye = pow(yinv2, e, m)
            bd = kernels.poly_deriv_mod(b, m)
            bval = kernels.poly_eval_mod(list(b), x_int, m)
            bdval = kernels.poly_eval_mod(bd, x_int, m)
            # d(b y^(2-s))/dx = b' y^(2-s) + (2-s)/2 b F' y^(-s)
            acc = (acc + bdval * y_int % m * ye) % m
            acc = (acc + (2 - s) * inv2 % m * bval % m * qd_val % m
                   * ye % m * yinv) % m
        for j, mu in self.deg_prims[col]:
            xj = pow(x_int, j, m)
            if j:
                acc = (acc + mu * j % m * pow(x_int, j - 1, m) % m * y_int) % m
            acc = (acc + mu * xj % m * qd_val % m * inv2 % m * yinv) % m
        return self._wrap_scaled(acc)


def _char_series_coeffs(mat, modulus, p):
    """Coefficients of det(1 - T mat) mod modulus via Faddeev-LeVerrier."""
    n = len(mat)
    coeffs = [1]
    ak = [row[:] for row in mat]
    for k in range(1, n + 1):
        tr = sum(ak[i][i] for i in range(n)) % modulus
        ck = -tr * pow(k, -1, modulus) % modulus
        coeffs.append(ck)
        if k == n:
            break
        nxt = [[(ak[i][j] + (ck if i == j else 0)) % modulus
                for j in range(n)] for i in range(n)]
        ak = [[sum(mat[i][t] * nxt[t][j] for t in range(n)) % modulus
               for j in range(n)] for i in range(n)]
    return coeffs


def _balanced(r, modulus):
    r %= modulus
    return r - modulus if r > modulus // 2 else r


def _weil_ok(b, p):
    for i, bi in enumerate(b):
        bound = math.comb(6, i) ** 2 * p ** i
        if bi * bi > bound:
            return False
    return True


def _compute(curve, p, N, delta, scale_bump):
    k_max = N + delta - 1
    s_max = 2 * p * k_max + p
    deg_cap = (5 * p + 5) // 2
    # denominators stay within a few digits of integral; budget generously
    C = 2 * (_ceil_log(s_max, p) + _ceil_log(2 * deg_cap + 7, p)) + 2
    C += scale_bump
    W = N + delta + 2 * C
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
    # C + k + 1 < W for every k <= k_max, so no prefactor vanishes mod m
    pref = [cks[k] * pow(p, C + k + 1, m) % m for k in range(k_max + 1)]

    J = (s_max - 1) // 2
    digits = _psi_digits(Q, dt, pref, p, m)
    matrix_ints = [[0] * 6 for _ in range(6)]
    pole_prims = []
    deg_prims = []
    pC = p ** C

    for col in range(6):
        # digits of x^(p col + p - 1) Psi
        for _ in range(p if col else p - 1):
            digits = _times_x(digits, Q, m)
        prims = []
        carry = []
        for j in range(J):
            c = (kernels.poly_add_mod(kernels.poly_trim(digits[j]), carry, m)
                 if j < len(digits) else carry)
            carry = _pole_step(c, s_max - 2 * j, Q, Qd, beta, p, m, prims)
        # the numerator over y^1: carry plus the digits from J on
        A = []
        for d in reversed(digits[J:]):
            A = kernels.poly_add_mod(kernels.poly_mul_mod(A, Q, m),
                                     kernels.poly_trim(d), m)
        A, dprims = _degree_reduce(kernels.poly_add_mod(A, carry, m),
                                   Q, Qd, p, m)
        if len(A) > 6:
            raise PrecisionError("degree reduction did not terminate")
        for i in range(6):
            rep = A[i] if i < len(A) else 0
            val = _balanced(rep, m)
            if val % pC:
                raise PrecisionError("matrix entry not p-integral")
            matrix_ints[i][col] = (val // pC) % (p ** N)
        pole_prims.append(tuple(prims))
        deg_prims.append(tuple(dprims))

    modulus = p ** N
    b = [_balanced(c, modulus) for c in _char_series_coeffs(
        matrix_ints, modulus, p)]
    if not _weil_ok(b, p):
        raise PrecisionError("zeta coefficients violate the Weil bounds")
    if b[6] != p ** 3 or b[5] != p ** 2 * b[1] or b[4] != p * b[2]:
        raise PrecisionError("zeta functional equation failed")
    npoints = len(kernels.fp_curve_points(curve.f_coeffs_mod(p, 1), p)) + 1
    if p + 1 + b[1] != npoints:
        raise PrecisionError("trace does not match the point count")

    return FrobeniusData(curve, p, N, delta, C, W, k_max,
                         matrix_ints, tuple(pole_prims), tuple(deg_prims),
                         tuple(b), npoints)


def _ceil_log(n, p):
    e = 0
    v = 1
    while v < n:
        v *= p
        e += 1
    return e


def _psi_digits(Q, dt, pref, p, m):
    """Q-adic digits (7-coefficient lists) of
    Psi = sum_k pref[k] Dt^k Q^(p (k_max - k)), k_max = len(pref) - 1.

    Term k starts at digit p (k_max - k), so the digits come out p at a
    time from k = k_max down: add the term to what is left over, split off
    Q^p, and expand the remainder (degree < 7p) digit by digit.
    """
    k_max = len(pref) - 1
    dpow = [[1]]
    for _k in range(k_max):
        dpow.append(kernels.poly_mul_mod(dpow[-1], dt, m))
    qp = kernels.poly_pow_mod(Q, p, m)
    digits = []
    rest = []
    for k in range(k_max, -1, -1):
        rest = kernels.poly_add_mod(
            rest, kernels.poly_scale_mod(dpow[k], pref[k], m), m)
        if k:
            rest, low = kernels.poly_divmod_monic_mod(rest, qp, m)
            n = p
        else:
            low, n = rest, 0
        while low or n > 0:
            low, d = kernels.poly_divmod_monic_mod(low, Q, m)
            digits.append(d + [0] * (7 - len(d)))
            n -= 1
    return digits


def _times_x(digits, Q, m):
    """Digits of x * sum_t d_t Q^t: x d_t = lc Q + rest with lc the x^6
    coefficient of d_t, and lc carries into the next digit."""
    q_up = Q[1:7]
    out = []
    carry = 0
    for d in digits:
        lc = d[6]
        if lc:
            out.append([(carry - lc * Q[0]) % m]
                       + [(v - lc * q) % m for v, q in zip(d, q_up)])
        else:
            out.append([carry] + d[:6])
        carry = lc
    if carry:
        out.append([carry, 0, 0, 0, 0, 0, 0])
    return out


def _pole_step(c, s, Q, Qd, beta, p, m, prims):
    """One y-exponent drop s -> s-2 on the lowest Q-adic digit c of the
    numerator: c = aQ + bQ' with deg a <= 5, and c dx/2y^s leaves
    a + 2b'/(s-2) at y^(s-2).  Returns that polynomial (degree <= 5) and
    appends the subtracted primitive."""
    b = kernels.poly_divmod_monic_mod(
        kernels.poly_mul_mod(c, beta, m), Q, m)[1]
    a = _exact_poly_div(
        kernels.poly_sub_mod(c, kernels.poly_mul_mod(b, Qd, m), m), Q, m)
    d = s - 2
    e = ord_p(d, p)
    dtild = d // p ** e
    inv_dt = pow(dtild, -1, m)
    two_over = 2 * inv_dt % m
    bd = kernels.poly_deriv_mod(b, m)
    corr = [_exact_pdiv(v * two_over % m, p, e) % m for v in bd]
    if b:
        neg_over = -inv_dt % m
        prim = tuple(_exact_pdiv(v * neg_over % m, p, e) % m for v in b)
        prims.append((s, prim))
    return kernels.poly_add_mod(a, kernels.poly_trim(corr), m)


def _degree_reduce(A, Q, Qd, p, m):
    """Lower deg A to <= 5 against d(x^j y); returns (A, primitives)."""
    A = list(A)
    prims = []
    while len(A) > 6:
        n = len(A) - 1
        j = n - 6
        lc = A[n]
        if lc:
            d = 2 * j + 7
            e = ord_p(d, p)
            mu = _exact_pdiv(lc * pow(d // p ** e, -1, m) % m, p, e) % m
            g = (kernels.poly_shift(kernels.poly_scale_mod(Q, 2 * j % m, m),
                                    j - 1) if j else [])
            g = kernels.poly_add_mod(g, kernels.poly_shift(Qd, j), m)
            sub = kernels.poly_scale_mod(g, mu, m)
            for i in range(min(len(sub), n)):
                A[i] = (A[i] - sub[i]) % m
            prims.append((j, mu))
        # the top coefficient cancels up to working-precision junk
        A = kernels.poly_trim(A[:n])
    return A, prims


# headroom digits of the successive attempts
_DELTAS = (4, 8, 16)


def frobenius_data(curve, p, prec):
    """Audited Frobenius structure; retries with more headroom on failure."""
    curve.check_prime(p)
    last = None
    for attempt, delta in enumerate(_DELTAS):
        try:
            return _compute(curve, p, prec, delta, scale_bump=4 * attempt)
        except PrecisionError as exc:
            last = exc
    raise PrecisionError("frobenius computation failed: %s" % last)


def zeta_numerator(curve, p):
    """[b0..b6] with #C(F_{p^k}) determined by P(T) = sum b_i T^i."""
    return list(frobenius_data(curve, p, max(6, _ceil_log(40, p) + 2)).zeta)


def _irreducible_low(p, k):
    if k == 1:
        return [0]
    for a in range(p):
        for b in range(1, p):
            if all((pow(x, k, p) + a * x + b) % p for x in range(p)):
                return [b, a] + [0] * (k - 2)
    raise ValueError("no irreducible polynomial found")


def brute_zeta_numerator(curve, p):
    """Zeta numerator from naive point counts over F_p, F_p^2, F_p^3."""
    fbar = curve.f_coeffs_mod(p, 1)
    counts = []
    for k in (1, 2, 3):
        affine = kernels.count_points_gf(fbar, p, k, _irreducible_low(p, k))
        counts.append(affine + 1)
    pi = [p ** k + 1 - counts[k - 1] for k in (1, 2, 3)]
    e1 = pi[0]
    e2, rem = divmod(e1 * pi[0] - pi[1], 2)
    if rem:
        raise ArithmeticError("inconsistent point counts")
    e3, rem = divmod(e2 * pi[0] - e1 * pi[1] + pi[2], 3)
    if rem:
        raise ArithmeticError("inconsistent point counts")
    return [1, -e1, e2, -e3, p * e2, -p * p * e1, p ** 3]


def identity_check(fd, xbar):
    """Digits to which phi^* w_j = sum_i M[i][j] w_i + d h_j holds at a
    generic-disk test point over xbar; raises if the disk is unusable."""
    p, K = fd.p, fd.prec
    mk = p ** K
    Q = fd.curve.f_coeffs_mod(p, K + 1)
    x = xbar % p
    y2 = kernels.poly_eval_mod(Q, x, mk)
    if y2 % p == 0:
        raise ValueError("test point must avoid Weierstrass disks")
    y = sqrt_mod_pn(y2 % mk, p, K)
    if y is None:
        raise ValueError("no rational point over this residue")
    qxp = kernels.poly_eval_mod(Q, pow(x, p, p ** (K + 1)), p ** (K + 1))
    qp = pow(kernels.poly_eval_mod(Q, x, p ** (K + 1)), p, p ** (K + 1))
    dtx = _exact_pdiv((qxp - qp) % p ** (K + 1), p, 1) % mk
    yinv = pow(y, -1, mk)
    inv2 = pow(2, -1, mk)
    cks = _half_binomial_units(K, mk)
    mat = fd.matrix()
    worst = K
    for col in range(6):
        lhs = 0
        for k in range(K):
            term = (cks[k] * pow(p, k + 1, mk) % mk
                    * pow(x, p * col + p - 1, mk) % mk
                    * pow(dtx, k, mk) % mk
                    * pow(yinv, 2 * p * k + p, mk) % mk * inv2) % mk
            lhs = (lhs + term) % mk
        rhs = fd.primitive_dx(col, x, y)
        for i in range(6):
            wi = pow(x, i, mk) * yinv % mk * inv2 % mk
            rhs = rhs + mat[i][col] * PadicNumber.from_rational(
                wi, p, abs_prec=K)
        lhs_p = PadicNumber.from_rational(lhs, p, abs_prec=K) if lhs \
            else PadicNumber.zero(p, K)
        diff = rhs - lhs_p
        if not diff.is_zero:
            raise PrecisionError(
                "frobenius identity fails at column %d" % col)
        worst = min(worst, K if diff.is_exact_zero else diff.valuation)
    return worst
