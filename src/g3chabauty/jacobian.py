"""Mumford representation and Cantor arithmetic on J(F_p) for genus 3.

Divisor classes are pairs (u, v) of F_p polynomials with u monic of degree
<= 3, deg v < deg u, and u | v^2 - f.  The curve has one point at infinity
(odd-degree model), so every class has a unique reduced representative.
"""

from __future__ import annotations

from . import _kernels as kernels
from .curve import FpPoint
from .errors import InputError


def _pexactdiv(a, b, p):
    q, r = kernels.poly_divmod_monic_mod(a, b, p)
    if r:
        raise InputError("division was not exact")
    return q


class MumfordDivisorFp:
    """Reduced Mumford pair over F_p for y^2 = f(x), deg f = 7, genus 3."""

    __slots__ = ("p", "f", "u", "v")

    def __init__(self, p, f, u, v, reduce=False):
        self.p = p
        self.f = tuple(f)
        u = kernels.poly_trim([c % p for c in u])
        v = kernels.poly_trim([c % p for c in v])
        if reduce:
            u, v = self._reduce(u, v)
        if not u or u[-1] != 1:
            raise InputError("u must be monic")
        if len(u) - 1 > 3:
            raise InputError("unreduced divisor")
        if len(v) >= len(u):
            raise InputError("deg v must be < deg u")
        chk = kernels.poly_sub_mod(kernels.poly_mul_mod(v, v, p),
                                   list(self.f), p)
        if kernels.poly_divmod_monic_mod(chk, u, p)[1]:
            raise InputError("v^2 - f not divisible by u")
        self.u = tuple(u)
        self.v = tuple(v)

    def _reduce(self, u, v):
        p, f = self.p, list(self.f)
        while len(u) - 1 > 3:
            vv = kernels.poly_mul_mod(v, v, p)
            u2 = _pexactdiv(kernels.poly_sub_mod(f, vv, p), u, p)
            u2 = kernels.poly_scale_mod(u2, pow(u2[-1], -1, p), p)
            v = kernels.poly_divmod_monic_mod(v, u2, p)[1]
            v = kernels.poly_scale_mod(v, -1, p)
            u = u2
        return u, v

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(p, f):
        return MumfordDivisorFp(p, f, [1], [])

    @staticmethod
    def from_point(pt: FpPoint, p, f):
        """The class [P - infinity]."""
        if pt.is_infinity:
            return MumfordDivisorFp.identity(p, f)
        return MumfordDivisorFp(p, f, [(-pt.x) % p, 1], [pt.y % p])

    # -- group law -----------------------------------------------------------

    @property
    def is_identity(self):
        return self.u == (1,)

    def __eq__(self, other):
        return (isinstance(other, MumfordDivisorFp) and self.p == other.p
                and self.u == other.u and self.v == other.v)

    def __hash__(self):
        return hash((self.p, self.u, self.v))

    def __neg__(self):
        return MumfordDivisorFp(self.p, self.f, list(self.u),
                                kernels.poly_scale_mod(self.v, -1, self.p))

    def __add__(self, other):
        if not isinstance(other, MumfordDivisorFp):
            return NotImplemented
        if self.p != other.p or self.f != other.f:
            raise InputError("divisors on different curves")
        p, f = self.p, list(self.f)
        u1, v1 = list(self.u), list(self.v)
        u2, v2 = list(other.u), list(other.v)
        g1, e1, e2 = kernels.poly_xgcd_mod(u1, u2, p)
        vsum = kernels.poly_add_mod(v1, v2, p)
        if g1 == [1]:
            d, c1, c2 = [1], [1], []
        else:
            d, c1, c2 = kernels.poly_xgcd_mod(g1, vsum, p)
        mul, add = kernels.poly_mul_mod, kernels.poly_add_mod
        s1 = mul(c1, e1, p)
        s2 = mul(c1, e2, p)
        s3 = c2
        u = _pexactdiv(mul(u1, u2, p), mul(d, d, p), p)
        num = add(add(mul(mul(s1, u1, p), v2, p),
                      mul(mul(s2, u2, p), v1, p), p),
                  mul(s3, add(mul(v1, v2, p), f, p), p), p)
        v = kernels.poly_divmod_monic_mod(_pexactdiv(num, d, p), u, p)[1]
        return MumfordDivisorFp(p, self.f, u, v, reduce=True)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (-n) * (-self)
        acc = MumfordDivisorFp.identity(self.p, self.f)
        base = self
        while n:
            if n & 1:
                acc = acc + base
            n >>= 1
            if n:
                base = base + base
        return acc

    def order(self, group_order):
        """Order of the class given a multiple of it (the group order)."""
        if group_order * self != MumfordDivisorFp.identity(self.p, self.f):
            raise InputError("group_order does not annihilate the class")
        o = group_order
        for q in _prime_factors(group_order):
            while o % q == 0 and ((o // q) * self).is_identity:
                o //= q
        return o

    def __repr__(self):
        return "MumfordDivisorFp(u=%s, v=%s)" % (list(self.u), list(self.v))


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out
