"""Dense polynomial arithmetic over Q and GF(p), with extended Euclid.

qharmonic keeps only what it needs of its polynomial types: exact
division of UniPoly (to build Phi_n) and the ModPoly product. The
cyclotomic tests compare the package against the slow route it
replaced, in which every residue is a polynomial reduced by division
after each product and every inverse comes from extended Euclid. That
route lives here: QPoly and GFPoly are UniPoly and ModPoly with their
ring arithmetic, so they compare equal to the .poly forms and to
cyclotomic_poly.
"""
from fractions import Fraction

from qharmonic.coeff import ModPoly, UniPoly
from qharmonic.errors import QHarmonicError

_scalar = (int, Fraction)


class BothZero(QHarmonicError):
    """Extended gcd of the zero polynomial with itself."""


class QPoly(UniPoly):
    """A UniPoly with ring arithmetic; results are QPoly."""

    __slots__ = ()

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, _scalar):
            other = UniPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return QPoly(a)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _scalar):
            other = UniPoly([other])
        return self + -QPoly(other.coeffs)

    def __mul__(self, other):
        if isinstance(other, _scalar):
            return QPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        quo, rem = UniPoly.__divmod__(self, other)
        return QPoly(quo.coeffs), QPoly(rem.coeffs)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        inv = 1 / self.leading()
        return QPoly([c * inv for c in self.coeffs])


def poly_ext_gcd(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly, QPoly]:
    """Extended Euclid over Q[x]: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = QPoly(a.coeffs), QPoly(b.coeffs)
    if r0.is_zero() and r1.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    s0, s1 = QPoly([1]), QPoly()
    t0, t1 = QPoly(), QPoly([1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.leading()
    inv = 1 / lead
    return r0.monic(), s0 * inv, t0 * inv


class GFPoly(ModPoly):
    """A ModPoly with ring arithmetic; results are GFPoly."""

    __slots__ = ()

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = (a[i] + c) % self.p
        return GFPoly(self.p, a)

    def __neg__(self):
        return GFPoly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-GFPoly(other.p, other.coeffs))

    def __mul__(self, other):
        return GFPoly(self.p, ModPoly.__mul__(self, other).coeffs)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        quo = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = len(other.coeffs) - 1
        lead_inv = pow(other.coeffs[-1], -1, p)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] * lead_inv % p
            quo[i - d] = f
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] = (rem[i - d + j] - f * c) % p
        return GFPoly(p, quo), GFPoly(p, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]


def modpoly_ext_gcd(a: GFPoly, b: GFPoly) -> tuple[GFPoly, GFPoly, GFPoly]:
    """Extended Euclid over GF(p)[x]: (g, s, t) with s*a + t*b = g, g monic."""
    p = a.p
    r0, r1 = GFPoly(p, a.coeffs), GFPoly(p, b.coeffs)
    if r0.is_zero() and r1.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    s0, s1 = GFPoly(p, [1]), GFPoly(p)
    t0, t1 = GFPoly(p), GFPoly(p, [1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv = pow(r0.coeffs[-1], -1, p)
    return r0 * inv, s0 * inv, t0 * inv
