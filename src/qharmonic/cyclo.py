"""Exact arithmetic in Q(zeta_n) and in Z[zeta_p]/(p), and the finite
multiple harmonic q-series z_n(k; zeta_n) evaluated there.

Everything here is plain int arithmetic. An element of Q(zeta_n) is an
int numerator vector of degree < phi(n), reduced modulo Phi_n(x), over
one positive int denominator, with gcd 1 across all of them. Phi_n is
monic with integer coefficients, so a product is an int convolution, a
division-free fold by Phi_n and one gcd. The prime quotient
Z[zeta_p]/(p) = GF(p)[x]/Phi_p(x) is an int vector mod p, folded with
x^p = 1 and then x^(p-1) = -(1 + ... + x^(p-2)). That ring has
nilpotents (Phi_p = (x-1)^(p-1) mod p), which is fine -- it is a ring,
not a field, and the only inverses ever needed are those of the
cyclotomic units [m], which come from closed forms.

The evaluators group the terms of an e-polynomial by their power of
h = 1 - zeta: each group is a rational combination of z_n values, and it
is multiplied once by a cached (1 - zeta)^e.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd, lcm
from typing import Iterable

from .algebra import BAR1, EPoly, Index, hoffman_dual, in_I, index_dep
from .coeff import ModPoly, UniPoly, modpoly_ext_gcd, poly_ext_gcd, poly_str
from .derivations import _compositions
from .errors import (
    BadDenominator,
    HasBarEntry,
    NonInvertible,
    OutOfRange,
    PreconditionViolated,
)
from .products import l_map_epoly

_scalar = (int, Fraction)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> UniPoly:
    """Phi_n, computed by dividing x^n - 1 by the Phi_d for proper divisors d.

    >>> str(cyclotomic_poly(6))
    '1 - x + x^2'
    """
    if n < 1:
        raise OutOfRange("cyclotomic polynomials need n >= 1")
    poly = UniPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            quo, rem = divmod(poly, cyclotomic_poly(d))
            assert rem.is_zero()
            poly = quo
    return poly


class CycField:
    """Q(zeta_n) as Q[x] modulo the n-th cyclotomic polynomial."""

    __slots__ = ("n", "modulus", "degree", "_fold")

    def __init__(self, n: int):
        if n < 2:
            raise OutOfRange("cyclotomic fields here need n >= 2")
        self.n = n
        self.modulus = cyclotomic_poly(n)
        self.degree = self.modulus.degree()
        # Phi_n is monic with int coefficients: x^d = -sum_(j<d) phi_j x^j.
        self._fold = tuple(
            (j, -int(c)) for j, c in enumerate(self.modulus.coeffs[:-1]) if c
        )

    def __repr__(self):
        return f"Q(zeta_{self.n})"

    def element(self, coeffs: Iterable[Fraction]) -> "CycNum":
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return CycNum(self, [c.numerator * (den // c.denominator) for c in cs], den)

    def zeta(self) -> "CycNum":
        return CycNum(self, [0, 1])

    def one(self) -> "CycNum":
        return CycNum(self, [1])

    def zero(self) -> "CycNum":
        return CycNum(self, [])

    def from_rational(self, c) -> "CycNum":
        c = Fraction(c)
        return CycNum(self, [c.numerator], c.denominator)


@lru_cache(maxsize=None)
def cyc_field(n: int) -> CycField:
    return CycField(n)


class CycNum:
    """An element num(zeta_n)/den of Q(zeta_n).

    num is an int tuple of at most phi(n) entries without trailing zeros,
    den a positive int, and gcd(den, *num) = 1, so each value has exactly
    one representation.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycField, num: list[int], den: int = 1):
        """num(zeta)/den for an int list num (consumed) and an int den > 0."""
        d = field.degree
        for i in range(len(num) - 1, d - 1, -1):
            c = num[i]
            if c:
                base = i - d
                for j, f in field._fold:
                    num[base + j] += c * f
        del num[d:]
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        else:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self.field, self.num, self.den = field, tuple(num), den

    @property
    def poly(self) -> UniPoly:
        """The residue as a rational polynomial of degree < phi(n)."""
        return UniPoly([Fraction(c, self.den) for c in self.num])

    def _coerce(self, other) -> "CycNum":
        if isinstance(other, CycNum):
            if other.field.n != self.field.n:
                raise ValueError("mixed cyclotomic fields")
            return other
        if isinstance(other, _scalar):
            return self.field.from_rational(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.field.n, self.num, self.den))

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _lincomb(self.field, ((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.field, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _lincomb(self.field, ((1, self), (-1, other)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is int:
            return CycNum(self.field, [other * x for x in self.num], self.den)
        if type(other) is Fraction:
            cn, cd = other.numerator, other.denominator
            return CycNum(self.field, [cn * x for x in self.num], self.den * cd)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return self.field.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return CycNum(self.field, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        g, s, _ = poly_ext_gcd(self.poly, self.field.modulus)
        # Phi_n is irreducible over Q, so the gcd with any nonzero residue is 1.
        assert g.degree() == 0
        return self.field.element((s * (1 / g.leading())).coeffs)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __str__(self):
        return poly_str([Fraction(c, self.den) for c in self.num], "z")

    def __repr__(self):
        return f"{self} (n={self.field.n})"


def cyc_inv(v: CycNum) -> CycNum:
    """Field inverse via extended Euclid against Phi_n."""
    return v.inverse()


def _lincomb(field: CycField, pairs) -> CycNum:
    """sum c*v over (rational c, CycNum v) pairs, with one gcd at the end."""
    acc: list[int] = []
    den = 1
    for c, v in pairs:
        if not v.num:
            continue
        if type(c) is int:
            cn, vd = c, v.den
        else:
            cn, vd = c.numerator, v.den * c.denominator
        common = lcm(den, vd)
        if common != den:
            scale = common // den
            acc = [x * scale for x in acc]
            den = common
        cn *= common // vd
        if len(acc) < len(v.num):
            acc.extend([0] * (len(v.num) - len(acc)))
        for i, x in enumerate(v.num):
            acc[i] += cn * x
    return CycNum(field, acc, den)


@lru_cache(maxsize=None)
def _one_minus_root_inv(n: int, m: int) -> CycNum:
    """1/(1 - w) for w = zeta_n^m != 1, in closed form.

    With N = n/gcd(n, m) the order of w, (1 - w) sum_(j<N) j w^j = -N
    because 1 + w + ... + w^(N-1) = 0; so 1/(1 - w) = -(1/N) sum_(j<N) j w^j.
    """
    order = n // gcd(n, m)
    vec = [0] * n
    for j in range(1, order):
        vec[j * m % n] -= j
    return CycNum(cyc_field(n), vec, order)


@lru_cache(maxsize=None)
def _q_int_inv_cyc(n: int, m: int) -> CycNum:
    """[m]^(-1) at q = zeta_n, 0 < m < n: [m] = (1 - zeta^m)/(1 - zeta)."""
    return _h_power_cyc(n, 1) * _one_minus_root_inv(n, m)


@lru_cache(maxsize=None)
def _h_power_cyc(n: int, e: int) -> CycNum:
    """h^e at h = 1 - zeta_n, for any integer e."""
    if e < 0:
        return _one_minus_root_inv(n, 1) ** (-e)
    return CycNum(cyc_field(n), [1, -1]) ** e


@lru_cache(maxsize=None)
def _f_factor_cyc(n: int, entry, m: int) -> CycNum:
    fld = cyc_field(n)
    zeta_m = fld.zeta() ** m
    if entry is BAR1:
        return zeta_m * _q_int_inv_cyc(n, m)
    return fld.zeta() ** ((entry - 1) * m) * _q_int_inv_cyc(n, m) ** entry


@lru_cache(maxsize=None)
def _zn_cum(n: int, suffix: Index) -> tuple:
    """cum[m] = sum over m >= m_1 > ... > m_r >= 1 of prod F at q = zeta_n."""
    fld = cyc_field(n)
    if not suffix:
        return tuple([fld.one()] * n)
    head, rest = suffix[0], suffix[1:]
    sub = _zn_cum(n, rest)
    out = [fld.zero()]
    acc = fld.zero()
    for m in range(1, n):
        acc = acc + _f_factor_cyc(n, head, m) * sub[m - 1]
        out.append(acc)
    return tuple(out)


def zn_eval(k: Index, n: int) -> CycNum:
    """z_n(k; zeta_n): the nested sum truncated below n, exactly in Q(zeta_n).

    Defined for every index in I-hat; automatically 0 when dep(k) >= n.
    """
    if n < 2:
        raise OutOfRange("z_n needs n >= 2")
    return _zn_cum(n, tuple(k))[n - 1]


def _h_grouped(x: EPoly, n: int, value) -> CycNum:
    """sum over terms c(h) e_k of x of c(1 - zeta_n) value(k): the values
    sharing a power of h are combined first, then multiplied once."""
    fld = cyc_field(n)
    groups: dict[int, list] = {}
    for k, c in x.terms.items():
        v = value(k)
        for e, coeff in c.terms.items():
            groups.setdefault(e, []).append((coeff, v))
    out = fld.zero()
    for e, pairs in groups.items():
        part = _lincomb(fld, pairs)
        out = out + (part if e == 0 else part * _h_power_cyc(n, e))
    return out


def zn_map(x: EPoly, n: int) -> CycNum:
    """Linear extension of zn_eval with h acting as 1 - zeta_n."""
    return _h_grouped(x, n, lambda k: _zn_cum(n, k)[n - 1])


def ones_bar_closed_form(n: int, r: int) -> CycNum:
    """z_n({1bar}^r) = ((-1)^r / n) C(n, r+1) (1 - zeta_n)^r."""
    if not (0 <= r < n):
        raise OutOfRange("need 0 <= r < n")
    return Fraction((-1) ** r * comb(n, r + 1), n) * _h_power_cyc(n, r)


def A_m_helper(m: int, x: EPoly, n: int) -> CycNum:
    """The sum with the outer variable pinned to m, at q = zeta_n.

    A_m(e_k) = F_(k_1)(m) * (truncated sum below m over the rest);
    A_m(1) = 1 by convention.
    """
    if not (1 <= m < n):
        raise OutOfRange("need 1 <= m < n")
    fld = cyc_field(n)

    def value(k):
        if not k:
            return fld.one()
        return _f_factor_cyc(n, k[0], m) * _zn_cum(n, k[1:])[m - 1]

    return _h_grouped(x, n, value)


def _reduce_mod_p(c: Fraction, p: int) -> int:
    if c.denominator % p == 0:
        raise BadDenominator(f"denominator of {c} is divisible by {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


def fmzv_reduce(v: CycNum, p: int) -> int:
    """Reduce modulo the prime ideal (1 - zeta_p): send zeta_p to 1, then mod p.

    The identification Z[zeta_p]/(1-zeta_p) = GF(p) is fixed by zeta_p -> 1,
    the standard choice.
    """
    if v.field.n != p:
        raise ValueError("value does not live over Q(zeta_p)")
    return _reduce_mod_p(Fraction(sum(v.num), v.den), p)


class PrimeCycNum:
    """An element of Z[zeta_p]/(p) = GF(p)[x]/Phi_p(x).

    coeffs is an int tuple of at most p - 1 entries in [0, p), without
    trailing zeros. The constructor takes a ModPoly or any int sequence.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, poly: ModPoly | Iterable[int]):
        cs = list(poly.coeffs if isinstance(poly, ModPoly) else poly)
        for i in range(len(cs) - 1, p - 1, -1):
            cs[i - p] += cs[i]  # x^p = 1
        del cs[p:]
        if len(cs) == p:
            top = cs.pop()  # x^(p-1) = -(1 + x + ... + x^(p-2))
            cs = [c - top for c in cs]
        cs = [c % p for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        self.p, self.coeffs = p, tuple(cs)

    @property
    def poly(self) -> ModPoly:
        return ModPoly(self.p, self.coeffs)

    def _coerce(self, other):
        if isinstance(other, PrimeCycNum):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, int):
            return PrimeCycNum(self.p, [other])
        if isinstance(other, Fraction):
            return PrimeCycNum(self.p, [_reduce_mod_p(other, self.p)])
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return PrimeCycNum(self.p, [a + b for a, b in pairs])

    __radd__ = __add__

    def __neg__(self):
        return PrimeCycNum(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PrimeCycNum(self.p, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return PrimeCycNum(self.p, out)

    __rmul__ = __mul__

    def inverse(self) -> "PrimeCycNum":
        phi = ModPoly(self.p, [1] * self.p)  # Phi_p = 1 + x + ... + x^(p-1)
        g, s, _ = modpoly_ext_gcd(self.poly, phi)
        if g.degree() != 0:
            raise NonInvertible(f"{self} is not a unit in Z[zeta_{self.p}]/({self.p})")
        return PrimeCycNum(self.p, s)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = PrimeCycNum(self.p, (1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __str__(self):
        return poly_str(self.coeffs, "z") + f" (mod {self.p})"

    __repr__ = __str__


@lru_cache(maxsize=None)
def _h_power_mod_p(p: int, e: int) -> PrimeCycNum:
    """h^e at h = 1 - zeta_p in Z[zeta_p]/(p); a negative e raises
    NonInvertible, as (1 - zeta_p)^(p-1) is p times a unit."""
    return PrimeCycNum(p, [1, -1]) ** e


@lru_cache(maxsize=None)
def _f_factor_mod_p(p: int, entry, m: int) -> PrimeCycNum:
    # [m]^(-1) = [m']_(zeta^m) with m m' = 1 mod p, an integral sum:
    # [m] [m']_(zeta^m) = (1 - zeta^(m m'))/(1 - zeta) = 1 as zeta^p = 1.
    vec = [0] * p
    for j in range(pow(m, -1, p)):
        vec[j * m % p] += 1
    br_inv = PrimeCycNum(p, vec)
    z = PrimeCycNum(p, [0, 1])
    if entry is BAR1:
        return z**m * br_inv
    return z ** ((entry - 1) * m) * br_inv**entry


@lru_cache(maxsize=None)
def _zcyc_cum(p: int, suffix: Index) -> tuple:
    one = PrimeCycNum(p, (1,))
    if not suffix:
        return tuple([one] * p)
    head, rest = suffix[0], suffix[1:]
    sub = _zcyc_cum(p, rest)
    zero = PrimeCycNum(p, ())
    out = [zero]
    acc = zero
    for m in range(1, p):
        acc = acc + _f_factor_mod_p(p, head, m) * sub[m - 1]
        out.append(acc)
    return tuple(out)


def zcyc_mod_p(x: EPoly, p: int) -> PrimeCycNum:
    """The single-prime component of the cyclotomic analogue: z_p(k) mod (p).

    All arithmetic runs directly in GF(p)[x]/Phi_p; h acts as 1 - zeta_p,
    and rational coefficients need denominators coprime to p. Terms that
    share a power of h are combined before the one multiply by (1 - zeta_p)^e.
    """
    groups: dict[int, list[int]] = {}
    for k, c in x.terms.items():
        v = _zcyc_cum(p, k)[p - 1].coeffs
        for e, coeff in c.terms.items():
            s = _reduce_mod_p(coeff, p)
            acc = groups.setdefault(e, [0] * (p - 1))
            for i, a in enumerate(v):
                acc[i] += s * a
    out = PrimeCycNum(p, ())
    for e, acc in groups.items():
        out = out + PrimeCycNum(p, acc) * _h_power_mod_p(p, e)
    return out


def ohno_check(k: Index, m: int, n: int):
    """Both sides of the Ohno-type relation for (k, m, n); returns
    (equal, lhs, rhs) as exact values in Q(zeta_n)."""
    if not k:
        raise PreconditionViolated("k must be nonempty")
    if not in_I(k):
        raise PreconditionViolated("k must avoid 1bar")
    r = index_dep(k)
    if m < 0 or n < r + m + 1:
        raise PreconditionViolated(f"need m >= 0 and n >= dep(k)+m+1, got m={m}, n={n}")
    fld = cyc_field(n)
    dual = hoffman_dual(k)
    s = index_dep(dual)
    lhs = fld.zero()
    for e in _compositions(m, s):
        shifted = tuple(d + x for d, x in zip(dual, e))
        lhs = lhs + zn_eval(hoffman_dual(shifted), n)
    rhs = fld.zero()
    for l in range(m + 1):
        inner = fld.zero()
        for e in _compositions(l, r):
            inner = inner + zn_eval(tuple(a + b for a, b in zip(k, e)), n)
        rhs = rhs + Fraction(comb(n, m - l + 1), n) * _h_power_cyc(n, m - l) * inner
    return lhs == rhs, lhs, rhs


def varpi_l_check(k: Index, p: int) -> bool:
    """Check (1 - zeta_p) Zcyc(e_k) = Zcyc(L(e_k)) in Z[zeta_p]/(p)."""
    if not in_I(k):
        raise HasBarEntry("the L map needs indices without 1bar")
    lhs = _h_power_mod_p(p, 1) * zcyc_mod_p(EPoly({k: 1}), p)
    rhs = zcyc_mod_p(l_map_epoly(EPoly({k: 1})), p)
    return lhs == rhs
