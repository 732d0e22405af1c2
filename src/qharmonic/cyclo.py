"""Exact arithmetic in Q(zeta_n) and in Z[zeta_p]/(p), and the finite
multiple harmonic q-series z_n(k; zeta_n) evaluated there.

Everything here is plain int arithmetic. One element class, CycNum,
serves both rings, cyc_field(n) for Q(zeta_n) and prime_ring(p) for
Z[zeta_p]/(p) = GF(p)[x]/Phi_p(x): an int vector over one positive int
denominator, with shared sum, product, power, equality and a fused
self + x*y (_add_mul: one convolution over the common denominator, one
_reduce); there is no division. Each ring supplies what differs:
- _reduce(num, den), the one stored form. Q(zeta_n) folds by the monic
  int Phi_n and takes one gcd. Z[zeta_p]/(p) folds with x^p = 1 and
  x^(p-1) = -(1 + ... + x^(p-2)), multiplies by den^(-1) mod p (p | den
  raises BadDenominator) and keeps den = 1.
- q_int_inv(m) = [m]^(-1) as an explicit sum, the one inverse the
  evaluator needs besides h^(-1) = (1 - zeta)^(-1) (see _h_power).
- poly(x) for .poly (UniPoly or ModPoly), and a str suffix (" (mod p)").
The base CycRing holds element, zeta, zeta_power(e) (the monomial
x^(e mod n), folded once), one, zero, from_rational and lincomb(pairs),
the rational linear combination: it sums over the lcm of every
denominator and reduces once, so mod p a coefficient with p in its
denominator raises BadDenominator in _reduce, even where its value is 0.
_zn_cum is the cumulative-sum DP over the nested sum, one _add_mul per
step, with F_k(m) = zeta^((k-1)m)/[m]^k cached per (ring, m) as
F_k = F_(k-1) F_1bar; _h_grouped groups the terms of an e-polynomial by
their power of h = 1 - zeta and adds each group's combination times a
cached (1 - zeta)^e.

The relations checked at roots of unity are built in export; cyclo only
evaluates them, and imports just errors, coeff and algebra from the package.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd, lcm

from .algebra import BAR1, EPoly, Index, check_index
from .coeff import ModPoly, UniPoly, _exact, _scalar, poly_str
from .errors import BadDenominator, NonInvertible, OutOfRange, index_sized

@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> UniPoly:
    """Phi_n, computed by dividing x^n - 1 by the Phi_d for proper divisors d.

    >>> str(cyclotomic_poly(6))
    '1 - x + x^2'
    """
    if n < 1:
        raise OutOfRange("cyclotomic polynomials need n >= 1")
    index_sized(n, "n")
    poly = UniPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            quo, rem = divmod(poly, cyclotomic_poly(d))
            assert rem.is_zero()
            poly = quo
    return poly


class CycRing:
    """What Q(zeta_n) and Z[zeta_p]/(p) share; n is the order of zeta.

    A value's ring is compared by identity, so build rings with
    cyc_field(n) and prime_ring(p), which return one ring per n or p.
    """

    __slots__ = ("n",)

    def element(self, coeffs: Iterable[Fraction]) -> "CycNum":
        """sum c_i zeta^i for rational coefficients c_i."""
        cs = [_exact(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return CycNum(self, [c.numerator * (den // c.denominator) for c in cs], den)

    def zeta(self) -> "CycNum":
        return CycNum(self, [0, 1])

    def zeta_power(self, e: int) -> "CycNum":
        """zeta^e for any int e, as the monomial x^(e mod n), folded once."""
        return CycNum(self, [0] * (e % self.n) + [1])

    def one(self) -> "CycNum":
        return CycNum(self, [1])

    def zero(self) -> "CycNum":
        return CycNum(self, [])

    def from_rational(self, c) -> "CycNum":
        c = _exact(c)
        return CycNum(self, [c.numerator], c.denominator)

    def lincomb(self, pairs) -> "CycNum":
        """sum c*v over (rational c, CycNum v) pairs, over the lcm of every
        denominator, reduced once at the end. A c whose v is zero counts
        too: mod p, p in any c's denominator raises BadDenominator."""
        acc: list[int] = []
        den = 1
        for c, v in pairs:
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
        return CycNum(self, acc, den)


class CycField(CycRing):
    """Q(zeta_n) as Q[x] modulo the n-th cyclotomic polynomial."""

    __slots__ = ("modulus", "degree", "_fold")
    suffix = ""

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

    def _reduce(self, num: list[int], den: int):
        """Fold num by Phi_n, then divide num and den by their gcd."""
        d = self.degree
        for i in range(len(num) - 1, d - 1, -1):
            c = num[i]
            if c:
                base = i - d
                for j, f in self._fold:
                    num[base + j] += c * f
        del num[d:]
        while num and not num[-1]:
            num.pop()
        if not num:
            return (), 1
        g = gcd(den, *num)
        if g != 1:
            return tuple([c // g for c in num]), den // g
        return tuple(num), den

    def poly(self, x: "CycNum") -> UniPoly:
        return UniPoly([Fraction(c, x.den) for c in x.num])

    def q_int_inv(self, m: int) -> "CycNum":
        """[m]^(-1) = (1 - zeta)/(1 - w) at w = zeta^m, 0 < m < n, in closed form.

        With N = n/gcd(n, m) the order of w, (1 - w) sum_(j<N) j w^j = -N
        because 1 + w + ... + w^(N-1) = 0; so 1/(1 - w) = -(1/N) sum_(j<N) j w^j.
        """
        n = self.n
        order = n // gcd(n, m)
        vec = [0] * (n + 1)
        for j in range(1, order):
            vec[j * m % n] -= j
            vec[j * m % n + 1] += j
        return CycNum(self, vec, order)


@lru_cache(maxsize=None)
def cyc_field(n: int) -> CycField:
    return CycField(n)


def _reduce_mod_p(c: Fraction, p: int) -> int:
    if c.denominator % p == 0:
        raise BadDenominator(f"denominator of {c} is divisible by {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


class PrimeRing(CycRing):
    """Z[zeta_p]/(p) = GF(p)[x]/Phi_p(x); n = p is the order of zeta."""

    __slots__ = ("suffix",)

    def __init__(self, p: int):
        self.n = p
        self.suffix = f" (mod {p})"

    def __repr__(self):
        return f"Z[zeta_{self.n}]/({self.n})"

    def _reduce(self, num: list[int], den: int):
        """num/den as an int vector in [0, p) over den = 1; BadDenominator
        when p divides den."""
        p = self.n
        if den != 1:
            if den % p == 0:
                raise BadDenominator(f"denominator {den} is divisible by {p}")
            inv = pow(den, -1, p)
            num = [c * inv for c in num]
        for i in range(len(num) - 1, p - 1, -1):
            num[i - p] += num[i]  # x^p = 1
        del num[p:]
        if len(num) == p:
            top = num.pop()  # x^(p-1) = -(1 + x + ... + x^(p-2))
            num = [c - top for c in num]
        num = [c % p for c in num]
        while num and not num[-1]:
            num.pop()
        return tuple(num), 1

    def poly(self, x: "CycNum") -> ModPoly:
        return ModPoly(self.n, x.num)

    def q_int_inv(self, m: int) -> "CycNum":
        """[m]^(-1) = [m']_(zeta^m) with m m' = 1 mod p, an integral sum:
        [m] [m']_(zeta^m) = (1 - zeta^(m m'))/(1 - zeta) = 1 as zeta^p = 1."""
        p = self.n
        vec = [0] * p
        for j in range(pow(m, -1, p)):
            vec[j * m % p] += 1
        return CycNum(self, vec)


@lru_cache(maxsize=None)
def prime_ring(p: int) -> PrimeRing:
    return PrimeRing(p)


class CycNum:
    """An element num(zeta)/den of Q(zeta_n) or of Z[zeta_p]/(p).

    num is an int tuple without trailing zeros and den a positive int,
    in the one form the ring's _reduce gives: in Q(zeta_n) at most
    phi(n) entries with gcd(den, *num) = 1, in Z[zeta_p]/(p) at most
    p - 1 entries in [0, p) over den = 1. The arithmetic is shared;
    .poly and the str suffix come from the ring. There is no division:
    x / y raises TypeError and a negative power OutOfRange.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: CycRing, num: list[int], den: int = 1):
        """num(zeta)/den for an int list num (consumed) and an int den > 0."""
        self.ring = ring
        self.num, self.den = ring._reduce(num, den)

    @property
    def poly(self):
        """The residue as a polynomial: a UniPoly in Q(zeta_n), a ModPoly mod p."""
        return self.ring.poly(self)

    def _coerce(self, other) -> "CycNum":
        if isinstance(other, CycNum):
            return other if other.ring is self.ring else NotImplemented
        if isinstance(other, _scalar):
            return self.ring.from_rational(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        """A value with at most one coefficient hashes as the rational it
        equals, so x == c gives hash(x) == hash(c) in Q(zeta_n). In
        Z[zeta_p]/(p) equality with a rational is mod p, so only the
        representative in [0, p) hashes alike."""
        if len(self.num) > 1:
            return hash((self.ring, self.num, self.den))
        return hash(Fraction(sum(self.num), self.den))

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.den, other.den
        pairs = zip_longest(self.num, other.num, fillvalue=0)
        return CycNum(self.ring, [x * b + y * a for x, y in pairs], a * b)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.ring, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)  # NotImplemented for a foreign other

    def __mul__(self, other):
        if type(other) is int:
            return CycNum(self.ring, [other * x for x in self.num], self.den)
        if type(other) is Fraction:
            cn, cd = other.numerator, other.denominator
            return CycNum(self.ring, [cn * x for x in self.num], self.den * cd)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.zero()._add_mul(self, other)

    __rmul__ = __mul__

    def _add_mul(self, x: "CycNum", y: "CycNum") -> "CycNum":
        """self + x*y for x, y of this ring: one convolution over the common
        denominator, then one _reduce."""
        a, b = x.num, y.num
        if not a or not b:
            return self
        d = x.den * y.den
        den = lcm(self.den, d)
        s, t = den // d, den // self.den
        out = [c * t for c in self.num]
        out.extend([0] * (len(a) + len(b) - 1 - len(out)))
        for i, u in enumerate(a):
            if u:
                u *= s
                for j, v in enumerate(b, i):
                    out[j] += u * v
        return CycNum(self.ring, out, den)

    def __pow__(self, e: int):
        """x^e for e >= 0 by repeated squaring, from the lowest set bit of e."""
        if e < 0:
            raise OutOfRange(f"cyclotomic powers need e >= 0, got {e}")
        if not e:
            return self.ring.one()
        x = self
        while not e & 1:
            x, e = x * x, e >> 1
        out = x
        while e := e >> 1:
            x = x * x
            if e & 1:
                out = out * x
        return out

    def __str__(self):
        return poly_str([Fraction(c, self.den) for c in self.num], "z") + self.ring.suffix

    def __repr__(self):
        return f"{self} in {self.ring!r}"


def fmzv_reduce(v: CycNum, p: int) -> int:
    """Reduce modulo the prime ideal (1 - zeta_p): send zeta_p to 1, then mod p.

    The identification Z[zeta_p]/(1-zeta_p) = GF(p) is fixed by zeta_p -> 1,
    the standard choice. v must lie in Q(zeta_p); a value of Z[zeta_p]/(p),
    whose n is p as well, is a ValueError.
    """
    if v.ring is not cyc_field(p):
        raise ValueError("value does not live over Q(zeta_p)")
    return _reduce_mod_p(Fraction(sum(v.num), v.den), p)


# --- the evaluator, over either ring -----------------------------------------


@lru_cache(maxsize=None)
def _h_power(ring, e: int):
    """h^e at h = 1 - zeta, for any integer e. A negative e takes the closed
    form h^(-1) = -(1/n) sum_(j<n) j zeta^j in Q(zeta_n), as (1 - zeta)
    sum_(j<n) j zeta^j = -n; in Z[zeta_p]/(p) it raises NonInvertible, as
    (1 - zeta_p)^(p-1) is p times a unit."""
    if e >= 0:
        return (ring.one() - ring.zeta()) ** e
    if isinstance(ring, PrimeRing):
        raise NonInvertible(f"1 - zeta is not a unit in {ring!r}")
    return CycNum(ring, [-j for j in range(ring.n)], ring.n) ** -e


@lru_cache(maxsize=None)
def _f_row(ring, m: int) -> dict:
    """{entry: F_entry(m)} for 1, 1bar and every entry _f_factor was asked for."""
    f1 = ring.q_int_inv(m)
    return {1: f1, BAR1: ring.zeta_power(m) * f1}


def _f_factor(ring, entry, m: int):
    """F_entry(m) at q = zeta: zeta^((k-1)m)/[m]^k, or zeta^m/[m] for 1bar;
    F_(k-1) F_1bar when F_(k-1) is in the row, else by a power, so an entry
    asked alone keeps no F_j that was not asked for."""
    row = _f_row(ring, m)
    if entry not in row:
        prev = row.get(entry - 1)
        row[entry] = (prev * row[BAR1] if prev is not None
                      else ring.zeta_power((entry - 1) * m) * row[1] ** entry)
    return row[entry]


@lru_cache(maxsize=None)
def _zn_cum(ring, suffix: Index) -> tuple:
    """cum[m] = sum over m >= m_1 > ... > m_r >= 1 of prod F at q = zeta, m < n."""
    if not suffix:
        return tuple([ring.one()] * ring.n)
    head, rest = suffix[0], suffix[1:]
    sub = _zn_cum(ring, rest)
    acc = ring.zero()
    out = [acc]
    for m in range(1, ring.n):
        acc = acc._add_mul(_f_factor(ring, head, m), sub[m - 1])
        out.append(acc)
    return tuple(out)


def _h_grouped(ring, x: EPoly, value):
    """sum over terms c(h) e_k of x of c(1 - zeta) value(k): the values
    sharing a power of h are combined first, then multiplied once.

    Every coefficient is reduced before any power of h is taken, so in
    Z[zeta_p]/(p) a bad denominator is reported ahead of a negative power."""
    groups: dict[int, list] = {}
    for (k, e), coeff in x.terms.items():
        groups.setdefault(e, []).append((coeff, value(k)))
    parts = [(e, ring.lincomb(pairs)) for e, pairs in groups.items()]
    out = ring.zero()
    for e, part in parts:
        out = out._add_mul(part, _h_power(ring, e))
    return out


def zn_eval(k: Index, n: int) -> CycNum:
    """z_n(k; zeta_n): the nested sum truncated below n, exactly in Q(zeta_n).

    Defined for every index in I-hat; automatically 0 when dep(k) >= n.
    """
    if n < 2:
        raise OutOfRange("z_n needs n >= 2")
    return _zn_cum(cyc_field(n), check_index(k))[n - 1]


def zn_map(x: EPoly, n: int) -> CycNum:
    """Linear extension of zn_eval with h acting as 1 - zeta_n."""
    fld = cyc_field(n)
    return _h_grouped(fld, x, lambda k: _zn_cum(fld, k)[n - 1])


def ones_bar_closed_form(n: int, r: int) -> CycNum:
    """z_n({1bar}^r) = ((-1)^r / n) C(n, r+1) (1 - zeta_n)^r."""
    if not (0 <= r < n):
        raise OutOfRange("need 0 <= r < n")
    return Fraction((-1) ** r * comb(n, r + 1), n) * _h_power(cyc_field(n), r)


def zcyc_mod_p(x: EPoly, p: int) -> CycNum:
    """The single-prime component of the cyclotomic analogue: z_p(k) mod (p).

    The same evaluator as zn_map, run in GF(p)[x]/Phi_p: h acts as
    1 - zeta_p, and rational coefficients need denominators coprime to p.
    """
    ring = prime_ring(p)
    return _h_grouped(ring, x, lambda k: _zn_cum(ring, k)[p - 1])

