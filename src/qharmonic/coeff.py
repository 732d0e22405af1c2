"""Exact scalar arithmetic: the Laurent ring Q[h, h^-1] and dense polynomials.

Every coefficient in this package lives in the Laurent ring, where the
formal variable h specializes to 1-q for numeric evaluation and to
1-zeta_n for evaluation at a root of unity. Rationals are
fractions.Fraction throughout, except that a Laurent coefficient which
is an integer is stored as an int; nothing here is ever floating point.

The algebra is graded by weight (deg a = deg h = 1, deg b = 0) and every
operator preserves or shifts it, so the coefficient of each word is a
single monomial c*h^j; Laurent products take a fast path for monomial
times monomial and keep the general convolution for other shapes.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .errors import BothZero, NonInvertible

#: The exact rational scalar type used everywhere in this package.
Rational = Fraction

_scalar = (int, Fraction)


def _exact(c) -> int | Fraction:
    """c as an exact rational: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Laurent:
    """A Laurent polynomial in h with rational coefficients.

    Stored sparsely as {exponent: coefficient} with no zero coefficients;
    the empty map is the zero element. A coefficient is an int when it is
    integral and a Fraction otherwise, so the common +-h^j terms stay in
    fast int arithmetic. Values are immutable: an operation may return
    an operand itself (a product with the unit does), so nothing may
    change the terms of a Laurent in place.

    >>> str(Laurent({-1: Fraction(-2), 0: 1, 2: Fraction(3, 2)}))
    '-2*h^-1 + 1 + 3/2*h^2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction] | int | Fraction = 0):
        if type(terms) is Laurent:
            self.terms = dict(terms.terms)
        elif type(terms) is dict or isinstance(terms, Mapping):
            self.terms = {e: _exact(c) for e, c in terms.items() if c != 0}
        else:
            c = _exact(terms)
            self.terms = {0: c} if c else {}

    @classmethod
    def h(cls, exponent: int = 1, coeff: Fraction | int = 1) -> "Laurent":
        """The monomial coeff * h^exponent."""
        return cls({exponent: coeff})

    @classmethod
    def one(cls) -> "Laurent":
        return cls(1)

    @classmethod
    def zero(cls) -> "Laurent":
        return cls()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not Laurent:
            if not isinstance(other, _scalar):
                return NotImplemented
            other = Laurent(other)
        return self.terms == other.terms

    def __hash__(self):
        # A constant hashes as the scalar it equals, zero as 0.
        t = self.terms
        if not t or (len(t) == 1 and 0 in t):
            return hash(t.get(0, 0))
        return hash(tuple(sorted(t.items())))

    def __neg__(self) -> "Laurent":
        res = Laurent.__new__(Laurent)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __add__(self, other) -> "Laurent":
        if type(other) is not Laurent:
            if not isinstance(other, _scalar):
                return NotImplemented
            other = Laurent(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _exact(s)
            else:
                out.pop(e, None)
        res = Laurent.__new__(Laurent)
        res.terms = out
        return res

    __radd__ = __add__

    def __sub__(self, other) -> "Laurent":
        return self + (-other if isinstance(other, Laurent) else Laurent(other).__neg__())

    def __rsub__(self, other) -> "Laurent":
        return Laurent(other) + (-self)

    def __mul__(self, other) -> "Laurent":
        if type(other) is not Laurent:
            if not isinstance(other, _scalar):
                return NotImplemented
            c = _exact(other)
            return Laurent({e: v * c for e, v in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1:
            # The weight grading makes almost every product monomial x monomial.
            (e1, c1), = a.items()
            (e2, c2), = b.items()
            if not e1 and c1 == 1:
                return other
            if not e2 and c2 == 1:
                return self
            c = c1 * c2
            res = Laurent.__new__(Laurent)
            res.terms = {e1 + e2: c if type(c) is int else _exact(c)}
            return res
        out: dict[int, int | Fraction] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        res = Laurent.__new__(Laurent)
        res.terms = {e: _exact(s) for e, s in out.items() if s}
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            raise ValueError("Laurent powers must be nonnegative; substitute instead")
        out = Laurent.one()
        for _ in range(n):
            out = out * self
        return out

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    def constant(self) -> int | Fraction:
        """The h^0 coefficient."""
        return self.terms.get(0, 0)

    def single_term(self):
        """(exponent, coefficient) if this is a monomial, else None."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def substitute(self, value):
        """Evaluate at h = value in any exact commutative ring.

        Negative exponents need value to be invertible; rings signal that
        through __pow__ with a negative exponent (Fraction and the
        cyclotomic types here all do). An int value is then taken as a
        Fraction, so that its inverse stays exact.
        """
        if not self.terms:
            return 0 * value if not isinstance(value, _scalar) else Fraction(0)
        if isinstance(value, int) and min(self.terms) < 0:
            value = Fraction(value)
        acc = None
        for e, c in sorted(self.terms.items()):
            try:
                term = c * value**e
            except ZeroDivisionError as exc:
                raise NonInvertible(f"h^{e} at zero value") from exc
            acc = term if acc is None else acc + term
        return acc

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            body = _monomial_str(e, abs(c))
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "Laurent":
        """Parse the canonical string form produced by str()."""
        text = text.strip()
        if text == "0":
            return cls()
        out: dict[int, Fraction] = {}
        for sign, body in _split_terms(text):
            e, c = _parse_monomial(body)
            out[e] = out.get(e, 0) + sign * c
        return cls(out)


def _monomial_str(e: int, c: Fraction) -> str:
    if e == 0:
        return str(c)
    hpart = "h" if e == 1 else f"h^{e}"
    return hpart if c == 1 else f"{c}*{hpart}"


def _split_terms(text: str):
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:].lstrip()
    for chunk in re.split(r"\s+([+-])\s+", text):
        if chunk == "+":
            sign = 1
        elif chunk == "-":
            sign = -1
        else:
            yield sign, chunk


def _parse_monomial(body: str) -> tuple[int, Fraction]:
    if "h" not in body:
        return 0, Fraction(body)
    coeff, _, hpart = body.rpartition("*")
    c = Fraction(coeff) if coeff else Fraction(1)
    if hpart == "h":
        return 1, c
    if not hpart.startswith("h^"):
        raise ValueError(f"bad Laurent monomial: {body!r}")
    return int(hpart[2:]), c


class UniPoly:
    """A dense univariate polynomial over Q, ascending coefficients.

    Degrees stay small here (below phi(n) for moderate n), so the dense
    representation is the simple and fast choice.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, _scalar):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, _scalar):
            other = UniPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return UniPoly(a)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _scalar):
            other = UniPoly([other])
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _scalar):
            return UniPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "UniPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree()
        lead = other.leading()
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lead
            quo[i - d] = f
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] -= f * c
        return UniPoly(quo), UniPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = 1 / self.leading()
        return UniPoly([c * inv for c in self.coeffs])

    def __str__(self):
        return poly_str(self.coeffs, "x")

    __repr__ = __str__


def poly_str(coeffs, var: str) -> str:
    """Ascending-degree polynomial rendering shared by UniPoly and CycNum."""
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            vp = var if e == 1 else f"{var}^{e}"
            body = vp if abs(c) == 1 else f"{abs(c)}*{vp}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts) or "0"


def poly_ext_gcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid over Q[x]: returns (g, s, t) with s*a + t*b = g, g monic."""
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = UniPoly([1]), UniPoly()
    t0, t1 = UniPoly(), UniPoly([1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.leading()
    inv = 1 / lead
    return r0.monic(), s0 * inv, t0 * inv


class ModPoly:
    """A dense polynomial over the field with p elements (p prime)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        self.p = p
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, ModPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __add__(self, other: "ModPoly"):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = (a[i] + c) % self.p
        return ModPoly(self.p, a)

    def __neg__(self):
        return ModPoly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ModPoly(self.p, [c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return ModPoly(self.p, out)

    __rmul__ = __mul__

    def __divmod__(self, other: "ModPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        quo = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree()
        lead_inv = pow(other.coeffs[-1], -1, p)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] * lead_inv % p
            quo[i - d] = f
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] = (rem[i - d + j] - f * c) % p
        return ModPoly(p, quo), ModPoly(p, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __str__(self):
        return poly_str(self.coeffs, "x") + f" (mod {self.p})"

    __repr__ = __str__


def modpoly_ext_gcd(a: ModPoly, b: ModPoly) -> tuple[ModPoly, ModPoly, ModPoly]:
    """Extended Euclid over GF(p)[x]: (g, s, t) with s*a + t*b = g, g monic."""
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    p = a.p
    r0, r1 = a, b
    s0, s1 = ModPoly(p, [1]), ModPoly(p)
    t0, t1 = ModPoly(p), ModPoly(p, [1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv = pow(r0.coeffs[-1], -1, p)
    return r0 * inv, s0 * inv, t0 * inv
