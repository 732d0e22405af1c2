"""Exact scalars: the rule that keeps them exact, the Laurent polynomials
in h that are the input/output view of one coefficient, and the dense
polynomials that hold Phi_n and the .poly forms of cyclotomic values.

Every coefficient in this package lies in Q[h, h^-1], where the formal
variable h specializes to 1-q for numeric evaluation and to 1-zeta_n for
evaluation at a root of unity. A rational is an int when it is integral
and a fractions.Fraction otherwise (_exact); nothing here is ever
floating point.

The algebra is graded by weight (deg a = deg h = 1, deg b = 0) and every
operator preserves or shifts it, so the coefficient of each word is a
single monomial c*h^j. LinComb (in algebra) therefore stores the power
of h in its keys and an exact scalar as the value, and builds a Laurent
only to parse, print or hand a coefficient out. Laurent keeps the sum
and product of the ring; evaluation at a value of h happens per power
of h, in the evaluators.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from operator import index

#: The exact rational scalar type used everywhere in this package.
Rational = Fraction

_scalar = (int, Fraction)


def _exact(c) -> int | Fraction:
    """c as an exact rational: an int when integral, else a Fraction; never a float."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"exact rational expected, got the float {c!r}")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _accumulate(out: dict, key, c) -> None:
    """out[key] += c in place for a nonzero exact scalar c, dropping the key
    when the sum cancels and storing an integral sum as an int."""
    s = out.get(key)
    if s is not None:
        c += s
        if not c:
            del out[key]
            return
    out[key] = c if type(c) is int else _exact(c)


class _Frozen:
    """Base of the immutable value classes, behaving as a frozen dataclass
    over the fields in the subclass's __slots__, in constructor order:
    == and hash by the fields, the dataclass repr, AttributeError on
    assignment. __init__ sets fields with object.__setattr__; __reduce__
    rebuilds through the constructor, so pickle and deepcopy work."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Laurent:
    """A Laurent polynomial in h with rational coefficients.

    Stored sparsely as {exponent: coefficient} with no zero coefficients;
    the empty map is the zero element. A coefficient is an int when it is
    integral and a Fraction otherwise, so the common +-h^j terms stay in
    fast int arithmetic. The sum and the product add every term into one
    dict with _accumulate. Values are immutable by convention: nothing
    changes the terms of a Laurent in place.

    >>> str(Laurent({-1: Fraction(-2), 0: 1, 2: Fraction(3, 2)}))
    '-2*h^-1 + 1 + 3/2*h^2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction] | int | Fraction = 0):
        if type(terms) is Laurent:
            self.terms = dict(terms.terms)
        elif type(terms) is dict or isinstance(terms, Mapping):
            if not all(type(e) is int for e in terms):
                raise TypeError(f"Laurent exponents must be ints, got {list(terms)!r}")
            self.terms = {e: v for e, c in terms.items() if (v := _exact(c))}
        else:
            c = _exact(terms)
            self.terms = {0: c} if c else {}

    @classmethod
    def h(cls, exponent: int = 1, coeff: Fraction | int = 1) -> "Laurent":
        """The monomial coeff * h^exponent."""
        return cls({exponent: coeff})

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

    def __add__(self, other) -> "Laurent":
        if type(other) is not Laurent:
            if not isinstance(other, _scalar):
                return NotImplemented
            other = Laurent(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(out, e, c)
        res = Laurent.__new__(Laurent)
        res.terms = out
        return res

    __radd__ = __add__

    def __mul__(self, other) -> "Laurent":
        if type(other) is not Laurent:
            if not isinstance(other, _scalar):
                return NotImplemented
            other = Laurent(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(out, e1 + e2, c1 * c2)
        res = Laurent.__new__(Laurent)
        res.terms = out
        return res

    __rmul__ = __mul__

    def single_term(self):
        """(exponent, coefficient) if this is a monomial, else None."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def __str__(self) -> str:
        return _join_signed((c > 0, _monomial_str(e, abs(c))) for e, c in sorted(self.terms.items()))

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


def _monomial_str(e: int, c: Fraction, var: str = "h") -> str:
    """c var^e for c > 0, as Laurent and poly_str print it."""
    if e == 0:
        return str(c)
    vpart = var if e == 1 else f"{var}^{e}"
    return vpart if c == 1 else f"{c}*{vpart}"


def _join_signed(terms) -> str:
    """One sum from (positive, body) pairs: the first term prints as body or
    -body, each later one adds " + body" or " - body"; an empty sum prints 0."""
    text = "".join((" + " if positive else " - ") + body for positive, body in terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


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

    Only what cyclotomic_poly needs lives here: exact division, equality
    and printing. Ring arithmetic on these values is test-side.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(_exact(c)) for c in coeffs]
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

    def __eq__(self, other):
        if isinstance(other, _scalar):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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

    def __str__(self):
        return poly_str(self.coeffs, "x")

    __repr__ = __str__


def poly_str(coeffs, var: str) -> str:
    """Ascending-degree polynomial rendering shared by UniPoly and CycNum."""
    return _join_signed((c > 0, _monomial_str(e, abs(c), var)) for e, c in enumerate(coeffs) if c)


class ModPoly:
    """A dense polynomial over the field with p elements (p prime): the
    .poly form of a Z[zeta_p]/(p) value. Ring arithmetic beyond the
    product is test-side."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        self.p = p
        cs = [index(_exact(c)) % p for c in coeffs]  # TypeError unless integral
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return (
            isinstance(other, ModPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

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

    def __str__(self):
        return poly_str(self.coeffs, "x") + f" (mod {self.p})"

    __repr__ = __str__
