"""Linear combinations with Laurent coefficients: the route qharmonic's
graded terms replaced, kept here as the reference.

qharmonic stores a combination as {(key, j): c}, one exact scalar per
power of h. Before that, it stored {key: Laurent} and every product of
two terms multiplied two Laurent polynomials. RefNc and RefE are that
storage, with the sum, product and scalar action of that time, and the
functions below are the operations the graded route must reproduce,
written on them from their defining rules: the quasi-shuffle with the
circle merge, the q-shuffle, psi on generators, the derivations on
letters, the conversions block by block, and Phi_X, Psi_X and Delta_X
as the exponential of their derivations. of(x) reads a package value
through its coefficients() accessor.

Laurent keeps only its input/output view in the package; substitute,
negation, subtraction, powers and the constant term of a Laurent value
are functions here.
"""
from fractions import Fraction
from functools import cache
from math import comb, factorial

from qharmonic.algebra import BAR1, EPoly, NcPoly
from qharmonic.coeff import Laurent
from qharmonic.errors import NonInvertible

H = Laurent.h
_scalar = (int, Fraction)


# --- Laurent operations that left the package --------------------------------


def substitute(c: Laurent, value, inverse=None):
    """c evaluated at h = value in any exact commutative ring.

    Negative exponents take powers of `inverse` when it is given (a ring
    without division, such as a cyclotomic one, needs it), else of 1/value
    through __pow__ with a negative exponent. An int value is then taken
    as a Fraction, so that its inverse stays exact.
    """
    if not c.terms:
        return 0 * value if not isinstance(value, _scalar) else Fraction(0)
    if isinstance(value, int) and min(c.terms) < 0:
        value = Fraction(value)
    acc = None
    for e, v in sorted(c.terms.items()):
        try:
            term = v * (inverse ** -e if e < 0 and inverse is not None else value**e)
        except ZeroDivisionError as exc:
            raise NonInvertible(f"h^{e} at zero value") from exc
        acc = term if acc is None else acc + term
    return acc


def neg(c: Laurent) -> Laurent:
    return c * -1


def sub(a, b) -> Laurent:
    """a - b for Laurent or scalar operands, at least one a Laurent."""
    return a + (b if isinstance(b, Laurent) else Laurent(b)) * -1


def power(c: Laurent, n: int) -> Laurent:
    if n < 0:
        raise ValueError("Laurent powers must be nonnegative; substitute instead")
    out = Laurent(1)
    for _ in range(n):
        out = out * c
    return out


def constant(c: Laurent):
    """The h^0 coefficient."""
    return c.terms.get(0, 0)


# --- {key: Laurent} storage ---------------------------------------------------


def _accumulate(out: dict, key, c: Laurent) -> None:
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        del out[key]


class RefLinComb:
    """{key: Laurent} with no zero coefficient."""

    __slots__ = ("terms",)
    _unit = None

    def __init__(self, terms=None):
        self.terms = {}
        for k, c in (terms or {}).items():
            c = c if isinstance(c, Laurent) else Laurent(c)
            if c:
                self.terms[k] = c

    @classmethod
    def of(cls, x) -> "RefLinComb":
        """A package value through its coefficients() accessor."""
        return cls(x.coefficients())

    @classmethod
    def one(cls):
        return cls({cls._unit: 1})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self):
        return f"{type(self).__name__}({self.terms})"

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if type(other) is not type(self):
            return self.scale(other)
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _accumulate(out, k1 + k2, c1 * c2)
        return type(self)(out)

    def scale(self, c):
        c = c if isinstance(c, Laurent) else Laurent(c)
        return type(self)({k: v * c for k, v in self.terms.items()})


class RefNc(RefLinComb):
    __slots__ = ()
    _unit = ""


class RefE(RefLinComb):
    __slots__ = ()
    _unit = ()


def of(x):
    """The reference value of a package NcPoly or EPoly."""
    return {NcPoly: RefNc, EPoly: RefE}[type(x)].of(x)


def total(parts, cls):
    out = cls()
    for x in parts:
        out = out + x
    return out


# --- products -----------------------------------------------------------------


def circ(k, l) -> RefE:
    if k is BAR1 and l is BAR1:
        return RefE({(2,): 1, (BAR1,): H(1, -1)})
    if k is BAR1:
        return RefE({(l + 1,): 1})
    if l is BAR1:
        return RefE({(k + 1,): 1})
    return RefE({(k + l,): 1, (k + l - 1,): H()})


def _prepend(entry, x: RefE) -> RefE:
    return RefE({(entry,) + k: c for k, c in x.terms.items()})


@cache
def _stuffle_indices(k1, k2) -> RefE:
    if not k1 or not k2:
        return RefE({k1 + k2: 1})
    a, b = k1[0], k2[0]
    tail = _stuffle_indices(k1[1:], k2[1:])
    out = _prepend(a, _stuffle_indices(k1[1:], k2)) + _prepend(b, _stuffle_indices(k1, k2[1:]))
    for (m,), c in circ(a, b).terms.items():
        out = out + _prepend(m, tail).scale(c)
    return out


def stuffle_q(u: RefE, v: RefE) -> RefE:
    return total(
        (_stuffle_indices(k1, k2).scale(c1 * c2)
         for k1, c1 in u.terms.items() for k2, c2 in v.terms.items()),
        RefE,
    )


def _prepend_letter(ch, x: RefNc) -> RefNc:
    return RefNc({ch + w: c for w, c in x.terms.items()})


@cache
def _shuffle_words(w1, w2) -> RefNc:
    if not w1 or not w2:
        return RefNc({w1 + w2: 1})
    if w1[0] == "b":
        return _prepend_letter("b", _shuffle_words(w1[1:], w2))
    if w2[0] == "b":
        return _prepend_letter("b", _shuffle_words(w1, w2[1:]))
    u, v = w1[1:], w2[1:]
    return _prepend_letter(
        "a", _shuffle_words(w1, v) + _shuffle_words(u, w2) + _shuffle_words(u, v).scale(H())
    )


def shuffle_q(u: RefNc, v: RefNc) -> RefNc:
    return total(
        (_shuffle_words(w1, w2).scale(c1 * c2)
         for w1, c1 in u.terms.items() for w2, c2 in v.terms.items()),
        RefNc,
    )


def _psi_gen(entry) -> RefE:
    if entry is BAR1:
        return RefE({(1,): -1})
    if entry == 1:
        return RefE({(BAR1,): -1})
    return RefE({(j,): H(entry - j, (-1) ** entry * comb(entry - 2, j - 2))
                 for j in range(2, entry + 1)})


def psi_involution(x: RefE) -> RefE:
    """The anti-homomorphism with the images _psi_gen of the generators."""
    out = RefE()
    for k, c in x.terms.items():
        image = RefE.one()
        for e in reversed(k):
            image = image * _psi_gen(e)
        out = out + image.scale(c)
    return out


# --- conversions ----------------------------------------------------------------


def _gen_words(e) -> RefNc:
    return RefNc({"ab": 1}) if e is BAR1 else RefNc({"a" * e + "b": 1, "a" * (e - 1) + "b": H()})


def e_to_word(x: RefE) -> RefNc:
    out = RefNc()
    for k, c in x.terms.items():
        image = RefNc.one()
        for e in k:
            image = image * _gen_words(e)
        out = out + image.scale(c)
    return out


def _block(n: int) -> RefE:
    """a^n b in the e-basis; b alone is h^-1 (e_1 - e_1bar)."""
    if not n:
        return RefE({(1,): H(-1), (BAR1,): H(-1, -1)})
    out = RefE({(j,): H(n - j, (-1) ** (n - j)) for j in range(2, n + 1)})
    return out + RefE({(BAR1,): H(n - 1, (-1) ** (n - 1))})


def word_to_e(x: RefNc) -> RefE:
    """Every word on its own, as the product of the images of its blocks a^n b."""
    out = RefE()
    for w, c in x.terms.items():
        image = RefE.one()
        for block in w.split("b")[:-1]:
            image = image * _block(len(block))
        out = out + image.scale(c)
    return out


# --- derivations and their exponentials -----------------------------------------


def _derive(w: RefNc, images: dict) -> RefNc:
    out = RefNc()
    for word, c in w.terms.items():
        for i, ch in enumerate(word):
            head, tail = RefNc({word[:i]: c}), RefNc({word[i + 1:]: 1})
            out = out + head * images[ch] * tail
    return out


def _power(x, n: int):
    out = type(x).one()
    for _ in range(n):
        out = out * x
    return out


def delta_n(n: int, w: RefNc) -> RefNc:
    c = Fraction((-1) ** (n - 1), n)
    tail = "a" * n + "b"
    return _derive(w, {"a": RefNc(), "b": RefNc({"b" + tail: c, tail: c})})


def partial_n(n: int, w: RefNc) -> RefNc:
    z_left = RefNc({"ab": 1, "a": 1, "b": H()})
    z_right = RefNc({"ba": 1, "a": 1, "b": H()})
    a = RefNc({"a": 1})
    da = a * _power(z_left, n - 1) * RefNc({"ab": 1, "b": H()})
    db = a * _power(z_right, n - 1) * RefNc({"bb": 1, "b": 1})
    return _derive(
        w, {"a": da.scale(Fraction((-1) ** n, n)), "b": db.scale(Fraction((-1) ** (n - 1), n))}
    )


def d_n(n: int, w: RefNc) -> RefNc:
    abn = RefNc({"a" + "b" * n: 1})
    return (shuffle_q(abn, w) - abn * w).scale(H(n - 1, Fraction((-1) ** (n - 1), n)))


def partial_n_e(n: int, x: RefE) -> RefE:
    """partial_n on the e-basis through the word side."""
    return word_to_e(partial_n(n, e_to_word(x)))


def exp_apply(apply_n, w, order: int) -> list:
    """The X^0..X^order coefficients of exp(sum_n X^n D_n)(w): the sum over
    compositions (j_1..j_r) of m of (1/r!) D_(j_1)...D_(j_r)(w)."""
    totals = [w] + [type(w)() for _ in range(order)]
    stack = [(w, 0, 1)]
    while stack:
        x, m, r = stack.pop()
        for j in range(1, order - m + 1):
            y = apply_n(j, x)
            totals[m + j] = totals[m + j] + y.scale(Fraction(1, factorial(r)))
            stack.append((y, m + j, r + 1))
    return totals


def Phi_X(w: RefNc, order: int) -> list:
    return exp_apply(delta_n, w, order)


def Psi_X(w: RefNc, order: int) -> list:
    return exp_apply(d_n, w, order)


def Delta_X(w: RefNc, order: int) -> list:
    return exp_apply(partial_n, w, order)
