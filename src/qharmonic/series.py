"""Truncated power series in X over the word algebra or the e-basis.

A TruncSeries of order N stores the coefficients of X^0 .. X^N; all
arithmetic truncates at X^N. ts_mul and ts_log take the coefficient product
itself as their first argument -- operator.mul for concatenation, or
shuffle_q, stuffle_q or stuffle_classical -- so log works uniformly for all
four; ts_mul adds each product in place into one dict per power of X. Every
exponential of the package is a derivation series (qharmonic.derivations).
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import NcPoly
from .coeff import Laurent, _Frozen
from .errors import BadConstantTerm, OrderMismatch, OutOfRange
from .products import _IN_PLACE


class TruncSeries(_Frozen):
    """Coefficients (c_0, ..., c_N) of a series truncated at X^N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the X^0 coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        _check_orders(self, other)
        return TruncSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        _check_orders(self, other)
        return TruncSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(tuple(-a for a in self.coeffs))

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(tuple(a.scale(c) for a in self.coeffs))

    def map_coeffs(self, f) -> "TruncSeries":
        return TruncSeries(tuple(f(a) for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coeffs)


def _check_orders(s: TruncSeries, t: TruncSeries):
    if len(s.coeffs) != len(t.coeffs):
        raise OrderMismatch(f"orders {s.order} and {t.order} differ")


def series_const(w, order: int) -> TruncSeries:
    """The series w + 0 X + ... + 0 X^order."""
    if order < 0:
        raise OutOfRange(f"series order must be >= 0, got {order}")
    return TruncSeries((w,) + (type(w).zero(),) * order)


def series_one(like, order: int) -> TruncSeries:
    return series_const(type(like).one(), order)


def ts_mul(mul, s: TruncSeries, t: TruncSeries) -> TruncSeries:
    """Cauchy product with mul as the product of coefficients."""
    _check_orders(s, t)
    outs = [{} for _ in s.coeffs]
    _cauchy_into(outs, mul, s.coeffs, t.coeffs)
    return TruncSeries(tuple(map(type(s.coeffs[0])._wrap, outs)))


def _cauchy_into(outs: list, mul, a: tuple, b: tuple) -> None:
    """outs[m] += sum over i <= m of mul(a_i, b_(m-i)), in place on graded terms."""
    into = _IN_PLACE.get(mul) or (lambda out, x, y: type(x)._add_into(out, mul(x, y)))
    for m, out in enumerate(outs):
        for i in range(m + 1):
            if a[i] and b[m - i]:
                into(out, a[i], b[m - i])


def ts_log(mul, g: TruncSeries) -> TruncSeries:
    """log with respect to the product mul, sum over m = 1 .. order of
    ((-1)^(m-1)/m) f^m with f = g - 1; g must have constant term 1."""
    if g.coeffs[0] != type(g.coeffs[0]).one():
        raise BadConstantTerm("log needs constant term 1")
    f = g - series_one(g.coeffs[0], g.order)
    terms, power = [f], f
    for m in range(2, f.order + 1):
        power = ts_mul(mul, power, f)
        terms.append(power.scale(Fraction((-1) ** (m - 1), m)))
    cls = type(f.coeffs[0])
    return TruncSeries(tuple(cls.sum(cs) for cs in zip(*(t.coeffs for t in terms))))


def geometric(g, order: int) -> TruncSeries:
    """1/(1 - gX) = sum g^n X^n, with concatenation powers of g."""
    if order < 0:
        raise OutOfRange(f"series order must be >= 0, got {order}")
    coeffs = [type(g).one()]
    for _ in range(order):
        coeffs.append(coeffs[-1] * g)
    return TruncSeries(tuple(coeffs))


def series_psi(order: int) -> TruncSeries:
    """psi(X) = (1/h) a log(1 + h b X) = sum ((-1)^(n-1)/n) h^(n-1) a b^n X^n."""
    coeffs = [NcPoly.zero()]
    for n in range(1, order + 1):
        coeffs.append(
            NcPoly({"a" + "b" * n: Laurent.h(n - 1, Fraction((-1) ** (n - 1), n))})
        )
    return TruncSeries(tuple(coeffs))


def series_phi(order: int) -> TruncSeries:
    """phi(X) = (log(1 + aX)) b = sum ((-1)^(n-1)/n) a^n b X^n."""
    coeffs = [NcPoly.zero()]
    for n in range(1, order + 1):
        coeffs.append(NcPoly({"a" * n + "b": Fraction((-1) ** (n - 1), n)}))
    return TruncSeries(tuple(coeffs))
