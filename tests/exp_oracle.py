"""exp(sum_n X^n D_n) by the two routes the package's derivative recursion
(derivations._exp_series) replaced, kept here as references.

_exp_apply walks every composition (j_1..j_r) of each m with an explicit
stack, applies D_j along each prefix and scales every term by 1/r! as it
accumulates, so no two compositions share work beyond a common prefix.

_exp_powers is the power loop: it builds each power of A = sum_n X^n D_n
from the last by _sum_apply, so equal terms merge before the next D_j
acts, and scales the r-th power once by 1/r!. Neither route assumes that
the D_n commute.

ts_exp is exp under a coefficient product, sum over m of f^m/m!: the
inverse of series.ts_log, which the exp/log round trips check.
"""
from fractions import Fraction
from math import factorial

from qharmonic.algebra import _accumulate
from qharmonic.coeff import _exact
from qharmonic.errors import BadConstantTerm, OutOfRange
from qharmonic.series import TruncSeries, series_one, ts_mul


def _exp_apply(apply_n, w, order: int) -> list:
    """Coefficients of exp(sum_n X^n D_n)(w) up to X^order.

    The X^m coefficient is sum over r >= 1 and compositions (j_1..j_r) of m
    of (1/r!) D_(j_1)...D_(j_r)(w); enumerated depth first so composition
    prefixes share the already-applied tail. Each stack entry is
    (D_(j_1)...D_(j_r)(w), j_1 + ... + j_r, r).
    """
    if order < 0:
        raise OutOfRange(f"series order must be >= 0, got {order}")
    totals = [dict(w.terms)] + [{} for _ in range(order)]
    stack = [(w, 0, 0)]
    while stack:
        x, m, r = stack.pop()
        c = _exact(Fraction(1, factorial(r + 1)))
        for j in range(1, order - m + 1):
            y = apply_n(j, x)
            if y.is_zero():
                continue
            for kj, v in y.terms.items():
                _accumulate(totals[m + j], kj, v * c)
            stack.append((y, m + j, r + 1))
    return [type(w)._wrap(t) for t in totals]


def _sum_apply(apply_n, s: TruncSeries) -> TruncSeries:
    """(sum_n X^n D_n)(s), truncated at s's order: the X^m coefficient is
    sum over i < m of D_(m-i)(s_i)."""
    c = s.coeffs
    cls = type(c[0])
    return TruncSeries(
        tuple(cls.sum(apply_n(m - i, c[i]) for i in range(m) if c[i]) for m in range(len(c)))
    )


def _exp_powers(apply_n, s: TruncSeries) -> TruncSeries:
    """exp(sum_n X^n D_n)(s) = sum over r <= order of (sum_n X^n D_n)^r(s) / r!."""
    powers = [s]
    for _ in range(s.order):
        powers.append(_sum_apply(apply_n, powers[-1]))
    terms = [p.scale(Fraction(1, factorial(r))) for r, p in enumerate(powers)]
    cls = type(s.coeffs[0])
    return TruncSeries(tuple(cls.sum(cs) for cs in zip(*(t.coeffs for t in terms))))


def ts_exp(mul, f: TruncSeries) -> TruncSeries:
    """exp with respect to the product mul; f must have zero constant term."""
    if not f.coeffs[0].is_zero():
        raise BadConstantTerm("exp needs constant term 0")
    total, power = series_one(f.coeffs[0], f.order) + f, f
    for m in range(2, f.order + 1):
        power = ts_mul(mul, power, f)
        total = total + power.scale(Fraction(1, factorial(m)))
    return total
