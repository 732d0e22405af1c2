"""exp(sum_n X^n D_n)(w) by enumerating compositions: the route the package's
power loop (derivations._exp_series) replaced, kept here as the reference.

It walks every composition (j_1..j_r) of each m with an explicit stack,
applies D_j along each prefix and scales every term by 1/r! as it
accumulates, so no two compositions share work beyond a common prefix.
"""
from fractions import Fraction
from math import factorial

from qharmonic.algebra import _accumulate
from qharmonic.coeff import _exact
from qharmonic.errors import OutOfRange


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
