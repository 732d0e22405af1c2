"""The Cauchy product and the letter-by-letter homomorphism route as they were
before both accumulated in place (series.ts_mul, derivations._hom_apply), kept
here as the reference: every product is built as a value of its own and then
added in a second time.
"""
import operator

from qharmonic.algebra import NcPoly
from qharmonic.derivations import _letter_series
from qharmonic.series import TruncSeries, series_const


def ts_mul_by_sums(mul, s: TruncSeries, t: TruncSeries) -> TruncSeries:
    """Cauchy product: the X^m coefficient is LinComb.sum of mul(a_i, b_(m-i))."""
    assert len(s.coeffs) == len(t.coeffs)
    a, b = s.coeffs, t.coeffs
    return TruncSeries(
        tuple(
            type(a[0]).sum(mul(a[i], b[m - i]) for i in range(m + 1) if a[i] and b[m - i])
            for m in range(len(a))
        )
    )


def hom_apply_by_sums(apply_n, terms: dict, order: int) -> TruncSeries:
    """exp(sum X^n D_n) on graded terms {(word, j): c}: words grouped by first
    letter, each group's letter series times its tail image added as a series."""
    groups: dict[str, dict] = {}
    for (word, j), c in terms.items():
        groups.setdefault(word[:1], {})[word[1:], j] = c
    out = series_const(NcPoly._wrap(groups.pop("", {})), order)
    for letter, tails in groups.items():
        head = _letter_series(apply_n, letter, order)
        out = out + ts_mul_by_sums(operator.mul, head, hom_apply_by_sums(apply_n, tails, order))
    return out
