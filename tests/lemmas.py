"""Lemmas behind the paper's proofs, kept beside the tests that check them.

No qsh command and no package export reaches these: the rho_s recurrence
for the Psi_X rewrite, the A_m convolution for the Ohno-type relation and
the F-basis expansion of q^(lm)/[m]^k. The relations they feed are
checked end to end by the delta-factorization, ohno and cyc-ohno suites.

The closed forms of partial_n on the generators, computed in the e-basis
with left multiplication by a, are an oracle for derivations.partial_gen,
which carries the word derivation over instead.
"""
import operator
from fractions import Fraction
from math import comb

from qharmonic.algebra import BAR1, EPoly, NcPoly
from qharmonic.coeff import Laurent
from qharmonic.cyclo import CycNum, _f_factor, _h_grouped, _zn_cum, cyc_field
from qharmonic.errors import EmptyIndex, OutOfRange
from qharmonic.products import shuffle_q
from qharmonic.series import TruncSeries, series_one, series_psi, ts_mul


def series_log_one_plus_hbx(order: int) -> TruncSeries:
    """log(1 + h b X) = sum ((-1)^(n-1)/n) h^n b^n X^n (concatenation log)."""
    coeffs = [NcPoly.zero()]
    for n in range(1, order + 1):
        coeffs.append(NcPoly({"b" * n: Laurent.h(n, Fraction((-1) ** (n - 1), n))}))
    return TruncSeries(tuple(coeffs))


def rho_s(s: int, order: int) -> TruncSeries:
    """The recurrence rho_1 = 1, rho_(s+1) = (psi + log(1+hbX)) rho_s + psi sh rho_s."""
    if s < 1:
        raise ValueError("s >= 1")
    rho = series_one(NcPoly.one(), order)
    if s == 1:
        return rho
    psi = series_psi(order)
    pref = psi + series_log_one_plus_hbx(order)
    for _ in range(s - 1):
        rho = ts_mul(operator.mul, pref, rho) + ts_mul(shuffle_q, psi, rho)
    return rho


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
        return _f_factor(fld, k[0], m) * _zn_cum(fld, k[1:])[m - 1]

    return _h_grouped(fld, x, value)


def f_basis_expand(k: int, l: int):
    """Express q^(lm)/[m]^k in the F-basis: {entry: Laurent coefficient}.

    For k > l >= 0, expanding q^(lm)/[m]^k against ((1-q)[m] + q^m)^(k-l-1) = 1
    gives binomial coefficients C(k-l-1, j-1) on F_(l+j)(m) with powers of
    h = 1-q. (The seemingly natural C(k-l, j-1) fails termwise already at
    k-l = 2, m = 1.) For l = k the leading term falls onto F_1bar with
    powers of q-1 = -h.
    """
    if k < 1 or l < 0 or l > k:
        raise OutOfRange("need k >= 1 and 0 <= l <= k")
    if l < k:
        return {
            l + j: Laurent.h(k - l - j, comb(k - l - 1, j - 1))
            for j in range(1, k - l + 1)
        }
    out = {j: Laurent.h(k - j, (-1) ** (k - j)) for j in range(2, k + 1)}
    out[BAR1] = Laurent.h(k - 1, (-1) ** (k - 1))
    return out


def left_mul_a(x: EPoly) -> EPoly:
    """Left multiplication by a on the e-basis: a e_k = e_(k+1) and
    a e_1bar = e_2 - h e_1bar, applied to the leading generator of every index."""
    out = EPoly.zero()
    for k, c in x.coefficients().items():
        if not k:
            raise EmptyIndex("a * 1 = a is not in Hhat1")
        head, rest = k[0], k[1:]
        if head is BAR1:
            image = EPoly({(2,) + rest: 1, (BAR1,) + rest: Laurent.h(1, -1)})
        else:
            image = EPoly({(head + 1,) + rest: 1})
        out = out + image.scale(c)
    return out


def partial_a_closed_form(n: int) -> EPoly:
    """partial_n(a) = ((-1)^n / n) a (a + e_1)^(n-1) e_1 as an e-polynomial."""
    out = EPoly.gen(1)
    for _ in range(n - 1):
        out = left_mul_a(out) + out.prepend(1)
    return left_mul_a(out).scale(Fraction((-1) ** n, n))


def partial_e1_minus_e1bar_closed_form(n: int) -> EPoly:
    """partial_n(e_1 - e_1bar) = ((-1)^(n-1)/n)(a+e_1bar)(a+e_1)^(n-1)(e_1-e_1bar)."""
    out = EPoly.gen(1) - EPoly.gen(BAR1)
    for _ in range(n - 1):
        out = left_mul_a(out) + out.prepend(1)
    out = left_mul_a(out) + out.prepend(BAR1)
    return out.scale(Fraction((-1) ** (n - 1), n))


def partial_gen_closed_form(n: int, entry) -> EPoly:
    """partial_n on one generator, entirely in the e-basis: partial_n(e_1) =
    -partial_n(a), partial_n(e_k) = partial_n(a) e_(k-1) + a partial_n(e_(k-1))
    and partial_n(e_1bar) from the closed form for partial_n(e_1 - e_1bar)."""
    if entry is BAR1:
        return partial_gen_closed_form(n, 1) - partial_e1_minus_e1bar_closed_form(n)
    if entry == 1:
        return -partial_a_closed_form(n)
    return partial_a_closed_form(n) * EPoly.gen(entry - 1) + left_mul_a(
        partial_gen_closed_form(n, entry - 1)
    )
