"""The stuffle product check of double shuffle against the exact inequality.

verify._product_witness decides |vs - v1 v2| <= ts + t1 (|v2| + t2) +
t2 (|v1| + t1) + t1 t2 on integer enclosures first and falls back to exact
Fractions. A PASS on the enclosures must imply the exact inequality, and
the verdict must equal it, also at ties and within 2^-(P+8) of them.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qharmonic import verify
from qharmonic.evalq import CertifiedValue, QValue, zeta_q_partial


class Reduced(Exception):
    """Raised by CertifiedValue.value where a check must not reduce."""


def passes_unreduced(vs, v1, v2) -> bool:
    """Whether the check passes without reducing a value: on enclosures."""

    def reduce_(self):
        raise Reduced

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CertifiedValue, "value", property(reduce_))
        try:
            return verify._product_witness(vs, v1, v2) is None
        except Reduced:
            return False


def product_bound(vs, v1, v2) -> Fraction:
    a, b = Fraction(v1.num, v1.den), Fraction(v2.num, v2.den)
    ts, t1, t2 = vs.tail_bound, v1.tail_bound, v2.tail_bound
    return ts + t1 * (abs(b) + t2) + t2 * (abs(a) + t1) + t1 * t2


def rule_holds(vs, v1, v2) -> bool:
    s, a, b = (Fraction(v.num, v.den) for v in (vs, v1, v2))
    return abs(s - a * b) <= product_bound(vs, v1, v2)


def guard_bits(bounds) -> int:
    """64 bits below the smallest nonzero bound, the precision of the check."""
    return 64 + max([0] + [t.denominator.bit_length() - t.numerator.bit_length() for t in bounds if t])


def certified(value: Fraction, bound: Fraction, k: int) -> CertifiedValue:
    """value, unreduced by the factor k, with tail bound `bound`."""
    return CertifiedValue._unreduced(value.numerator * k, value.denominator * k, bound, 7)


rationals = st.builds(Fraction, st.integers(-(2**300), 2**300), st.integers(1, 2**300))
positive_bounds = st.builds(Fraction, st.integers(1, 2**64), st.integers(1, 2**700))
tail_bounds = st.one_of(st.just(Fraction(0)), positive_bounds)
factors = st.integers(1, 2**64)


@given(
    rationals, rationals, tail_bounds, tail_bounds, tail_bounds,
    st.sampled_from([-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2]),
    st.sampled_from([-1, 0, 1]), factors, factors, factors,
)
@settings(max_examples=300, deadline=None)
def test_matches_the_exact_inequality(a, b, ts, t1, t2, scale, nudge, k0, k1, k2):
    # vs = v1 v2 + scale * bound, a tie at scale +-1, nudged by +-2^-(P+8)
    v1, v2 = certified(a, t1, k1), certified(b, t2, k2)
    bound = product_bound(CertifiedValue(0, ts, 7), v1, v2)
    s = a * b + scale * bound + Fraction(nudge, 2 ** (guard_bits((ts, t1, t2)) + 8))
    vs = certified(s, ts, k0)
    holds = rule_holds(vs, v1, v2)
    if passes_unreduced(vs, v1, v2):
        assert holds
    assert (verify._product_witness(vs, v1, v2) is None) is holds


@given(rationals, positive_bounds, factors)
@settings(max_examples=100, deadline=None)
def test_a_zero_residual_passes_unreduced(a, t, k):
    # vs = v1 * 1, v2 the empty index's exact 1, as in every pair with ()
    v1, one = certified(a, t, k), zeta_q_partial((), QValue(Fraction(1, 2)), 7)
    assert passes_unreduced(certified(a, t, k + 1), v1, one)


def test_zero_bounds_pass_unreduced_on_dyadic_values():
    one = zeta_q_partial((), QValue(Fraction(1, 2)), 7)
    assert passes_unreduced(one, one, one)
    third = certified(Fraction(1, 3), Fraction(0), 1)
    assert verify._product_witness(third, third, one) is None
