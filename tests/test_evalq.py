import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from frozen_value import assert_frozen_value
from laurent_oracle import substitute
from lemmas import f_basis_expand
from qharmonic.algebra import (
    BAR1,
    EPoly,
    e_to_word,
    enumerate_indices_up_to,
    index_dep,
    word_to_e,
)
from qharmonic.coeff import Laurent
from qharmonic.errors import NotInH0, OutOfRange
from qharmonic.evalq import (
    CertifiedValue,
    QValue,
    Zq_eval,
    _exact_str,
    _gamma_prefix,
    _index_numerator,
    _suffix_numerators,
    tail_bound,
    zeta_q_partial,
)
from qharmonic.products import shuffle_q, stuffle_q

H = Laurent.h
HALF = QValue(Fraction(1, 2))
IHAT0_4 = enumerate_indices_up_to(4, "Ihat0")
IHAT0_5 = enumerate_indices_up_to(5, "Ihat0")
Q_VALUES = [QValue(Fraction(n, d)) for n, d in ((1, 2), (1, 3), (2, 7), (5, 6))]
TRUNCATIONS = [1, 2, 17, 120]


# --- oracles: the Fraction-accumulating routes the shared denominator replaced


def q_int(m: int, q: QValue | Fraction) -> Fraction:
    """The q-integer [m] = (1 - q^m)/(1 - q)."""
    if m < 1:
        raise OutOfRange("q-integers need m >= 1")
    qq = q.q if isinstance(q, QValue) else q
    return (1 - qq**m) / (1 - qq)


def f_factor(entry, m: int, q: Fraction) -> Fraction:
    """F_k(m): q^((k-1)m)/[m]^k for integer k, q^m/[m] for 1bar."""
    br = q_int(m, q)
    if entry is BAR1:
        return q**m / br
    return q ** ((entry - 1) * m) / br**entry


def tail_bound_summed(depth: int, q: Fraction, M: int) -> Fraction:
    """The counting bound as closed form minus the summed finite part."""
    if depth == 0:
        return Fraction(0)
    closed = q**depth / (1 - q) ** depth
    finite = sum((comb(m - 1, depth - 1) * q**m for m in range(depth, M + 1)), Fraction(0))
    return closed - finite


def zeta_value_reduced(k, q: QValue, M: int) -> Fraction:
    """One reduced Fraction per index, from the integer-numerator DP."""
    if M < 1:
        raise OutOfRange("M >= 1")
    if k and k[0] == 1:
        raise NotInH0(f"index {k} starts with an unbarred 1")
    a, b = q.q.numerator, q.q.denominator
    num, kappa, weight = _index_numerator(k, a, b, M)
    return Fraction(num, b**weight * _gamma_prefix(kappa, a, b, M)[M])


def zq_eval_summed(x: EPoly, q: QValue, M: int) -> CertifiedValue:
    """Z_q as a running Fraction sum over the terms, one gcd or more per term."""
    value = Fraction(0)
    bound = Fraction(0)
    for k, c in x.coefficients().items():
        scalar = substitute(c, 1 - q.q)
        value += scalar * zeta_value_reduced(k, q, M)
        bound += abs(scalar) * tail_bound_summed(index_dep(k), q.q, M)
    return CertifiedValue(value, bound, M)


# --- oracle: the suffix DP at each suffix's own K, lifting the table of the
# suffix by a prefix product whenever the head's weight exceeds its K


@lru_cache(maxsize=None)
def gamma_prefix_ref(delta: int, a: int, b: int, M: int) -> tuple[int, ...]:
    return tuple(accumulate(((b**m - a**m) ** delta for m in range(1, M + 1)), mul, initial=1))


@lru_cache(maxsize=None)
def suffix_numerators_lifted(suffix, a: int, b: int, M: int):
    """(N, K, W) of `suffix` over b^W prod_(i<=m) g_i^K, K its own largest
    entry weight."""
    if not suffix:
        return tuple([1] * (M + 1)), 0, 0
    return head_step_lifted(suffix[0], suffix_numerators_lifted(suffix[1:], a, b, M), a, b, M)


def head_step_lifted(head, rest, a: int, b: int, M: int):
    """(N, K, W) for `head` followed by a suffix with (N, K, W) = `rest`."""
    sub, k_rest, w_rest = rest
    v = 1 if head is BAR1 else head  # exponent of g_m in F_head(m), and its weight
    kappa = max(v, k_rest)
    g = [b**m - a**m for m in range(M + 1)]
    pp = gamma_prefix_ref(kappa - k_rest, a, b, M) if kappa != k_rest else None
    ba = b - a
    out = [0] * (M + 1)
    acc = 0
    for m in range(1, M + 1):
        # numerator of F_head(m) * cum_rest(m-1), over the common denominator
        term = (a**m * ba if head is BAR1 else a ** ((head - 1) * m) * ba**head * b**m) * sub[m - 1]
        if kappa > v:
            term *= g[m] ** (kappa - v)
        if pp is not None:
            term *= pp[m - 1]
        acc = acc * g[m] ** kappa + term
        out[m] = acc
    return tuple(out), kappa, v + w_rest


laurents = st.dictionaries(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    max_size=4,
).map(Laurent)
epolys = st.dictionaries(st.sampled_from(IHAT0_4), laurents, max_size=6).map(EPoly)


def zeta_brute(k, q: Fraction, M: int) -> Fraction:
    """Independent oracle: enumerate every decreasing tuple explicitly."""
    r = len(k)
    if r == 0:
        return Fraction(1)
    total = Fraction(0)
    for combo in combinations(range(1, M + 1), r):
        ms = tuple(reversed(combo))  # m_1 > ... > m_r
        term = Fraction(1)
        for entry, m in zip(k, ms):
            term *= f_factor(entry, m, q)
        total += term
    return total


class TestQInt:
    def test_values(self):
        assert q_int(1, HALF) == 1
        assert q_int(3, HALF) == Fraction(7, 4)
        assert q_int(2, QValue(Fraction(1, 3))) == Fraction(4, 3)

    def test_range(self):
        with pytest.raises(OutOfRange):
            q_int(0, HALF)
        with pytest.raises(OutOfRange):
            QValue(Fraction(3, 2))


class TestQValueClass:
    def test_value_behaviour(self):
        assert_frozen_value(HALF, QValue(q=Fraction(2, 4)), QValue(Fraction(1, 3)),
                            "QValue(q=Fraction(1, 2))", "q")

    def test_constructor_checks(self):
        assert QValue(1 - Fraction(1, 2)).q == Fraction(1, 2)
        assert type(QValue("1/3").q) is Fraction
        with pytest.raises(TypeError, match="float"):
            QValue(q=0.5)
        for q in (0, 1, Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(OutOfRange, match="0 < q < 1"):
                QValue(q)


class TestNoFloats:
    """A float's binary value is not the rational meant, so it is refused."""

    def test_floats_raise(self):
        with pytest.raises(TypeError, match="float"):
            QValue(0.1)
        with pytest.raises(TypeError, match="float"):
            CertifiedValue(0.1, Fraction(0), 1)

    def test_exact_inputs_pass(self):
        assert QValue(Fraction(1, 10)).q == Fraction(1, 10)
        assert CertifiedValue(1, Fraction(0), 1).value == 1


class TestZetaPartial:
    def test_golden_single_two(self):
        cv = zeta_q_partial((2,), HALF, 3)
        assert cv.value == Fraction(575, 882)
        assert cv.tail_bound == Fraction(1, 8)

    def test_empty_index(self):
        cv = zeta_q_partial((), HALF, 5)
        assert (cv.value, cv.tail_bound) == (1, 0)

    def test_bar_one(self):
        cv = zeta_q_partial((BAR1,), HALF, 1)
        assert cv.value == Fraction(1, 2)
        assert cv.tail_bound == Fraction(1, 2)

    def test_gate(self):
        with pytest.raises(NotInH0):
            zeta_q_partial((1, 2), HALF, 10)

    def test_is_cached_Zq_of_e_k(self):
        for k in [(), (2,), (BAR1, 1), (3, 1)]:
            cv, want = zeta_q_partial(k, HALF, 12), Zq_eval(EPoly({k: 1}), HALF, 12)
            assert (cv.value, cv.tail_bound, str(cv)) == (want.value, want.tail_bound, str(want))
            assert zeta_q_partial(list(k), HALF, 12) is cv

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 5), Fraction(3, 7)])
    def test_matches_brute_force(self, q):
        qv = QValue(q)
        for k in enumerate_indices_up_to(4, "Ihat0"):
            got = zeta_q_partial(k, qv, 9)
            assert got.value == zeta_brute(k, q, 9), k

    def test_interval_consistency(self):
        for k in [(2,), (BAR1, 1), (3, 1), (2, BAR1, 1)]:
            a = zeta_q_partial(k, HALF, 8)
            b = zeta_q_partial(k, HALF, 20)
            assert a.overlaps(b)
            assert b.tail_bound < a.tail_bound

    def test_tail_bound_dominates_true_tail(self):
        # counting bound: tail after M=8 must cover the jump to M=30
        for k in [(2,), (BAR1, BAR1), (2, 1, 1)]:
            a = zeta_q_partial(k, HALF, 8)
            b = zeta_q_partial(k, HALF, 30)
            assert abs(b.value - a.value) <= a.tail_bound


class TestZqEval:
    def test_linear_combination(self):
        x = EPoly({(2,): 1, (BAR1,): H(1, -1)})
        cv = Zq_eval(x, HALF, 3)
        part_bar = zeta_q_partial((BAR1,), HALF, 3)
        assert cv.value == Fraction(575, 882) - Fraction(1, 2) * part_bar.value
        assert cv.value == Fraction(499, 1764)

    def test_zero_and_unit(self):
        assert Zq_eval(EPoly.zero(), HALF, 5).value == 0
        cv = Zq_eval(EPoly.zero(), HALF, 0)
        assert (cv.value, cv.tail_bound) == (0, 0)
        cv = Zq_eval(EPoly.one(), HALF, 5)
        assert (cv.value, cv.tail_bound) == (1, 0)

    @given(epolys, st.sampled_from(Q_VALUES), st.sampled_from(TRUNCATIONS))
    @settings(max_examples=150, deadline=None)
    def test_matches_summed_oracle(self, x, q, M):
        got, want = Zq_eval(x, q, M), zq_eval_summed(x, q, M)
        assert (got.value, got.tail_bound, got.truncation) == (
            want.value,
            want.tail_bound,
            want.truncation,
        )

    def test_term_outside_ihat0(self):
        x = EPoly({(2,): 1, (1, 2): H(1, 3)})
        for evaluate in (Zq_eval, zq_eval_summed):
            with pytest.raises(NotInH0):
                evaluate(x, HALF, 10)

    def test_truncation_zero_with_a_term(self):
        for x in (EPoly.gen(2), EPoly.one()):
            for evaluate in (Zq_eval, zq_eval_summed):
                with pytest.raises(OutOfRange):
                    evaluate(x, HALF, 0)

    def test_truncation_below_one_names_it(self):
        with pytest.raises(OutOfRange, match=r"^M must be >= 1, got 0$"):
            Zq_eval(EPoly.gen(2), QValue(Fraction(1, 2)), 0)

    def test_stuffle_relation_numeric(self):
        # Z_q(w *_q w') = Z_q(w) Z_q(w') within certified bounds
        w1, w2 = EPoly.gen(2), EPoly({(BAR1, 1): 1})
        lhs = Zq_eval(stuffle_q(w1, w2), HALF, 60)
        a, b = Zq_eval(w1, HALF, 60), Zq_eval(w2, HALF, 60)
        resid = abs(lhs.value - a.value * b.value)
        bound = (
            lhs.tail_bound
            + a.tail_bound * (abs(b.value) + b.tail_bound)
            + b.tail_bound * (abs(a.value) + a.tail_bound)
        )
        assert resid <= bound

    def test_double_shuffle_instance(self):
        w1, w2 = EPoly.gen(2), EPoly.gen(BAR1)
        st_ = stuffle_q(w1, w2)
        sh = word_to_e(shuffle_q(e_to_word(w1), e_to_word(w2)))
        cv = Zq_eval(st_ - sh, HALF, 80)
        assert abs(cv.value) <= cv.tail_bound


class TestUnreduced:
    """CertifiedValue keeps num/den unreduced; every comparison agrees with
    the reduced Fraction."""

    @given(epolys, st.sampled_from(Q_VALUES), st.sampled_from(TRUNCATIONS))
    @settings(max_examples=150, deadline=None)
    def test_certifies_zero_matches_fraction_check(self, x, q, M):
        cv = Zq_eval(x, q, M)
        assert cv.den > 0
        assert cv.certifies_zero() == (abs(cv.value) <= cv.tail_bound)

    @given(epolys, epolys, st.sampled_from(Q_VALUES), st.sampled_from([1, 2, 17]))
    @settings(max_examples=60, deadline=None)
    def test_overlaps_matches_fraction_check(self, x, y, q, M):
        a, b = Zq_eval(x, q, M), Zq_eval(y, q, M)
        assert a.overlaps(b) == (abs(a.value - b.value) <= a.tail_bound + b.tail_bound)

    @pytest.mark.parametrize(
        "num, den, bound, want",
        [
            (6, 16, Fraction(3, 8), True),  # |value| = bound
            (7, 16, Fraction(3, 8), False),
            (-6, 16, Fraction(3, 8), True),
            (-7, 16, Fraction(3, 8), False),
            (0, 10**40, Fraction(0), True),
            (1, 10**40, Fraction(0), False),
            (0, 3, Fraction(1, 5), True),
        ],
    )
    def test_certifies_zero_boundary(self, num, den, bound, want):
        cv = CertifiedValue._unreduced(num, den, bound, 7)
        assert cv.certifies_zero() is want
        assert (abs(cv.value) <= cv.tail_bound) is want

    @given(st.integers(-(2**200), 2**200), st.integers(1, 2**200), st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_enclose_brackets_the_value(self, num, den, bits):
        lo, hi = CertifiedValue._unreduced(num, den, Fraction(0), 1)._enclose(bits)
        scaled = Fraction(num, den) * 2**bits
        assert lo <= scaled <= hi <= lo + 1
        assert (lo == hi) is (scaled.denominator == 1)

    def test_enclose_of_an_exact_one(self):
        assert zeta_q_partial((), HALF, 5)._enclose(70) == (2**70, 2**70)
        assert CertifiedValue._unreduced(-1, 3, Fraction(0), 1)._enclose(2) == (-2, -1)

    def test_overlaps_boundary(self):
        a = CertifiedValue._unreduced(2, 8, Fraction(1, 8), 3)  # [1/8, 3/8]
        assert a.overlaps(CertifiedValue._unreduced(10, 40, Fraction(1, 100), 3))
        assert a.overlaps(CertifiedValue(Fraction(1, 2), Fraction(1, 8), 3))  # touch at 3/8
        assert not a.overlaps(CertifiedValue(Fraction(1, 2), Fraction(1, 9), 3))
        assert a.overlaps(CertifiedValue._unreduced(-2, 8, Fraction(3, 8), 3))  # touch at 1/8
        assert not a.overlaps(CertifiedValue._unreduced(-2, 8, Fraction(1, 4), 3))

    def test_equals_its_reduced_twin(self):
        cv = CertifiedValue._unreduced(6, 16, Fraction(1, 8), 3)
        twin = CertifiedValue(Fraction(3, 8), Fraction(1, 8), 3)
        assert (cv.num, cv.den) == (6, 16)
        assert cv == twin and hash(cv) == hash(twin)
        assert str(cv) == str(twin) == "3/8 +/- 1/8 (M=3)"
        assert {cv: 1}[twin] == 1
        assert cv != CertifiedValue(Fraction(3, 8), Fraction(1, 8), 4)
        assert cv != CertifiedValue(Fraction(3, 8), Fraction(1, 9), 3)

    def test_evaluators_leave_the_sum_unreduced(self):
        cv = zeta_q_partial((2,), HALF, 3)
        assert cv.value == Fraction(cv.num, cv.den) == Fraction(575, 882)
        assert cv.den > 882
        assert cv == CertifiedValue(Fraction(575, 882), Fraction(1, 8), 3)

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 7)])
    def test_mixed_kappa_oracle(self, q):
        # kappa 1 (1bar), 2 ((2), (2,1bar)) and 3 ((3,1)), Fraction weights
        x = EPoly(
            {
                (BAR1,): Fraction(3, 5),
                (2,): H(-1, Fraction(1, 3)),
                (2, BAR1): H(1, Fraction(-7, 4)),
                (3, 1): Fraction(2, 9),
            }
        )
        M = 7
        cv = Zq_eval(x, QValue(q), M)
        want = sum(
            (substitute(c, 1 - q) * zeta_brute(k, q, M) for k, c in x.coefficients().items()),
            Fraction(0),
        )
        assert cv.value == want
        assert cv.tail_bound == sum(
            abs(substitute(c, 1 - q)) * tail_bound_summed(index_dep(k), q, M)
            for k, c in x.coefficients().items()
        )

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 7)])
    def test_combination_that_cancels_exactly(self, q):
        # truncated sums obey the q-stuffle exactly: Z(e_2) Z(e_3) = Z(e_2 *_q e_3),
        # so c e_3 - e_2 *_q e_3 with c = Z(e_2) is 0 across kappa = 3, 4, 5
        qv, M = QValue(q), 9
        c = Zq_eval(EPoly.gen(2), qv, M).value
        x = EPoly({(3,): Laurent({0: c})}) - stuffle_q(EPoly.gen(2), EPoly.gen(3))
        cv = Zq_eval(x, qv, M)
        assert cv.num == 0 and cv.value == 0
        assert cv.certifies_zero() and cv.tail_bound > 0


class TestLiftedRoute:
    """The DP at each index's own K against the lifted route it replaced,
    bit for bit: suffix tables and final numerators."""

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        # the M = 120 tables of one q fill tens of MB; drop them after each case
        yield
        for cache in (suffix_numerators_lifted, _suffix_numerators, _index_numerator):
            cache.cache_clear()

    @pytest.mark.parametrize("M", TRUNCATIONS)
    @pytest.mark.parametrize("q", Q_VALUES, ids=lambda q: f"q={q.q}")
    def test_every_index_of_weight_5(self, q, M):
        a, b = q.q.numerator, q.q.denominator
        for k in IHAT0_5:
            nums, kappa, weight = suffix_numerators_lifted(k, a, b, M)
            assert _index_numerator(k, a, b, M) == (nums[M], kappa, weight), k
            for i in range(len(k) + 1):
                s_nums, s_kappa, _ = suffix_numerators_lifted(k[i:], a, b, M)
                lift = gamma_prefix_ref(kappa - s_kappa, a, b, M)
                want = tuple(x * y for x, y in zip(s_nums, lift))
                assert _suffix_numerators(k[i:], kappa, a, b, M) == want, (k, i)


class TestExactStr:
    @pytest.mark.parametrize(
        "x", [0, 7, -7, Fraction(-3, 8), Fraction(575, 882), 10**30, Fraction(1, 10**30)]
    )
    def test_matches_str(self, x):
        assert _exact_str(x) == str(x)

    def test_past_the_digit_limit(self):
        x = Fraction(-(3**12000), 7**9000 + 2)  # 5726 and 7606 digits
        lift = getattr(sys, "set_int_max_str_digits", None)
        if lift is not None:
            limit = sys.get_int_max_str_digits()
            lift(0)
        try:
            want = str(x)
        finally:
            if lift is not None:
                lift(limit)
        assert _exact_str(x) == want

    def test_repr_past_the_digit_limit(self):
        cv = zeta_q_partial((4,), HALF, 120)
        assert len(_exact_str(cv.value)) > 4300
        assert repr(cv) == (
            f"CertifiedValue(value={_exact_str(cv.value)}, "
            f"tail_bound={_exact_str(cv.tail_bound)}, truncation=120)"
        )
        small = CertifiedValue(Fraction(1, 3), Fraction(1, 8), 2)
        assert repr(small) == "CertifiedValue(value=1/3, tail_bound=1/8, truncation=2)"


class TestFBasis:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_expansion_identities(self, k):
        q = Fraction(1, 2)
        for l in range(0, k + 1):
            expansion = f_basis_expand(k, l)
            for m in range(1, 11):
                lhs = q ** (l * m) / q_int(m, HALF) ** k
                rhs = sum(
                    (
                        substitute(coeff, 1 - q) * f_factor(entry, m, q)
                        for entry, coeff in expansion.items()
                    ),
                    Fraction(0),
                )
                assert lhs == rhs, (k, l, m)

    def test_range_errors(self):
        with pytest.raises(OutOfRange):
            f_basis_expand(0, 0)
        with pytest.raises(OutOfRange):
            f_basis_expand(2, 3)


class TestTailBound:
    def test_closed_form_at_full_sum(self):
        # with M -> r-1 the finite part is empty: bound equals q^r/(1-q)^r
        assert tail_bound(2, Fraction(1, 2), 1) == 1

    def test_depth_zero(self):
        assert tail_bound(0, Fraction(1, 2), 10) == 0

    @given(
        st.integers(0, 6),
        st.sampled_from([q.q for q in Q_VALUES]),
        st.sampled_from(TRUNCATIONS) | st.integers(-2, 130),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_summed_oracle(self, depth, q, M):
        assert tail_bound(depth, q, M) == tail_bound_summed(depth, q, M)

    def test_certified_value_invariants(self):
        with pytest.raises(ValueError):
            CertifiedValue(Fraction(1), Fraction(-1), 5)
