import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cauchy_oracle import ts_mul_by_sums
from exp_oracle import ts_exp
from frozen_value import assert_frozen_value
from qharmonic.algebra import BAR1, EPoly, NcPoly, word_to_e
from qharmonic.coeff import Laurent
from qharmonic.errors import BadConstantTerm, OrderMismatch, OutOfRange
from qharmonic.products import shuffle_q, stuffle_classical, stuffle_q
from qharmonic.series import (
    TruncSeries,
    geometric,
    series_one,
    series_phi,
    series_psi,
    ts_log,
    ts_mul,
)

H = Laurent.h


def const_series(x, order):
    return TruncSeries((x,) + (type(x).zero(),) * order)


class TestTruncSeriesClass:
    def test_value_behaviour(self):
        ab = NcPoly.word("ab")
        assert_frozen_value(TruncSeries((ab, NcPoly.zero())), TruncSeries(coeffs=(ab, NcPoly())),
                            TruncSeries((ab, ab)), "TruncSeries(coeffs=(ab, 0))", "coeffs")

    def test_constructor_checks(self):
        assert TruncSeries(coeffs=(NcPoly.one(),)).order == 0
        with pytest.raises(ValueError, match="X\\^0"):
            TruncSeries(())

    def test_list_is_stored_as_a_tuple(self):
        ab = NcPoly.word("ab")
        s = TruncSeries([ab])
        assert s.coeffs == (ab,) and hash(s) == hash(TruncSeries((ab,)))

    def test_geometric_rejects_a_negative_order(self):
        with pytest.raises(OutOfRange, match="got -1"):
            geometric(NcPoly.word("ab"), -1)
        assert geometric(NcPoly.word("ab"), 0) == TruncSeries((NcPoly.one(),))


class TestMul:
    def test_telescoping(self):
        a = NcPoly.word("a")
        one = NcPoly.one()
        s = TruncSeries((one, a, NcPoly.zero()))
        t = TruncSeries((one, -a, NcPoly.zero()))
        got = ts_mul(operator.mul, s, t)
        assert got == TruncSeries((one, NcPoly.zero(), -(a * a)))

    def test_shuffle_square_of_e1bar_x(self):
        s = TruncSeries((NcPoly.zero(), NcPoly.word("ab"), NcPoly.zero()))
        got = ts_mul(shuffle_q, s, s)
        assert got.coeffs[2] == NcPoly({"abab": 2, "abb": H()})
        assert got.coeffs[0].is_zero() and got.coeffs[1].is_zero()

    def test_unit(self):
        s = geometric(EPoly.gen(2), 3)
        one = series_one(EPoly.one(), 3)
        assert ts_mul(stuffle_q, s, one) == s

    def test_product_of_the_other_presentation(self):
        e_series, w_series = series_one(EPoly.one(), 2), series_one(NcPoly.one(), 2)
        with pytest.raises(TypeError):
            ts_mul(shuffle_q, e_series, e_series)
        for mul in (stuffle_q, stuffle_classical):
            with pytest.raises(TypeError):
                ts_mul(mul, w_series, w_series)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            ts_mul(
                operator.mul,
                series_one(NcPoly.one(), 2),
                series_one(NcPoly.one(), 3),
            )


def concat_reversed(x, y):
    """A product outside ts_mul's table of in-place forms: y x."""
    return y * x


def assert_exact_terms(x):
    """Every stored coefficient of x is a nonzero int or a non-integral Fraction."""
    for c in x.terms.values():
        assert (type(c) is int and c) or (type(c) is Fraction and c.denominator != 1), x.terms


scalars = st.integers(-3, 3).filter(bool) | st.fractions(-3, 3, max_denominator=4).filter(bool)
h_coeffs = st.dictionaries(st.integers(-1, 2), scalars, min_size=1, max_size=2).map(Laurent)


def combs(cls, keys):
    return st.dictionaries(keys, h_coeffs, max_size=3).map(cls)


WORD_COMBS = combs(NcPoly, st.text(alphabet="ab", max_size=3))
PRODUCTS = [
    (operator.mul, WORD_COMBS),
    (shuffle_q, WORD_COMBS),
    (stuffle_q, combs(EPoly, st.lists(st.sampled_from([1, 2, BAR1]), max_size=2).map(tuple))),
    (stuffle_classical, combs(EPoly, st.lists(st.sampled_from([1, 2, 3]), max_size=2).map(tuple))),
    (concat_reversed, WORD_COMBS),
]
PRODUCT_IDS = ["concat", "shuffle_q", "stuffle_q", "stuffle_classical", "outside_table"]


class TestInPlaceCauchy:
    """ts_mul accumulates every product in one dict per power of X; the oracle
    sums the products as values (ts_mul_by_sums)."""

    @pytest.mark.parametrize("mul, comb_values", PRODUCTS, ids=PRODUCT_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), order=st.integers(0, 4))
    def test_agrees_with_sum_of_products(self, mul, comb_values, data, order):
        pair = st.lists(comb_values, min_size=order + 1, max_size=order + 1).map(tuple)
        s, t = TruncSeries(data.draw(pair)), TruncSeries(data.draw(pair))
        got = ts_mul(mul, s, t)
        assert got == ts_mul_by_sums(mul, s, t)
        for c in got.coeffs:
            assert_exact_terms(c)

    @pytest.mark.parametrize("mul, comb_values", PRODUCTS, ids=PRODUCT_IDS)
    def test_sums_cancel_to_ints_and_zero(self, mul, comb_values):
        cls = EPoly if mul in (stuffle_q, stuffle_classical) else NcPoly
        u = cls({(1, 2) if cls is EPoly else "ab": Fraction(1, 3)})
        v = cls({(2,) if cls is EPoly else "b": H()})
        # u carries 1/3: the X^1 coefficient uv + 2uv sums thirds to integers,
        # and the X^2 coefficient -3uv + 2uv + uv cancels to zero.
        s = TruncSeries((u, u.scale(2), u))
        t = TruncSeries((v, v, v.scale(-3)))
        got = ts_mul(mul, s, t)
        assert got == ts_mul_by_sums(mul, s, t)
        assert got.coeffs[1] and all(type(c) is int for c in got.coeffs[1].terms.values())
        assert got.coeffs[2].terms == {}

    def test_mismatched_types_outside_table(self):
        w_series, e_series = series_one(NcPoly.one(), 1), series_one(EPoly.one(), 1)
        with pytest.raises(TypeError):
            ts_mul(lambda x, y: word_to_e(x * y), w_series, w_series)
        with pytest.raises(TypeError):
            ts_mul(operator.mul, w_series, e_series)


class TestExpLog:
    def test_exp_of_ax(self):
        f = TruncSeries((NcPoly.zero(), NcPoly.word("a")) + (NcPoly.zero(),) * 2)
        got = ts_exp(operator.mul, f)
        assert got.coeffs[0] == NcPoly.one()
        assert got.coeffs[1] == NcPoly.word("a")
        assert got.coeffs[2] == NcPoly({"aa": Fraction(1, 2)})
        assert got.coeffs[3] == NcPoly({"aaa": Fraction(1, 6)})

    def test_bad_constant_terms(self):
        with pytest.raises(BadConstantTerm):
            ts_exp(operator.mul, series_one(NcPoly.one(), 2))
        with pytest.raises(BadConstantTerm):
            ts_log(operator.mul, const_series(NcPoly.zero(), 2))

    @pytest.mark.parametrize("mul", [operator.mul, shuffle_q], ids=["concat", "shuffle_q"])
    def test_word_exp_log_inverse(self, mul):
        f = TruncSeries(
            (
                NcPoly.zero(),
                NcPoly.word("ab"),
                NcPoly({"b": H()}),
                NcPoly.word("a"),
                NcPoly.zero(),
            )
        )
        assert ts_log(mul, ts_exp(mul, f)) == f
        g = series_one(NcPoly.one(), 4) + f
        assert ts_exp(mul, ts_log(mul, g)) == g

    @pytest.mark.parametrize(
        "mul",
        [operator.mul, stuffle_q, stuffle_classical],
        ids=["concat", "stuffle_q", "stuffle_classical"],
    )
    def test_e_exp_log_inverse(self, mul):
        if mul is stuffle_classical:
            gen = EPoly.gen(2)
        else:
            gen = EPoly.gen(BAR1)
        f = TruncSeries(
            (EPoly.zero(), gen, EPoly({(1, 2): 1}), EPoly.zero(), EPoly.gen(1))
        )
        assert ts_log(mul, ts_exp(mul, f)) == f

    @given(st.integers(1, 5))
    @settings(max_examples=6, deadline=None)
    def test_exp_log_inverse_orders(self, order):
        f = TruncSeries(
            tuple(
                [NcPoly.zero()]
                + [NcPoly({"ab" * ((m % 2) + 1): Fraction(m, m + 1)}) for m in range(1, order + 1)]
            )
        )
        assert ts_log(shuffle_q, ts_exp(shuffle_q, f)) == f


class TestNamedSeries:
    def test_series_psi(self):
        got = series_psi(2)
        assert got.coeffs[1] == NcPoly.word("ab")
        assert got.coeffs[2] == NcPoly({"abb": H(1, Fraction(-1, 2))})

    def test_series_phi(self):
        got = series_phi(2)
        assert got.coeffs[1] == NcPoly.word("ab")
        assert got.coeffs[2] == NcPoly({"aab": Fraction(-1, 2)})

    def test_geometric(self):
        got = geometric(NcPoly.word("ab"), 2)
        assert got.coeffs == (NcPoly.one(), NcPoly.word("ab"), NcPoly.word("abab"))

    def test_log_shuffle_formula(self):
        # log_sh of the geometric series is psi(X), up to X^6
        geo = geometric(NcPoly.word("ab"), 6)
        assert ts_log(shuffle_q, geo) == series_psi(6)

    def test_log_stuffle_formula(self):
        geo = geometric(EPoly.gen(BAR1), 6)
        assert ts_log(stuffle_q, geo) == series_phi(6).map_coeffs(word_to_e)

    def test_phi_coefficients_live_in_h1(self):
        # h^(n-1) a b^n = e_1bar (e_1 - e_1bar)^(n-1)
        for n in range(1, 5):
            lhs = word_to_e(NcPoly({"a" + "b" * n: H(n - 1)}))
            diff = EPoly.gen(1) - EPoly.gen(BAR1)
            rhs = EPoly.gen(BAR1)
            for _ in range(n - 1):
                rhs = rhs * diff
            assert lhs == rhs
