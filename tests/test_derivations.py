import operator
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings, strategies as st

from cauchy_oracle import hom_apply_by_sums
from exp_oracle import _exp_apply, _exp_powers, _sum_apply
from laurent_oracle import constant
from lemmas import partial_gen_closed_form, rho_s, series_log_one_plus_hbx
from qharmonic.algebra import BAR1, EPoly, MzvPoly, NcPoly, e_to_word, word_to_e
from qharmonic.coeff import Laurent
from qharmonic.derivations import (
    A_ksp,
    Delta_X,
    Phi_X,
    Psi_X,
    Psi_X_series,
    _exp_series,
    _letter_series,
    a_s_index,
    d_n,
    delta_n,
    derive_words,
    iota,
    mzv_partial,
    partial_gen,
    partial_n,
    partial_n_e,
    z_word,
)
from qharmonic.errors import BadLetter, NotInH0, NotInMzvH1, OutOfRange
from qharmonic.products import shuffle_q
from qharmonic.series import (
    TruncSeries,
    series_const,
    series_one,
    series_psi,
    ts_mul,
)

H = Laurent.h
words = st.text(alphabet="ab", min_size=1, max_size=4)


def derive_words_by_products(w, images: dict):
    """The Leibniz extension as a sum of products head * image * tail, on
    words (NcPoly) or on indices (EPoly)."""
    cls = type(w)
    out = cls()
    for word, c in w.coefficients().items():
        for i, ch in enumerate(word):
            out = out + cls({word[:i]: c}) * images[ch] * cls({word[i + 1:]: 1})
    return out


def _nc_power(base: NcPoly, n: int) -> NcPoly:
    out = NcPoly.one()
    for _ in range(n):
        out = out * base
    return out


def partial_images_alt(n: int) -> dict[str, NcPoly]:
    """Oracle: the rewritten generator formulas for partial_n(a), partial_n(b),
    a (a + h) ((b+1)a + hb)^(n-1) b and (ab + a) (a(b+1) + hb)^(n-1) b."""
    ca = Fraction((-1) ** n, n)
    cb = Fraction((-1) ** (n - 1), n)
    z_left = NcPoly({"ab": 1, "a": 1, "b": H()})
    z_right = NcPoly({"ba": 1, "a": 1, "b": H()})
    da = NcPoly({"aa": 1, "a": H()}) * _nc_power(z_right, n - 1) * NcPoly.word("b")
    db = NcPoly({"ab": 1, "a": 1}) * _nc_power(z_left, n - 1) * NcPoly.word("b")
    return {"a": da.scale(ca), "b": db.scale(cb)}


def partial_n_alt(n: int, w: NcPoly) -> NcPoly:
    return derive_words(w, partial_images_alt(n))


laurent_coeffs = st.dictionaries(
    st.integers(-1, 2), st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=2
).map(Laurent)
nc_polys = st.dictionaries(st.text(alphabet="ab", max_size=4), laurent_coeffs, max_size=4).map(
    NcPoly
)

# Coprime denominators, so a wrong common denominator or a lost factor shows.
coprime_coeffs = st.builds(
    Fraction, st.integers(-12, 12).filter(bool), st.sampled_from([1, 3, 5, 7, 11])
)
coprime_nc_polys = st.dictionaries(
    st.text(alphabet="ab", max_size=3),
    st.dictionaries(st.integers(-1, 1), coprime_coeffs, min_size=1, max_size=2).map(Laurent),
    max_size=4,
).map(NcPoly)


def assert_exact_terms(x):
    """Every stored coefficient of x is a nonzero int or a non-integral Fraction."""
    for c in x.terms.values():
        assert (type(c) is int and c) or (type(c) is Fraction and c.denominator != 1), x.terms


e_polys = st.dictionaries(
    st.lists(st.sampled_from([1, BAR1]), max_size=3).map(tuple), laurent_coeffs, max_size=3
).map(EPoly)


class TestDeriveWords:
    @given(nc_polys, nc_polys, nc_polys)
    @settings(max_examples=80, deadline=None)
    def test_matches_product_route(self, w, img_a, img_b):
        images = {"a": img_a, "b": img_b}
        assert derive_words(w, images) == derive_words_by_products(w, images)

    @given(e_polys, e_polys, e_polys)
    @settings(max_examples=60, deadline=None)
    def test_matches_product_route_on_indices(self, x, img_1, img_bar):
        images = {1: img_1, BAR1: img_bar}
        assert derive_words(x, images) == derive_words_by_products(x, images)

    @given(coprime_nc_polys, coprime_nc_polys, coprime_nc_polys)
    @settings(max_examples=80, deadline=None)
    def test_coprime_denominators(self, w, img_a, img_b):
        images = {"a": img_a, "b": img_b}
        got = derive_words(w, images)
        assert got == derive_words_by_products(w, images)
        assert_exact_terms(got)

    def test_sums_cancel_to_ints_and_zero(self):
        # d(ab) = d(ba) = 1/3 bb + 2/3 aa
        images = {"a": NcPoly({"b": Fraction(1, 3)}), "b": NcPoly({"a": Fraction(2, 3)})}
        got = derive_words(NcPoly({"ab": 1, "ba": 2}), images)
        assert got.terms == {("bb", 0): 1, ("aa", 0): 2}
        assert derive_words(NcPoly({"ab": Fraction(1, 5), "ba": Fraction(-1, 5)}), images).is_zero()
        # 1/5 * 1/3 bb + 1/7 * 1/3 bb + (1/5 + 1/7) * 2/3 aa
        got = derive_words(NcPoly({"ab": Fraction(1, 5), "ba": Fraction(1, 7)}), images)
        assert got.terms == {("bb", 0): Fraction(4, 35), ("aa", 0): Fraction(8, 35)}
        images = {"a": NcPoly({"b": Fraction(1, 11)}), "b": NcPoly({"b": Fraction(10, 11)})}
        # d(ab) = 1/11 bb + 10/11 ab and d(bb) / 2 = 10/11 bb
        got = derive_words(NcPoly({"ab": 1, "bb": Fraction(1, 2)}), images)
        assert got.terms == {("bb", 0): 1, ("ab", 0): Fraction(10, 11)}

    def test_images_that_cancel(self):
        # d(a) = b, d(b) = a gives d(ab) = bb + aa = d(ba)
        images = {"a": NcPoly.word("b"), "b": NcPoly.word("a")}
        assert derive_words(NcPoly({"ab": 1, "ba": -1}), images).is_zero()


class TestDelta:
    def test_delta1_b(self):
        assert delta_n(1, NcPoly.word("b")) == NcPoly({"bab": 1, "ab": 1})

    def test_delta_a_vanishes(self):
        assert delta_n(3, NcPoly.word("a")).is_zero()

    def test_delta2_b(self):
        c = Fraction(-1, 2)
        assert delta_n(2, NcPoly.word("b")) == NcPoly({"baab": c, "aab": c})

    @given(words, words, st.integers(1, 3))
    @settings(max_examples=40)
    def test_leibniz(self, w1, w2, n):
        u, v = NcPoly.word(w1), NcPoly.word(w2)
        assert delta_n(n, u * v) == delta_n(n, u) * v + u * delta_n(n, v)


class TestDn:
    def test_d1_ab(self):
        assert d_n(1, NcPoly.word("ab")) == NcPoly({"abab": 1, "abb": H()})

    def test_d_of_unit_vanishes(self):
        assert d_n(1, NcPoly.one()).is_zero()
        assert d_n(2, NcPoly.one()).is_zero()

    @given(words, words, st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_derivation_for_concatenation(self, w1, w2, n):
        u, v = NcPoly.word(w1), NcPoly.word(w2)
        assert d_n(n, u * v) == d_n(n, u) * v + u * d_n(n, v)


class TestPartial:
    def test_partial1_a(self):
        assert partial_n(1, NcPoly.word("a")) == NcPoly({"aab": -1, "ab": H(1, -1)})

    def test_partial1_b(self):
        assert partial_n(1, NcPoly.word("b")) == NcPoly({"abb": 1, "ab": 1})

    def test_partial1_ab_leibniz(self):
        got = partial_n(1, NcPoly.word("ab"))
        assert got == NcPoly({"aab": 1, "abb": H(1, -1)})
        assert word_to_e(got) == partial_n_e(1, EPoly.gen(BAR1))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_alternative_forms_agree(self, n):
        for w in ("a", "b"):
            assert partial_n(n, NcPoly.word(w)) == partial_n_alt(n, NcPoly.word(w))

    @given(words, words, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_leibniz(self, w1, w2, n):
        u, v = NcPoly.word(w1), NcPoly.word(w2)
        assert partial_n(n, u * v) == partial_n(n, u) * v + u * partial_n(n, v)

    def test_commutes_with_partial_6(self):
        # [partial_i, partial_6] = 0 on the letters, hence on every word: the
        # premise of _exp_series for Delta_X at delta_order 6, which verify
        # delta-factorization checks only up to partial_5
        for i in range(1, 6):
            for w in (NcPoly.word("a"), NcPoly.word("b")):
                assert partial_n(i, partial_n(6, w)) == partial_n(6, partial_n(i, w)), (i, w)


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize(
    "op, x",
    [
        (delta_n, NcPoly.word("ab")),
        (d_n, NcPoly.word("ab")),
        (partial_n, NcPoly.word("ab")),
        (partial_n_e, EPoly.gen(2)),
        (mzv_partial, MzvPoly.word("xy")),
    ],
    ids=["delta_n", "d_n", "partial_n", "partial_n_e", "mzv_partial"],
)
def test_n_below_one_is_out_of_range(op, x, n):
    with pytest.raises(OutOfRange, match=f"^n must be >= 1, got {n}$"):
        op(n, x)


class TestPartialE:
    def test_partial1_e2(self):
        assert partial_n_e(1, EPoly.gen(2)) == EPoly({(3,): 1, (2, 1): -1})

    def test_partial1_e1bar(self):
        expected = EPoly({(2,): 1, (BAR1,): H(1, -1), (BAR1, 1): -1, (BAR1, BAR1): 1})
        assert partial_n_e(1, EPoly.gen(BAR1)) == expected

    def test_gate(self):
        with pytest.raises(NotInH0):
            partial_n_e(1, EPoly.gen(1))

    def test_output_stays_in_h0(self):
        from qharmonic.algebra import enumerate_indices_up_to

        for n in (1, 2, 3):
            for k in enumerate_indices_up_to(3, "Ihat0"):
                if not k:
                    continue
                out = partial_n_e(n, EPoly({k: 1}))
                assert out.supported_in_Ihat0()

    def test_agrees_with_word_route(self):
        from qharmonic.algebra import enumerate_indices_up_to

        for n in (1, 2, 3):
            for k in enumerate_indices_up_to(4, "Ihat0"):
                if not k:
                    continue
                x = EPoly({k: 1})
                assert partial_n_e(n, x) == word_to_e(partial_n(n, e_to_word(x)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_generators_match_closed_forms(self, n):
        # partial_gen carries the word derivation over; the oracle builds the
        # same images in the e-basis alone, from a e_k = e_(k+1)
        for entry in (BAR1, 1, 2, 3, 4, 5, 6):
            assert partial_gen(n, entry) == partial_gen_closed_form(n, entry), entry


class TestExpHomomorphisms:
    def test_phi_fixes_a(self):
        assert Phi_X(NcPoly.word("a"), 4) == TruncSeries(
            (NcPoly.word("a"),) + (NcPoly.zero(),) * 4
        )

    def test_phi_b_first_order(self):
        got = Phi_X(NcPoly.word("b"), 1)
        assert got.coeffs == (NcPoly.word("b"), NcPoly({"ab": 1, "bab": 1}))

    def test_delta_a_first_order(self):
        got = Delta_X(NcPoly.word("a"), 1)
        assert got.coeffs == (NcPoly.word("a"), NcPoly({"aab": -1, "ab": H(1, -1)}))

    def test_multiplicative(self):
        # Psi_X(uv) = Psi_X(u) Psi_X(v) on all pairs of words of length 1..2;
        # Psi_X is applied through its definition, the operator exponential,
        # so this is a property of d_n that the route does not build in
        order = 3
        short = ["a", "b", "aa", "ab", "ba", "bb"]
        for u, v in iproduct(short, short):
            x, y = NcPoly.word(u), NcPoly.word(v)
            lhs = Psi_X(x * y, order)
            rhs = ts_mul(operator.mul, Psi_X(x, order), Psi_X(y, order))
            assert lhs == rhs, (u, v)

    def test_psi_series_on_constant(self):
        w = NcPoly.word("ab")
        assert Psi_X_series(TruncSeries((w,) + (NcPoly.zero(),) * 3)) == Psi_X(w, 3)
        assert Psi_X(w, 3) == TruncSeries(tuple(_exp_apply(d_n, w, 3)))


laurent_coeffs = st.dictionaries(
    st.integers(-2, 2), st.fractions(-3, 3, max_denominator=4).filter(bool), min_size=1, max_size=2
).map(Laurent)
nc_polys = st.dictionaries(st.text(alphabet="ab", max_size=4), laurent_coeffs, max_size=4).map(NcPoly)


class TestHomomorphismRoute:
    """Delta_X and Phi_X multiply cached letter series along the words;
    the oracle is _exp_apply, the exponential applied to each word."""

    @pytest.mark.parametrize(
        "op, derivation", [(Delta_X, partial_n), (Phi_X, delta_n)], ids=["Delta_X", "Phi_X"]
    )
    @settings(max_examples=60, deadline=None)
    @given(x=nc_polys, order=st.integers(0, 4))
    @example(x=NcPoly.zero(), order=0)
    @example(x=NcPoly.zero(), order=3)
    @example(x=NcPoly({"": H(-2, 3), "ba": H(2), "aab": 1}), order=2)
    def test_agrees_with_definition(self, op, derivation, x, order):
        _letter_series.cache_clear()
        assert op(x, order) == TruncSeries(tuple(_exp_apply(derivation, x, order)))

    @pytest.mark.parametrize("derivation", [partial_n, delta_n])
    @settings(max_examples=40, deadline=None)
    @given(u=words | st.just(""), v=words | st.just(""), order=st.integers(0, 3))
    def test_definition_is_multiplicative(self, derivation, u, v, order):
        def image(w):
            return TruncSeries(tuple(_exp_apply(derivation, NcPoly.word(w), order)))

        assert image(u + v) == ts_mul(operator.mul, image(u), image(v))

    @pytest.mark.parametrize("op", [Delta_X, Phi_X, Psi_X, series_const])
    @pytest.mark.parametrize("w", [NcPoly.zero(), NcPoly.word("ab")])
    def test_negative_order_rejected(self, op, w):
        with pytest.raises(OutOfRange):
            op(w, -1)


WORDS_TO_4 = ["".join(t) for m in range(5) for t in iproduct("ab", repeat=m)]
HOMOMORPHISMS = [(Phi_X, delta_n), (Delta_X, partial_n)]


class TestInPlaceHomomorphism:
    """Phi_X and Delta_X accumulate each letter series times its tail image in
    one dict per power of X; the oracle adds series of products
    (hom_apply_by_sums)."""

    @pytest.mark.parametrize("op, derivation", HOMOMORPHISMS, ids=["Phi_X", "Delta_X"])
    def test_words_agree_with_sum_of_products(self, op, derivation):
        for w in WORDS_TO_4:
            got = op(NcPoly.word(w), 4)
            assert got == hom_apply_by_sums(derivation, NcPoly.word(w).terms, 4), w
            for c in got.coeffs:
                assert_exact_terms(c)

    @pytest.mark.parametrize("op, derivation", HOMOMORPHISMS, ids=["Phi_X", "Delta_X"])
    def test_mixed_coefficients_agree(self, op, derivation):
        # Words sharing prefixes, with coefficients that cancel across groups.
        x = NcPoly(
            {"": H(-1, 3), "ab": Fraction(1, 3), "aab": Fraction(2, 3), "ba": H(2), "bab": -1}
        )
        got = op(x, 4)
        assert got == hom_apply_by_sums(derivation, x.terms, 4)
        for c in got.coeffs:
            assert_exact_terms(c)

    @pytest.mark.parametrize("op", [Phi_X, Delta_X], ids=["Phi_X", "Delta_X"])
    def test_other_presentation_rejected(self, op):
        before = op(NcPoly.word("ab"), 2)
        for _ in range(2):
            with pytest.raises(TypeError):
                op(EPoly.gen(2), 2)
        assert op(NcPoly.word("ab"), 2) == before

    @pytest.mark.parametrize(
        "apply, cls, w, letter",
        [
            (Phi_X, NcPoly, "xb", "x"),
            (Delta_X, NcPoly, "ay", "y"),
            (lambda w, order: d_n(1, w), NcPoly, "xy", "x"),
            (lambda w, order: delta_n(1, w), NcPoly, "xy", "x"),
            (lambda w, order: partial_n(2, w), NcPoly, "bz", "z"),
            (lambda w, order: mzv_partial(1, w), MzvPoly, "xa", "a"),
        ],
        ids=["Phi_X", "Delta_X", "d_n", "delta_n", "partial_n", "mzv_partial"],
    )
    def test_foreign_letters_rejected(self, apply, cls, w, letter):
        # the foreign word is refused when it is built
        for _ in range(2):
            with pytest.raises(BadLetter, match=repr(letter)):
                apply(cls.word(w), 2)
        with pytest.raises(TypeError):
            apply({NcPoly: MzvPoly, MzvPoly: NcPoly}[cls].word(""), 2)
        assert delta_n(1, NcPoly.word("b")) == NcPoly({"bab": 1, "ab": 1})


class TestPowerLoop:
    """_exp_series, the derivative recursion behind the letter series, Psi_X
    and Psi_X_series, against the power loop _exp_powers and the
    composition-stack oracle _exp_apply, neither of which assumes that the
    D_n commute. == cannot tell an int from Fraction(n, 1), so every stored
    coefficient is also checked to be a nonzero int or a non-integral
    Fraction."""

    @staticmethod
    def assert_exact_series(s: TruncSeries):
        for c in s.coeffs:
            assert_exact_terms(c)

    @pytest.mark.parametrize(
        "derivation, order", [(d_n, 5), (delta_n, 5), (partial_n, 4)], ids=["d", "delta", "partial"]
    )
    def test_words_agree_with_oracle(self, derivation, order):
        for w in WORDS_TO_4:
            s = series_const(NcPoly.word(w), order)
            got = _exp_series(derivation, s)
            assert got == TruncSeries(tuple(_exp_apply(derivation, s.coeffs[0], order))), w
            assert got == _exp_powers(derivation, s), w
            self.assert_exact_series(got)

    @settings(max_examples=25, deadline=None)
    @given(coeffs=st.lists(nc_polys, min_size=2, max_size=5).filter(lambda cs: any(cs[1:])))
    @example(coeffs=[NcPoly.word("b"), NcPoly({"ab": H(1, 2), "": 1}), NcPoly.zero(), NcPoly.word("a")])
    def test_psi_series_agrees_with_oracle(self, coeffs):
        # Psi_X(sum_i X^i s_i) = sum_i X^i Psi_X(s_i), each truncated at order - i
        order = len(coeffs) - 1
        parts: list[list] = [[] for _ in range(order + 1)]
        for i, c in enumerate(coeffs):
            for j, piece in enumerate(_exp_apply(d_n, c, order - i)):
                parts[i + j].append(piece)
        want = TruncSeries(tuple(NcPoly.sum(p) for p in parts))
        s = TruncSeries(tuple(coeffs))
        got = Psi_X_series(s)
        assert got == want
        assert got == _exp_powers(d_n, s)
        self.assert_exact_series(got)

    def test_zero_and_order_zero(self):
        for order in (0, 3):
            zero = series_const(NcPoly.zero(), order)
            assert Psi_X(NcPoly.zero(), order) == zero
            assert Psi_X_series(zero) == zero
        x = NcPoly({"ab": Fraction(1, 3), "b": H()})
        assert Psi_X(x, 0) == series_const(x, 0) == _exp_powers(d_n, series_const(x, 0))

    @pytest.mark.parametrize(
        "coeffs",
        [
            (NcPoly.word("b"), EPoly.gen(2)),
            (NcPoly.word("b"), EPoly.zero()),
            (EPoly.gen(2), NcPoly.word("b")),
        ],
        ids=["nc-e", "nc-zero-e", "e-nc"],
    )
    def test_mixed_presentations_rejected(self, coeffs):
        with pytest.raises(TypeError):
            Psi_X_series(TruncSeries(coeffs))


GRADED_WORDS = ["".join(t) for m in range(4) for t in iproduct("ab", repeat=m)]


def weight_of(x: NcPoly) -> set:
    """The weights #a + j of the terms c*h^j*w of x; each coefficient must
    be a single monomial."""
    out = set()
    for w, c in x.coefficients().items():
        assert len(c.terms) == 1, (w, c)
        (j,) = c.terms
        out.add(w.count("a") + j)
    return out


class TestWeightGrading:
    """deg a = deg h = 1, deg b = 0: the derivations raise the weight by n,
    sh_q adds weights, and the X^j coefficient of Phi_X, Psi_X and Delta_X
    raises it by j. So every coefficient of a word is a monomial c*h^j."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("op", [partial_n, delta_n, d_n], ids=["partial", "delta", "d"])
    def test_derivations(self, op, n):
        for w in GRADED_WORDS:
            assert weight_of(op(n, NcPoly.word(w))) <= {w.count("a") + n}, w

    def test_shuffle_q(self):
        for w in GRADED_WORDS:
            for v in GRADED_WORDS:
                got = shuffle_q(NcPoly.word(w), NcPoly.word(v))
                assert weight_of(got) == {w.count("a") + v.count("a")}, (w, v)

    @pytest.mark.parametrize("op", [Phi_X, Psi_X, Delta_X])
    def test_exp_homomorphisms(self, op):
        for w in GRADED_WORDS:
            for j, coeff in enumerate(op(NcPoly.word(w), 3).coeffs):
                assert weight_of(coeff) <= {w.count("a") + j}, (w, j)


class TestRho:
    def test_rho1(self):
        assert rho_s(1, 3) == series_one(NcPoly.one(), 3)

    def test_rho2_closed_form(self):
        order = 4
        expected = series_psi(order).scale(2) + series_log_one_plus_hbx(order)
        assert rho_s(2, order) == expected

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_psi_times_rho_is_shuffle_power(self, s):
        order = 4
        psi = series_psi(order)
        lhs = ts_mul(operator.mul, psi, rho_s(s, order))
        rhs = psi
        for _ in range(s - 1):
            rhs = ts_mul(shuffle_q, rhs, psi)
        assert lhs == rhs

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("target", ["a", "b"])
    def test_d_power_formula(self, s, target):
        order = 3
        w = TruncSeries((NcPoly.word(target),) + (NcPoly.zero(),) * order)
        lhs = w
        for _ in range(s):
            lhs = _sum_apply(d_n, lhs)
        psi = series_psi(order)
        rho = rho_s(s, order)
        left = ts_mul(
            shuffle_q, ts_mul(operator.mul, psi, rho), w
        )
        right = ts_mul(operator.mul, psi, ts_mul(shuffle_q, rho, w))
        assert lhs == left - right


class TestOhnoCombinatorics:
    def test_a0_single_two(self):
        assert A_ksp((2,), 0, 0) == EPoly({(2,): 1})

    def test_a0_shifted(self):
        assert A_ksp((2,), 0, 1) == EPoly({(3,): 1})

    def test_a1_unshifted(self):
        assert A_ksp((2,), 1, 0) == EPoly({(2, 1): 1})

    def test_a_s_zero_block(self):
        assert a_s_index((0,), 0) == EPoly({(1,): 1})
        assert a_s_index((0,), 1).is_zero()

    def test_a_s_counts(self):
        # placements of s ones into wt(k) slots
        from math import comb

        for k, s in (((2,), 2), ((1, 1), 2), ((3,), 1)):
            total = sum(
                constant(c) for c in a_s_index(k, s).coefficients().values()
            )
            slots = sum(k)
            assert total == comb(s + slots - 1, slots - 1)


class TestMzvComparison:
    def test_iota_embedding(self):
        assert iota(z_word(2, 1)) == EPoly({(2, 1): 1})
        assert iota(MzvPoly.one()) == EPoly.one()

    def test_mzv_partial_z2(self):
        got = mzv_partial(1, z_word(2))
        assert got == MzvPoly({"xyy": 1, "xxy": -1})

    def test_comparison_instance(self):
        lhs = iota(mzv_partial(1, z_word(2))).scale(Fraction(-1, 1))
        assert lhs == EPoly({(3,): 1, (2, 1): -1})
        assert lhs == partial_n_e(1, iota(z_word(2)))

    def test_wrong_word_class_rejected(self):
        with pytest.raises(TypeError, match="MzvPoly"):
            mzv_partial(1, NcPoly.word("ab"))
        with pytest.raises(TypeError, match="NcPoly"):
            delta_n(1, MzvPoly.word("xy"))
        with pytest.raises(TypeError, match="MzvPoly"):
            iota(NcPoly.word("ab"))

    def test_iota_rejects_trailing_x(self):
        with pytest.raises(NotInMzvH1):
            iota(MzvPoly.word("yx"))

    def test_iota_rejects_a_power_of_h(self):
        with pytest.raises(NotInMzvH1, match="rational coefficients"):
            iota(MzvPoly({"xy": H(1)}))
        with pytest.raises(NotInMzvH1, match="ends in x"):
            iota(MzvPoly({"yx": H(1)}))
