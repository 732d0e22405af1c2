from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lemmas import left_mul_a
from qharmonic.algebra import (
    BAR1,
    EPoly,
    LinComb,
    MzvPoly,
    NcPoly,
    binary_to_index,
    e_to_word,
    enbar,
    enumerate_indices,
    hoffman_dual,
    in_I,
    in_Ihat0,
    index_dep,
    index_str,
    index_to_binary,
    index_wt,
    parse_index,
    word_to_e,
)
from qharmonic.coeff import Laurent
from qharmonic.cyclo import zn_eval
from qharmonic.derivations import z_word
from qharmonic.errors import BadEntry, BadLetter, EmptyIndex, HasBarEntry, NotInH1
from qharmonic.evalq import QValue, zeta_q_partial

H = Laurent.h


def entries(max_entry=4):
    return st.one_of(st.integers(1, max_entry), st.just(BAR1))


def indices(max_dep=3, max_entry=4):
    return st.lists(entries(max_entry), max_size=max_dep).map(tuple)


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


def epolys(max_terms=3):
    return st.dictionaries(indices(), coeffs, min_size=1, max_size=max_terms).map(EPoly)


laurent_coeffs = st.dictionaries(st.integers(-2, 2), coeffs, min_size=1, max_size=2).map(Laurent)
h1_words = st.lists(st.integers(0, 3), max_size=4).map(lambda runs: "".join("a" * r + "b" for r in runs))
h1_polys = st.dictionaries(h1_words, laurent_coeffs, max_size=4).map(NcPoly)

# Coprime denominators, so a wrong common denominator or a lost factor shows.
coprime_coeffs = st.builds(
    Fraction, st.integers(-12, 12).filter(bool), st.sampled_from([1, 3, 5, 7, 11])
)
coprime_laurents = st.dictionaries(st.integers(-2, 2), coprime_coeffs, min_size=1, max_size=2).map(
    Laurent
)
coprime_h1_polys = st.dictionaries(h1_words, coprime_laurents, max_size=5).map(NcPoly)


def assert_exact_terms(x):
    """Every stored coefficient of x is a nonzero int or a non-integral Fraction."""
    for c in x.terms.values():
        assert (type(c) is int and c) or (type(c) is Fraction and c.denominator != 1), x.terms


B_BLOCK = EPoly({(1,): H(-1), (BAR1,): H(-1, -1)})


def word_to_e_per_word(x: NcPoly) -> EPoly:
    """Reference route for word_to_e: expand every word on its own as the
    product of its blocks a^n b -> enbar(n) and b -> h^-1 (e_1 - e_1bar),
    then sum the images."""
    out = EPoly()
    for w, c in x.coefficients().items():
        image = EPoly.one()
        run = 0
        for ch in w:
            if ch == "a":
                run += 1
            else:
                image = image * (enbar(run) if run else B_BLOCK)
                run = 0
        if run:
            raise NotInH1(f"word {w!r} ends in a")
        out = out + image.scale(c)
    return out


class TestConversions:
    def test_e2_to_word(self):
        assert e_to_word(EPoly.gen(2)) == NcPoly({"aab": 1, "ab": H()})

    def test_e1bar_to_word(self):
        assert e_to_word(EPoly.gen(BAR1)) == NcPoly.word("ab")

    def test_product_of_generators(self):
        x = EPoly({(BAR1, 2): 1})
        assert e_to_word(x) == NcPoly({"abaab": 1, "abab": H()})

    def test_aab_to_e(self):
        assert word_to_e(NcPoly.word("aab")) == EPoly({(2,): 1, (BAR1,): H(1, -1)})

    def test_bare_b_block(self):
        assert word_to_e(NcPoly.word("b")) == EPoly({(1,): H(-1), (BAR1,): H(-1, -1)})

    def test_trailing_a_rejected(self):
        with pytest.raises(NotInH1):
            word_to_e(NcPoly.word("ba"))

    @given(epolys())
    @settings(max_examples=60)
    def test_word_to_e_inverts_e_to_word(self, x):
        assert word_to_e(e_to_word(x)) == x

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    def test_e_to_word_inverts_word_to_e(self, runs):
        word = "".join("a" * r + "b" for r in runs)
        y = NcPoly.word(word)
        assert e_to_word(word_to_e(y)) == y


class TestWordToEAgainstPerWord:
    """word_to_e groups words by their leading block; it must agree with
    expanding each word separately."""

    @given(h1_polys, laurent_coeffs)
    @settings(max_examples=60)
    def test_agrees_with_constant_term(self, x, c):
        y = x + NcPoly({"": c})
        assert word_to_e(y) == word_to_e_per_word(y)

    @given(epolys(), h1_polys)
    @settings(max_examples=60)
    def test_agrees_where_images_cancel(self, target, x):
        # The images of the words of e_to_word(target) cancel down to the
        # few indices of target.
        y = e_to_word(target) + x
        assert word_to_e(y) == word_to_e_per_word(y) == target + word_to_e_per_word(x)
        assert word_to_e(y - y) == word_to_e_per_word(y - y) == EPoly()
        assert word_to_e(y) + word_to_e(-y) == EPoly()

    @given(coprime_h1_polys)
    @settings(max_examples=80)
    # aab -> e_2 - h e_1bar and h ab -> h e_1bar: the h e_1bar terms add up
    # to an int (2/3 + 1/3), to zero (-1/3 + 1/3) or to -1/15 (-4/5 + 11/15)
    @example(NcPoly({"aab": Fraction(-2, 3), "ab": H(1, Fraction(1, 3))}))
    @example(NcPoly({"aab": Fraction(1, 3), "ab": H(1, Fraction(1, 3)), "b": Fraction(2, 7)}))
    @example(NcPoly({"aab": Fraction(4, 5), "ab": H(1, Fraction(11, 15))}))
    def test_coprime_denominators(self, x):
        y = word_to_e(x)
        assert y == word_to_e_per_word(x)
        assert_exact_terms(y)
        assert e_to_word(y) == x

    def test_sums_cancel_to_ints_and_zero(self):
        x = NcPoly({"aab": Fraction(-2, 3), "ab": H(1, Fraction(1, 3)), "b": Fraction(5, 11)})
        y = word_to_e(x)
        assert y.terms == {
            ((2,), 0): Fraction(-2, 3),
            ((BAR1,), 1): 1,
            ((1,), -1): Fraction(5, 11),
            ((BAR1,), -1): Fraction(-5, 11),
        }
        z = word_to_e(NcPoly({"aab": Fraction(1, 3), "ab": H(1, Fraction(1, 3))}))
        assert z.terms == {((2,), 0): Fraction(1, 3)}
        assert_exact_terms(y)

    @given(h1_polys, st.text(alphabet="ab", max_size=4), laurent_coeffs)
    def test_trailing_a_rejected_on_both_routes(self, x, w, c):
        y = x + NcPoly({w + "a": c})
        with pytest.raises(NotInH1):
            word_to_e(y)
        with pytest.raises(NotInH1):
            word_to_e_per_word(y)


class TestLeftMulA:
    def test_bumps_integer_entry(self):
        assert left_mul_a(EPoly.gen(3)) == EPoly.gen(4)

    def test_bar_becomes_e2_minus_h_bar(self):
        assert left_mul_a(EPoly.gen(BAR1)) == EPoly({(2,): 1, (BAR1,): H(1, -1)})

    def test_acts_on_leading_generator(self):
        assert left_mul_a(EPoly({(2, 1): 1})) == EPoly({(3, 1): 1})

    def test_empty_index_rejected(self):
        with pytest.raises(EmptyIndex):
            left_mul_a(EPoly.one())

    @given(epolys())
    @settings(max_examples=40)
    def test_agrees_with_word_side(self, x):
        if any(not k for k in x.coefficients()):
            return
        assert e_to_word(left_mul_a(x)) == NcPoly.word("a") * e_to_word(x)


class TestHoffmanDual:
    def test_paper_example(self):
        assert hoffman_dual((2, 3, 1)) == (1, 2, 1, 2)

    def test_fixed_point(self):
        assert hoffman_dual((1,)) == (1,)

    def test_single_three(self):
        assert hoffman_dual((3,)) == (1, 1, 1)

    def test_errors(self):
        with pytest.raises(EmptyIndex):
            hoffman_dual(())
        with pytest.raises(HasBarEntry):
            hoffman_dual((BAR1, 2))

    @pytest.mark.parametrize("k", [(0,), (-1, 2), (2, 0, 1)])
    def test_entries_below_one(self, k):
        with pytest.raises(BadEntry):
            hoffman_dual(k)

    def test_involution_and_weight_exhaustive(self):
        for w in range(1, 9):
            for k in enumerate_indices(w, "I"):
                dual = hoffman_dual(k)
                assert hoffman_dual(dual) == k
                assert index_wt(dual) == index_wt(k)
                assert index_dep(dual) == index_wt(k) - index_dep(k) + 1


class TestEnumeration:
    def test_weight_two_ihat0(self):
        assert enumerate_indices(2, "Ihat0") == [(2,), (BAR1, 1), (BAR1, BAR1)]

    def test_weight_zero(self):
        for fam in ("Ihat", "I", "Ihat0"):
            assert enumerate_indices(0, fam) == [()]

    def test_weight_two_i0(self):
        # I0 = I meet Ihat0 is no family of its own: no command asks for it
        assert [k for k in enumerate_indices(2, "I") if in_Ihat0(k)] == [(2,)]

    def test_counts_and_membership(self):
        for w in range(6):
            all_ = enumerate_indices(w, "Ihat")
            assert len(set(all_)) == len(all_)
            assert [k for k in all_ if in_I(k)] == enumerate_indices(w, "I")
            assert [k for k in all_ if in_Ihat0(k)] == enumerate_indices(w, "Ihat0")
            for k in all_:
                assert index_wt(k) == w

    def test_weight_counts(self):
        # 2 f(w-1) + f(w-2) + ... + f(0) with a doubled weight-1 letter
        assert [len(enumerate_indices(w, "Ihat")) for w in range(5)] == [1, 2, 5, 13, 34]


class TestIndexText:
    def test_parse_print(self):
        k = parse_index("2,1bar,3")
        assert k == (2, BAR1, 3)
        assert index_str(k) == "2,1bar,3"
        assert parse_index("") == ()
        assert parse_index("()") == ()

    def test_epoly_rendering(self):
        x = EPoly({(2, 3): 1, (3, 2): 1, (5,): 1, (4,): H()})
        assert str(x) == "e[2,3] + e[3,2] + e[5] + h*e[4]"
        assert str(EPoly({(2,): 1, (BAR1,): H(1, -1)})) == "e[2] - h*e[1bar]"

    @pytest.mark.parametrize(
        "x, text",
        [(lambda: NcPoly({"ab": 1 + H()}), "(1 + h)*ab"),
         (lambda: EPoly({(2, 1): 1 + H()}), "(1 + h)*e[2,1]"),
         (lambda: EPoly({(): 1 + H()}), "(1 + h)")],
        ids=["NcPoly", "EPoly", "EPoly unit"],
    )
    def test_coefficient_of_several_powers_of_h(self, x, text):
        # a term that is not graded prints its whole coefficient in parentheses
        assert str(x()) == text


class TestNcMul:
    def test_concatenation(self):
        assert NcPoly.word("ab") * NcPoly.word("b") == NcPoly.word("abb")

    def test_distributivity(self):
        x = NcPoly({"a": 1, "b": H()})
        assert x * NcPoly.word("b") == NcPoly({"ab": 1, "bb": H()})

    def test_commutator_square(self):
        c = NcPoly({"ab": 1, "ba": -1})
        expected = NcPoly({"abab": 1, "abba": -1, "baab": -1, "baba": 1})
        assert c * c == expected

    @given(st.text(alphabet="ab", max_size=4), st.text(alphabet="ab", max_size=4))
    def test_words_concatenate(self, w1, w2):
        assert NcPoly.word(w1) * NcPoly.word(w2) == NcPoly.word(w1 + w2)


nc_polys = st.dictionaries(st.text(alphabet="ab", max_size=3), laurent_coeffs, max_size=3).map(
    NcPoly
)
any_epolys = st.dictionaries(indices(max_dep=2), laurent_coeffs, max_size=3).map(EPoly)


class TestLinComb:
    @given(st.lists(nc_polys, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_sum_is_repeated_add_on_words(self, parts):
        want = NcPoly()
        for x in parts:
            want = want + x
        assert NcPoly.sum(parts) == want

    @given(st.lists(any_epolys, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_sum_is_repeated_add_on_indices(self, parts):
        want = EPoly()
        for x in parts:
            want = want + x
        assert EPoly.sum(iter(parts)) == want

    @given(nc_polys, any_epolys)
    @settings(max_examples=60, deadline=None)
    def test_presentations_never_meet(self, u, x):
        assert u != x and x != u
        with pytest.raises(TypeError):
            u + x
        with pytest.raises(TypeError):
            x - u
        with pytest.raises(TypeError):
            u * x
        with pytest.raises(TypeError):
            EPoly.sum([x, u])

    def test_zero_and_one_of_each_differ(self):
        assert NcPoly.zero() != EPoly.zero() and NcPoly.one() != EPoly.one()
        assert NcPoly.one().coefficients() == {"": Laurent(1)}
        assert EPoly.one().coefficients() == {(): Laurent(1)}

    def test_one_shared_arithmetic(self):
        for cls in (NcPoly, EPoly):
            for name in ("__add__", "__mul__", "__neg__", "scale", "__eq__", "sum"):
                assert name not in vars(cls)
            assert issubclass(cls, LinComb)


class TestKeyChecks:
    """Each class's constructor is the one place its keys are checked."""

    def test_mixed_alphabet_word_to_e(self):
        # used to read the block xyb as aab
        with pytest.raises(BadLetter, match="'x'"):
            word_to_e(NcPoly.word("xyb"))

    @pytest.mark.parametrize("k", [(0,), (-2, 3), (2.0,), (True,), (2, False), 3, None])
    def test_bad_entries(self, k):
        with pytest.raises(BadEntry, match="got"):
            EPoly({k: 1})

    def test_zero_entry_e_to_word(self):
        # used to expand entry 0 to h*baab + h^2*bab
        with pytest.raises(BadEntry, match="got 0"):
            e_to_word(EPoly({(0, 2): 1}))

    def test_two_alphabets_never_concatenate(self):
        with pytest.raises(BadLetter, match="'x'"):
            NcPoly.word("ab") * NcPoly.word("xy")
        with pytest.raises(TypeError):
            NcPoly.word("ab") * MzvPoly.word("xy")

    def test_non_str_word(self):
        with pytest.raises(BadLetter, match="got 3"):
            NcPoly({3: 1})

    @given(st.text(alphabet="abxyc", max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_word_rejected_exactly_on_a_foreign_letter(self, w):
        for cls in (NcPoly, MzvPoly):
            if set(w) <= set(cls._letters):
                assert cls.word(w).coefficients() == {w: Laurent(1)}
            else:
                with pytest.raises(BadLetter, match=repr(next(ch for ch in w if ch not in cls._letters))):
                    cls.word(w)

    @given(st.lists(st.one_of(st.integers(-2, 4), st.just(BAR1), st.booleans(), st.floats(0, 4)), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_index_rejected_exactly_on_a_foreign_entry(self, k):
        if all(e is BAR1 or (type(e) is int and e >= 1) for e in k):
            assert list(EPoly({tuple(k): 1}).coefficients()) == [tuple(k)]
        else:
            with pytest.raises(BadEntry):
                EPoly({tuple(k): 1})

    def test_binary_word_over_0_and_1_only(self):
        # used to read every letter other than 0 as 1: "0a1" gave (2, 1)
        with pytest.raises(BadLetter, match="'a'"):
            binary_to_index("0a1")
        assert binary_to_index("0101") == (2, 2)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: zn_eval((2, 0), 4), BadEntry),
            (lambda: zn_eval((-1,), 4), BadEntry),
            (lambda: zeta_q_partial((0,), QValue(Fraction(1, 2)), 5), BadEntry),
            (lambda: zeta_q_partial((-1,), QValue(Fraction(1, 2)), 5), BadEntry),
            (lambda: z_word(0), BadEntry),
            (lambda: z_word(-2), BadEntry),
            (lambda: z_word(BAR1), HasBarEntry),
            (lambda: index_to_binary((BAR1,)), HasBarEntry),
            (lambda: index_to_binary((2, 0)), BadEntry),
        ],
        ids=["zn_eval 2,0", "zn_eval -1", "zeta_q_partial 0", "zeta_q_partial -1",
             "z_word 0", "z_word -2", "z_word 1bar",
             "index_to_binary 1bar", "index_to_binary 2,0"],
    )
    def test_raw_index_entries(self, call, error):
        # a function taking a raw index checks its entries like EPoly's
        # constructor; these used to return z_1, 3/2 - z and 0, or raise a
        # bare TypeError or ZeroDivisionError
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize(
        "x, y",
        [(NcPoly.word("ab"), MzvPoly.word("xy")), (NcPoly.word("ab"), EPoly.gen(2)),
         (MzvPoly.word("xy"), EPoly.gen(2)), (NcPoly.one(), MzvPoly.one())],
    )
    def test_mixed_classes_never_combine(self, x, y):
        for u, v in ((x, y), (y, x)):
            assert u != v
            with pytest.raises(TypeError):
                u + v
            with pytest.raises(TypeError):
                u * v
