import re
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from quasi_shuffle_oracle import classical_merge, hoffman_exp, hoffman_log, merge_into, quasi_shuffle
from qharmonic.algebra import BAR1, EPoly, NcPoly, e_to_word, in_Ihat0, word_to_e
from qharmonic.coeff import Laurent
from qharmonic.errors import BadLetter, HasBarEntry
from qharmonic.products import (
    circ,
    l_map,
    psi_involution,
    shuffle_q,
    stuffle_classical,
    stuffle_q,
)

H = Laurent.h


# --- oracles: the products written out without the shared engine ----------


def stuffle_idx_oracle(k1, k2) -> EPoly:
    """The q-stuffle of two indices by its own recursion, uncached."""
    if not k1:
        return EPoly({k2: 1})
    if not k2:
        return EPoly({k1: 1})
    a, rest1 = k1[0], k1[1:]
    b, rest2 = k2[0], k2[1:]
    out = stuffle_idx_oracle(rest1, k2).prepend(a)
    out = out + stuffle_idx_oracle(k1, rest2).prepend(b)
    tail = stuffle_idx_oracle(rest1, rest2)
    for mk, mc in circ(a, b).coefficients().items():
        out = out + tail.prepend(mk[0], mc)
    return out


def stuffle_classical_idx_oracle(k1, k2) -> EPoly:
    """The classical stuffle of two indices by its own recursion, uncached."""
    if not k1:
        return EPoly({k2: 1})
    if not k2:
        return EPoly({k1: 1})
    a, rest1 = k1[0], k1[1:]
    b, rest2 = k2[0], k2[1:]
    out = stuffle_classical_idx_oracle(rest1, k2).prepend(a)
    out = out + stuffle_classical_idx_oracle(k1, rest2).prepend(b)
    out = out + stuffle_classical_idx_oracle(rest1, rest2).prepend(a + b)
    return out


def shuffle_words_alt(w1: str, w2: str) -> NcPoly:
    """The q-shuffle of two words, pulling b from the right argument first."""
    if not w1:
        return NcPoly({w2: 1})
    if not w2:
        return NcPoly({w1: 1})
    if w2[0] == "b":
        return NcPoly.word("b") * shuffle_words_alt(w1, w2[1:])
    if w1[0] == "b":
        return NcPoly.word("b") * shuffle_words_alt(w1[1:], w2)
    u, v = w1[1:], w2[1:]
    inner = shuffle_words_alt(w1, v) + shuffle_words_alt(u, w2)
    inner = inner + shuffle_words_alt(u, v).scale(H())
    return NcPoly.word("a") * inner


def entries():
    return st.one_of(st.integers(1, 3), st.just(BAR1))


small_indices = st.lists(entries(), max_size=2).map(tuple)
small_epolys = st.dictionaries(
    small_indices, st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool), min_size=1, max_size=2
).map(EPoly)
words = st.text(alphabet="ab", max_size=4)


ENTRIES_TO_6 = [BAR1] + list(range(1, 7))


class TestCirc:
    def test_bar_bar(self):
        assert circ(BAR1, BAR1) == EPoly({(2,): 1, (BAR1,): H(1, -1)})

    def test_int_int(self):
        assert circ(2, 3) == EPoly({(5,): 1, (4,): H()})

    def test_bar_int(self):
        assert circ(BAR1, 5) == EPoly({(6,): 1})
        assert circ(5, BAR1) == EPoly({(6,): 1})

    def test_commutative_on_entries(self):
        for a, b in iproduct(ENTRIES_TO_6, repeat=2):
            assert circ(a, b) == circ(b, a), (a, b)

    def test_associative_on_entries(self):
        # (a o b) o c against a o (b o c), each merge extended linearly
        for a, b, c in iproduct(ENTRIES_TO_6, repeat=3):
            right = EPoly.sum(circ(a, m).scale(d) for (m,), d in circ(b, c).coefficients().items())
            assert merge_into(circ(a, b), c, circ) == right, (a, b, c)

    def test_associative_on_generators(self):
        # exhaust entries 1bar, 1..5 as depth-1 stuffles
        gens = [BAR1] + list(range(1, 6))
        for a, b, c in iproduct(gens, repeat=3):
            ea, eb, ec = EPoly.gen(a), EPoly.gen(b), EPoly.gen(c)
            lhs = stuffle_q(stuffle_q(ea, eb), ec)
            rhs = stuffle_q(ea, stuffle_q(eb, ec))
            assert lhs == rhs


class TestStuffle:
    def test_unit(self):
        assert stuffle_q(EPoly.one(), EPoly.gen(2)) == EPoly.gen(2)
        assert stuffle_q(EPoly.gen(2), EPoly.one()) == EPoly.gen(2)

    def test_e2_e3(self):
        expected = EPoly({(2, 3): 1, (3, 2): 1, (5,): 1, (4,): H()})
        assert stuffle_q(EPoly.gen(2), EPoly.gen(3)) == expected

    def test_bar_square(self):
        expected = EPoly({(BAR1, BAR1): 2, (2,): 1, (BAR1,): H(1, -1)})
        assert stuffle_q(EPoly.gen(BAR1), EPoly.gen(BAR1)) == expected

    @given(small_epolys, small_epolys)
    @settings(max_examples=50)
    def test_commutative(self, u, v):
        assert stuffle_q(u, v) == stuffle_q(v, u)

    @given(small_epolys, small_epolys, small_epolys)
    @settings(max_examples=30, deadline=None)
    def test_associative(self, u, v, w):
        assert stuffle_q(stuffle_q(u, v), w) == stuffle_q(u, stuffle_q(v, w))

    def test_preserves_ihat0(self):
        from qharmonic.algebra import enumerate_indices_up_to

        words0 = [k for k in enumerate_indices_up_to(3, "Ihat0")]
        for k1 in words0:
            for k2 in words0:
                prod = stuffle_q(EPoly({k1: 1}), EPoly({k2: 1}))
                assert prod.supported_in_Ihat0()


int_indices = st.lists(st.integers(1, 4), max_size=3).map(tuple)
hat_indices = st.lists(entries(), max_size=3).map(tuple)


class TestQuasiShuffleEngine:
    @given(hat_indices, hat_indices)
    @settings(max_examples=150, deadline=None)
    def test_stuffle_q_matches_oracle(self, k1, k2):
        got = stuffle_q(EPoly({k1: 1}), EPoly({k2: 1}))
        assert got == stuffle_idx_oracle(k1, k2)

    @given(int_indices, int_indices)
    @settings(max_examples=150, deadline=None)
    def test_stuffle_classical_matches_oracle(self, k1, k2):
        got = stuffle_classical(EPoly({k1: 1}), EPoly({k2: 1}))
        assert got == stuffle_classical_idx_oracle(k1, k2)

    @given(small_epolys, small_epolys)
    @settings(max_examples=60, deadline=None)
    def test_bilinear_extension(self, u, v):
        want = EPoly()
        for k1, c1 in u.coefficients().items():
            for k2, c2 in v.coefficients().items():
                want = want + stuffle_idx_oracle(k1, k2).scale(c1 * c2)
        assert stuffle_q(u, v) == want


laurent_coeffs = st.builds(
    H, st.integers(-1, 2), st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
)


def hoffman_epolys(entry):
    indices = st.lists(entry, max_size=3).map(tuple)
    return st.dictionaries(indices, laurent_coeffs, min_size=1, max_size=2).map(EPoly)


class TestHoffmanExponential:
    """Both stuffles against exp(log u sh log v), which shares only the merge."""

    @given(hoffman_epolys(entries()))
    @settings(max_examples=20, deadline=None)
    def test_exp_inverts_log(self, x):
        assert hoffman_exp(hoffman_log(x, circ), circ) == x

    @given(hoffman_epolys(entries()), hoffman_epolys(entries()))
    @settings(max_examples=60, deadline=None)
    def test_stuffle_q(self, u, v):
        assert stuffle_q(u, v) == quasi_shuffle(u, v, circ)

    @given(hoffman_epolys(st.integers(1, 4)), hoffman_epolys(st.integers(1, 4)))
    @settings(max_examples=40, deadline=None)
    def test_stuffle_classical(self, u, v):
        assert stuffle_classical(u, v) == quasi_shuffle(u, v, classical_merge)


class TestShuffle:
    def test_ab_ab(self):
        got = shuffle_q(NcPoly.word("ab"), NcPoly.word("ab"))
        assert got == NcPoly({"abab": 2, "abb": H()})

    def test_unit(self):
        w = NcPoly.word("aab")
        assert shuffle_q(NcPoly.one(), w) == w
        assert shuffle_q(w, NcPoly.one()) == w

    def test_b_b(self):
        assert shuffle_q(NcPoly.word("b"), NcPoly.word("b")) == NcPoly.word("bb")

    @given(words, words)
    @settings(max_examples=60)
    def test_strategy_independent(self, w1, w2):
        assert shuffle_q(NcPoly.word(w1), NcPoly.word(w2)) == shuffle_words_alt(w1, w2)

    @given(words, words)
    @settings(max_examples=60)
    def test_commutative(self, w1, w2):
        assert shuffle_q(NcPoly.word(w1), NcPoly.word(w2)) == shuffle_q(
            NcPoly.word(w2), NcPoly.word(w1)
        )

    @given(words, words, words)
    @settings(max_examples=25, deadline=None)
    def test_associative(self, w1, w2, w3):
        a, b, c = NcPoly.word(w1), NcPoly.word(w2), NcPoly.word(w3)
        assert shuffle_q(shuffle_q(a, b), c) == shuffle_q(a, shuffle_q(b, c))

    @pytest.mark.parametrize(
        "w1, w2, letter",
        [
            ("xy", "ab", "x"),
            ("ab", "xy", "x"),
            ("ba", "ay", "y"),
            ("b", "c", "c"),
            ("ax", "b", "x"),
            ("bx", "b", "x"),
            ("aab", "abzb", "z"),
            ("b", "ax", "x"),
            ("ab", "bay", "y"),
            ("ax", "", "x"),
            ("", "bx", "x"),
        ],
    )
    def test_foreign_letters_rejected(self, w1, w2, letter):
        # A foreign letter anywhere, leading or not, is refused when the word
        # is built; again, also once the pairs of the words with every foreign
        # letter made a b are cached.
        for _ in range(2):
            with pytest.raises(BadLetter, match=repr(letter)):
                shuffle_q(NcPoly.word(w1), NcPoly.word(w2))
            shuffle_q(NcPoly.word(re.sub("[^ab]", "b", w1)), NcPoly.word(re.sub("[^ab]", "b", w2)))
        assert shuffle_q(NcPoly.word("ab"), NcPoly.word("ab")) == NcPoly({"abab": 2, "abb": H()})

    def test_closure_in_h1_and_h0(self):
        from qharmonic.algebra import enumerate_indices_up_to

        for fam, pred in (("Ihat", lambda x: True), ("Ihat0", in_Ihat0)):
            basis = enumerate_indices_up_to(3, fam)
            for k1 in basis:
                for k2 in basis:
                    image = word_to_e(
                        shuffle_q(e_to_word(EPoly({k1: 1})), e_to_word(EPoly({k2: 1})))
                    )  # raises NotInH1 if a word escaped
                    assert all(pred(k) for k in image.coefficients())


class TestPsi:
    def test_generator_images(self):
        assert psi_involution(EPoly.gen(BAR1)) == EPoly({(1,): -1})
        assert psi_involution(EPoly.gen(2)) == EPoly.gen(2)
        assert psi_involution(EPoly.gen(3)) == EPoly({(3,): -1, (2,): H(1, -1)})

    @given(small_epolys)
    @settings(max_examples=50)
    def test_involution(self, x):
        assert psi_involution(psi_involution(x)) == x

    @given(small_epolys, small_epolys)
    @settings(max_examples=40)
    def test_antihomomorphism(self, x, y):
        assert psi_involution(x * y) == psi_involution(y) * psi_involution(x)


class TestClassicalStuffle:
    def test_e1_e2(self):
        expected = EPoly({(1, 2): 1, (2, 1): 1, (3,): 1})
        assert stuffle_classical(EPoly.gen(1), EPoly.gen(2)) == expected

    def test_unit(self):
        w = EPoly({(2, 1): 1})
        assert stuffle_classical(EPoly.one(), w) == w

    def test_e1_e1(self):
        expected = EPoly({(1, 1): 2, (2,): 1})
        assert stuffle_classical(EPoly.gen(1), EPoly.gen(1)) == expected

    def test_no_h_term(self):
        prod = stuffle_classical(EPoly.gen(2), EPoly.gen(3))
        assert prod == EPoly({(2, 3): 1, (3, 2): 1, (5,): 1})

    def test_bar_rejected(self):
        with pytest.raises(HasBarEntry):
            stuffle_classical(EPoly.gen(BAR1), EPoly.gen(1))


class TestLMap:
    # The scale is -2/(2 dep + 1): pinned by the varpi-L congruence, which
    # fails at every prime with -1 in the numerator.
    def test_single_two(self):
        expected = EPoly({(1, 2): 1, (2, 1): 1, (3,): 1}).scale(Fraction(-2, 3))
        assert l_map((2,)) == expected

    def test_empty(self):
        assert l_map(()) == EPoly({(1,): -2})

    def test_single_one(self):
        expected = EPoly({(1, 1): 2, (2,): 1}).scale(Fraction(-2, 3))
        assert l_map((1,)) == expected

    def test_bar_rejected(self):
        with pytest.raises(HasBarEntry):
            l_map((BAR1,))
