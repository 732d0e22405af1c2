"""Differential tests: graded terms against {key: Laurent} storage.

Every operation on the graded route, read back through coefficients(),
must equal the same operation on the reference storage of
laurent_oracle, and must store every coefficient in its exact form. Coefficients are drawn with up to three powers of h from
a small set of scalars, so products and sums cancel often.
"""
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import laurent_oracle as ref
from laurent_oracle import H, RefE, RefNc, of, substitute
from poly_oracle import QPoly, poly_ext_gcd
from qharmonic.algebra import BAR1, EPoly, NcPoly, e_to_word, word_to_e
from qharmonic.coeff import Laurent
from qharmonic.cyclo import cyc_field, zn_eval, zn_map
from qharmonic.derivations import Delta_X, Phi_X, Psi_X, delta_n, partial_n, partial_n_e
from qharmonic.evalq import CertifiedValue, QValue, Zq_eval, tail_bound, zeta_q_partial
from qharmonic.products import psi_involution, shuffle_q, stuffle_q

scalars = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-1, 2)])
laurents = st.dictionaries(st.integers(-2, 2), scalars, min_size=1, max_size=3).map(Laurent)
coefficients = laurents | scalars
coprime_scalars = st.sampled_from(
    [Fraction(n, d) for d in (3, 5, 7, 11) for n in (1, -1, d - 1, 1 - d)] + [1, -1]
)
coprime_laurents = st.dictionaries(st.integers(-2, 2), coprime_scalars, min_size=1, max_size=3).map(
    Laurent
)

words = st.text(alphabet="ab", max_size=3)
h1_words = st.lists(st.integers(0, 2), max_size=3).map(lambda r: "".join("a" * n + "b" for n in r))
entries = st.sampled_from([1, 2, 3, BAR1])
indices = st.lists(entries, max_size=2).map(tuple)
ihat0_indices = indices.filter(lambda k: not k or k[0] != 1)


def values(keys, max_size=3):
    """{key: Laurent} dicts; nc and ep build the package and reference values of one."""
    return st.dictionaries(keys, laurents, max_size=max_size)


def read(x):
    """of(x), once every stored coefficient of x is checked to be a nonzero
    int or a Fraction that is not an integer."""
    for c in x.terms.values():
        assert (type(c) is int and c) or (type(c) is Fraction and c.denominator != 1), x.terms
    return of(x)


def nc(d):
    return NcPoly(d), RefNc(d)


def ep(d):
    return EPoly(d), RefE(d)


class TestArithmetic:
    @given(values(words), values(words), coefficients)
    @settings(max_examples=80, deadline=None)
    def test_words(self, d1, d2, c):
        (x, rx), (y, ry) = nc(d1), nc(d2)
        assert read(x) == rx
        assert read(x * y) == rx * ry
        assert read(x + y) == rx + ry
        assert read(x - y) == rx - ry
        assert read(-x) == -rx
        assert read(x.scale(c)) == rx.scale(c)
        assert read(NcPoly.sum([x, y, -x])) == ry

    @given(values(indices), values(indices), coefficients)
    @settings(max_examples=80, deadline=None)
    def test_indices(self, d1, d2, c):
        (x, rx), (y, ry) = ep(d1), ep(d2)
        assert read(x * y) == rx * ry
        assert read(x + y) == rx + ry
        assert read(x - y) == rx - ry
        assert read(x.scale(c)) == rx.scale(c)
        assert read(x.prepend(BAR1, c)) == RefE({(BAR1,): 1}) * rx.scale(c)
        assert read(x + y - x) == ry

    def test_cancelling_coefficients(self):
        x = EPoly({(2,): H(1) + Laurent(Fraction(-1, 2))})
        y = EPoly({(2,): H(1, -1) + Laurent(Fraction(1, 2)), (3,): H(2)})
        assert x + y == EPoly.gen(3, H(2))
        assert x.prepend(1, 0) == EPoly() == x.scale(0)
        assert (x * x).coefficients() == {(2, 2): H(2) + H(1, -1) + Laurent(Fraction(1, 4))}


class TestProducts:
    @given(values(indices), values(indices))
    @settings(max_examples=60, deadline=None)
    def test_stuffle_q(self, d1, d2):
        (u, ru), (v, rv) = ep(d1), ep(d2)
        assert read(stuffle_q(u, v)) == ref.stuffle_q(ru, rv)

    @given(values(words), values(words))
    @settings(max_examples=60, deadline=None)
    def test_shuffle_q(self, d1, d2):
        (u, ru), (v, rv) = nc(d1), nc(d2)
        assert read(shuffle_q(u, v)) == ref.shuffle_q(ru, rv)

    @given(values(indices))
    @settings(max_examples=60, deadline=None)
    def test_psi_involution(self, d):
        x, rx = ep(d)
        assert read(psi_involution(x)) == ref.psi_involution(rx)


class TestDerivations:
    @given(st.integers(1, 3), values(words))
    @settings(max_examples=60, deadline=None)
    def test_partial_n_and_delta_n(self, n, d):
        w, rw = nc(d)
        assert read(partial_n(n, w)) == ref.partial_n(n, rw)
        assert read(delta_n(n, w)) == ref.delta_n(n, rw)

    @given(st.integers(1, 3), values(ihat0_indices))
    @settings(max_examples=60, deadline=None)
    def test_partial_n_e(self, n, d):
        x, rx = ep(d)
        assert read(partial_n_e(n, x)) == ref.partial_n_e(n, rx)

    @given(st.integers(0, 3), values(st.text(alphabet="ab", max_size=2), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_exponentials(self, order, d):
        w, rw = nc(d)
        for op, want in ((Phi_X, ref.Phi_X), (Psi_X, ref.Psi_X), (Delta_X, ref.Delta_X)):
            assert [read(c) for c in op(w, order).coeffs] == want(rw, order), op.__name__


class TestConversions:
    @given(values(indices))
    @settings(max_examples=60, deadline=None)
    def test_e_to_word(self, d):
        x, rx = ep(d)
        assert read(e_to_word(x)) == ref.e_to_word(rx)

    # also with denominators 3, 5, 7 and 11: the words meet on shared indices,
    # where the parts cancel to ints or to 0
    @given(values(h1_words) | st.dictionaries(h1_words, coprime_laurents, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_word_to_e(self, d):
        w, rw = nc(d)
        assert read(word_to_e(w)) == ref.word_to_e(rw)


def zq_eval_per_index(x: EPoly, q: QValue, M: int) -> CertifiedValue:
    """Z_q with each index's Laurent coefficient substituted at h = 1 - q."""
    value = bound = Fraction(0)
    for k, c in x.coefficients().items():
        scalar = substitute(c, 1 - q.q)
        value += scalar * zeta_q_partial(k, q, M).value
        bound += abs(scalar) * tail_bound(len(k), q.q, M)
    return CertifiedValue(value, bound, M)


class TestEvaluators:
    @given(st.integers(2, 7), values(indices))
    @settings(max_examples=60, deadline=None)
    def test_zn_map(self, n, d):
        x = EPoly(d)
        fld = cyc_field(n)
        h = fld.one() - fld.zeta()
        h_inv = fld.element(poly_ext_gcd(QPoly([1, -1]), fld.modulus)[1].coeffs)
        want = sum(
            (substitute(c, h, h_inv) * zn_eval(k, n) for k, c in x.coefficients().items()),
            fld.zero(),
        )
        assert zn_map(x, n) == want

    @given(st.sampled_from([Fraction(1, 2), Fraction(2, 7)]), values(ihat0_indices))
    @settings(max_examples=60, deadline=None)
    @example(Fraction(1, 2), {(2,): H(1) + Laurent(Fraction(-1, 2))})
    def test_Zq_eval(self, q, d):
        x, qv = EPoly(d), QValue(q)
        assert Zq_eval(x, qv, 8) == zq_eval_per_index(x, qv, 8)

    def test_bound_sums_each_index_before_abs(self):
        # (h - 1/2) e_2 vanishes at q = 1/2; a bound taken term by term
        # would add |h| + |-1/2| times the tail of e_2
        qv, M = QValue(Fraction(1, 2)), 8
        cv = Zq_eval(EPoly({(2,): H(1) + Laurent(Fraction(-1, 2))}), qv, M)
        assert cv.value == 0 and cv.tail_bound == 0
        assert tail_bound(1, qv.q, M) > 0
