from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from laurent_oracle import constant, neg, power, sub, substitute
from poly_oracle import BothZero, GFPoly, QPoly, modpoly_ext_gcd, poly_ext_gcd
from qharmonic import coeff
from qharmonic.algebra import EPoly, NcPoly
from qharmonic.coeff import Laurent, ModPoly, UniPoly
from qharmonic.cyclo import _h_power, cyc_field, prime_ring
from qharmonic.errors import NonInvertible

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
laurents = st.dictionaries(st.integers(-3, 4), rationals, max_size=4).map(Laurent)


def schoolbook(a: dict, b: dict) -> dict:
    """Independent convolution oracle on raw exponent dictionaries."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


class TestLaurent:
    def test_difference_of_squares(self):
        a = Laurent({1: 1, 0: 1})
        b = Laurent({1: 1, 0: -1})
        assert a * b == Laurent({2: 1, 0: -1})

    def test_inverse_power_cancels(self):
        assert Laurent.h(-1) * Laurent.h() == Laurent(1)

    def test_telescoping_product(self):
        a = Laurent({0: 1, 1: -1})
        b = Laurent({0: 1, 1: 1, 2: 1})
        expected = schoolbook(a.terms, b.terms)
        assert a * b == Laurent(expected) == Laurent({0: 1, 3: -1})

    @given(laurents, laurents)
    def test_mul_matches_schoolbook(self, a, b):
        assert (a * b).terms == schoolbook(a.terms, b.terms)

    @given(laurents, laurents, laurents)
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_substitute_power(self):
        assert substitute(Laurent.h(2), Fraction(1, 2)) == Fraction(1, 4)

    def test_substitute_zero(self):
        assert substitute(Laurent(), Fraction(3, 7)) == 0

    def test_substitute_cyclotomic_inverse(self):
        # 1/(1 - zeta_3) = (2 + zeta_3)/3, the closed form of h^(-1) checked
        # against extended Euclid; a cyclotomic ring has no division, so
        # substitute takes the inverse
        fld = cyc_field(3)
        value = fld.one() - fld.zeta()
        expected = fld.element([Fraction(2, 3), Fraction(1, 3)])
        assert _h_power(fld, -1) == expected
        g, s, _ = poly_ext_gcd(QPoly([1, -1]), fld.modulus)
        assert g == QPoly([1])
        assert fld.element(s.coeffs) == expected
        got = substitute(Laurent({-2: 1, 1: 1}), value, expected)
        assert got == expected * expected + value

    def test_substitute_needs_inverse(self):
        with pytest.raises(NonInvertible):
            substitute(Laurent.h(-1), 0)
        with pytest.raises(NonInvertible):
            substitute(Laurent({-2: 3, 1: 1}), 0)

    def test_substitute_int_at_negative_exponent(self):
        # an int value is a unit of Q: its inverse is an exact Fraction
        got = substitute(Laurent.h(-1), 2)
        assert got == Fraction(1, 2) and type(got) is Fraction
        assert substitute(Laurent({-2: 3, 1: 1}), -1) == 2
        assert substitute(Laurent.h(-3, 2), 1) == 2
        assert substitute(Laurent.h(2), 3) == 9

    @given(
        laurents,
        laurents,
        st.fractions(min_value="1/7", max_value="9", max_denominator=9)
        | st.integers(-5, 5).filter(bool),
    )
    def test_substitute_is_ring_hom(self, a, b, v):
        assert substitute(a * b, v) == substitute(a, v) * substitute(b, v)

    def test_canonical_string(self):
        a = Laurent({-1: Fraction(-2), 0: 1, 2: Fraction(3, 2)})
        assert str(a) == "-2*h^-1 + 1 + 3/2*h^2"

    @given(laurents)
    def test_string_roundtrip(self, a):
        assert Laurent.parse(str(a)) == a

    @given(laurents, st.sampled_from(["", " ", "\n  "]))
    def test_parse_repeat_shares_one_value(self, a, pad):
        # the memo is keyed on the stripped text
        first = Laurent.parse(str(a))
        again = Laurent.parse(pad + str(a) + pad)
        assert again == first == a and again is first

    def test_parse_cache_is_bounded(self):
        bound = coeff._parse_stripped.cache_info().maxsize
        assert bound is not None
        for j in range(bound + 10):
            assert Laurent.parse(f"{j + 1}*h^{j}") == Laurent.h(j, j + 1)
        assert coeff._parse_stripped.cache_info().currsize == bound


def assert_exact(x):
    """x is an int, or a Fraction that is not an integer; never a float."""
    assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


mixed_coeffs = st.one_of(st.integers(-6, 6), rationals)
mixed_laurents = st.dictionaries(st.integers(-3, 4), mixed_coeffs, max_size=4).map(Laurent)


class TestLaurentExactness:
    """Integral coefficients are stored as int, the rest as Fraction; the
    two forms compare, hash and print alike, and no float ever appears."""

    def test_hash_agrees_with_scalar_equality(self):
        # Laurent(1) == 1 and Laurent() == 0, so they must hash alike
        table = {Laurent(1): "one", Laurent(): "zero", Laurent(Fraction(1, 2)): "half"}
        assert table.get(1) == "one" and table.get(0) == "zero"
        assert table.get(Fraction(1, 2)) == "half" and table.get(Laurent.h()) is None
        assert {1, 0, Fraction(1, 2)} == {Laurent(1), Laurent(), Laurent(Fraction(1, 2))}
        assert Laurent({0: 2}) in {2} and Laurent.h(1, 2) not in {2}

    def test_int_and_fraction_forms_agree(self):
        a, b = Laurent({0: 1}), Laurent({0: Fraction(1)})
        assert a == b and hash(a) == hash(b)
        assert Laurent({2: Fraction(6, 3)}).terms == {2: 2}
        assert Laurent.h(1, Fraction(4, 2)) == Laurent({1: 2}) == 2 * Laurent.h()
        assert str(b) == "1"

    @given(
        mixed_laurents,
        mixed_laurents,
        mixed_coeffs,
        st.integers(0, 3),
        st.fractions(min_value="1/7", max_value="9", max_denominator=9),
    )
    def test_operations_stay_exact(self, a, b, s, n, v):
        before = dict(a.terms), dict(b.terms)
        results = [a + b, sub(a, b), a * b, neg(a), a * s, s * a, power(a, n), a + s, sub(s, a)]
        # a product with the unit returns an operand itself, so no
        # operation may have changed an operand in place
        assert (a.terms, b.terms) == before
        for x in results:
            for c in x.terms.values():
                assert_exact(c)
            assert Laurent.parse(str(x)) == x
            assert hash(Laurent.parse(str(x))) == hash(x)
        value = substitute(a, v)
        assert type(value) in (int, Fraction)
        assert_exact(constant(a))


class TestNoFloats:
    """A float's binary value is not the rational meant, so every way into the
    exact algebra refuses one (0.1 would be stored as 3602879701896397/2^55)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Laurent(0.1),
            lambda: Laurent({1: 0.1}),
            lambda: EPoly({(2,): 0.1}),
            lambda: NcPoly({"ab": 0.1}),
            lambda: NcPoly.word("ab", 0.1),
            lambda: EPoly.gen(2).scale(0.1),
            lambda: NcPoly.word("ab").scale(0.1, 1),
            lambda: cyc_field(3).element([0.1, 1]),
            lambda: cyc_field(3).from_rational(0.1),
            lambda: prime_ring(5).element([0.1]),
        ],
        ids=["Laurent", "Laurent dict", "EPoly", "NcPoly", "NcPoly.word", "EPoly.scale", "NcPoly.scale",
             "cyc_field.element", "cyc_field.from_rational", "prime_ring.element"],
    )
    def test_floats_raise(self, build):
        with pytest.raises(TypeError, match="exact rational expected, got the float 0.1"):
            build()

    def test_zero_float_raises(self):
        # a zero coefficient is checked before it is dropped
        with pytest.raises(TypeError, match="got the float 0.0"):
            Laurent({1: 0.0})

    @pytest.mark.parametrize("e", [0.5, "a", Fraction(1), True], ids=repr)
    def test_exponents_are_ints(self, e):
        # h^0.5 and h^a used to print, and no parse could read them back
        with pytest.raises(TypeError, match="exponents must be ints"):
            Laurent({e: 1})
        with pytest.raises(TypeError, match="exponents must be ints"):
            Laurent.h(e)

    def test_poly_coefficients(self):
        # ModPoly(5, [2.5, 1]) used to truncate to 2 + x, UniPoly([0.5]) kept the float
        for build in (lambda: ModPoly(5, [2.5, 1]), lambda: UniPoly([0.5])):
            with pytest.raises(TypeError, match="got the float"):
                build()
        with pytest.raises(TypeError, match="interpreted as an integer"):
            ModPoly(5, [Fraction(1, 2)])
        assert ModPoly(5, [Fraction(12, 2), -1]).coeffs == (1, 4)
        assert UniPoly([Fraction(1, 2), 2]).coeffs == (Fraction(1, 2), 2)
        assert all(type(c) is Fraction for c in UniPoly([1, 2]).coeffs)

    def test_exact_inputs_pass(self):
        assert EPoly({(2,): Fraction(1, 10)}).terms == {((2,), 0): Fraction(1, 10)}
        assert NcPoly({"ab": Fraction(4, 2)}).terms == {("ab", 0): 2}
        assert NcPoly.word("ab").scale(Fraction(1, 10)).terms == {("ab", 0): Fraction(1, 10)}


monomial_coeffs = st.sampled_from(
    [s * c for s in (1, -1) for c in (1, 2, Fraction(1, 2), Fraction(3, 4))]
)
monomials = st.builds(Laurent.h, st.integers(-3, 3), monomial_coeffs)


class TestMonomialProduct:
    """Monomial x monomial, the shape the weight grading makes common,
    goes through the one accumulator like any product; schoolbook stays
    the reference."""

    @given(monomials, monomials)
    @example(Laurent.h(0, 1), Laurent.h(2, Fraction(-3, 4)))
    @example(Laurent.h(1, 1), Laurent.h(2, Fraction(-3, 4)))
    @example(Laurent.h(2, Fraction(-3, 4)), Laurent.h(1, 1))
    @example(Laurent.h(0, -1), Laurent.h(-2, 2))
    @example(Laurent.h(1, Fraction(1, 2)), Laurent.h(-1, 2))
    def test_matches_schoolbook(self, a, b):
        got = a * b
        assert got.terms == schoolbook(a.terms, b.terms)
        for c in got.terms.values():
            assert_exact(c)

    def test_integral_product_is_stored_as_int(self):
        got = Laurent.h(1, Fraction(1, 2)) * Laurent.h(-1, 2)
        assert got.terms == {0: 1} and type(got.terms[0]) is int
        got = Laurent.h(2, Fraction(3, 4)) * Laurent.h(1, Fraction(-4, 3))
        assert got.terms == {3: -1} and type(got.terms[3]) is int

    def test_unit_returns_the_other_operand(self):
        x = Laurent.h(-2, Fraction(3, 4))
        assert Laurent(1) * x == x and x * Laurent(1) == x
        assert Laurent.h(1) * x == Laurent.h(-1, Fraction(3, 4))
        assert Laurent.h(0, -1) * x == neg(x)


unipolys = st.lists(rationals, max_size=5).map(QPoly)


class TestPolyGcd:
    def test_coprime_pair(self):
        a, b = QPoly([1, 1, 1]), QPoly([-1, 1])
        g, s, t = poly_ext_gcd(a, b)
        assert g == QPoly([1])
        assert s * a + t * b == g

    def test_common_factor(self):
        g, s, t = poly_ext_gcd(QPoly([-1, 0, 1]), QPoly([-1, 1]))
        assert g == QPoly([-1, 1])
        assert s * QPoly([-1, 0, 1]) + t * QPoly([-1, 1]) == g

    def test_degenerate(self):
        g, s, t = poly_ext_gcd(QPoly([0, 1]), QPoly())
        assert g == QPoly([0, 1])
        assert (s, t) == (QPoly([1]), QPoly())

    def test_both_zero(self):
        with pytest.raises(BothZero):
            poly_ext_gcd(QPoly(), QPoly())

    @given(unipolys, unipolys)
    def test_bezout_identity(self, a, b):
        if a.is_zero() and b.is_zero():
            return
        g, s, t = poly_ext_gcd(a, b)
        assert s * a + t * b == g
        if not g.is_zero():
            assert g.leading() == 1


class TestModPoly:
    def test_divmod(self):
        p = 5
        a = GFPoly(p, [1, 0, 1, 3])
        b = GFPoly(p, [2, 1])
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()

    def test_ext_gcd_inverse(self):
        p = 7
        mod = GFPoly(p, [1] * p)  # Phi_7
        a = GFPoly(p, [1, 1])  # [2] at zeta_7
        g, s, _ = modpoly_ext_gcd(a, mod)
        assert g == GFPoly(p, [1])
        assert (s * a) % mod == GFPoly(p, [1])
