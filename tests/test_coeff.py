from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qharmonic.coeff import (
    Laurent,
    ModPoly,
    UniPoly,
    modpoly_ext_gcd,
    poly_ext_gcd,
)
from qharmonic.cyclo import cyc_field
from qharmonic.errors import BothZero, NonInvertible

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
        assert Laurent.h(-1) * Laurent.h() == Laurent.one()

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
        assert Laurent.h(2).substitute(Fraction(1, 2)) == Fraction(1, 4)

    def test_substitute_zero(self):
        assert Laurent.zero().substitute(Fraction(3, 7)) == 0

    def test_substitute_cyclotomic_inverse(self):
        # 1/(1 - zeta_3) = (2 + zeta_3)/3, checked against extended Euclid
        fld = cyc_field(3)
        value = fld.one() - fld.zeta()
        got = Laurent.h(-1).substitute(value)
        expected = fld.element([Fraction(2, 3), Fraction(1, 3)])
        assert got == expected
        g, s, _ = poly_ext_gcd(UniPoly([1, -1]), fld.modulus)
        assert g == UniPoly([1])
        assert fld.element(s.coeffs) == expected

    def test_substitute_needs_inverse(self):
        with pytest.raises(NonInvertible):
            Laurent.h(-1).substitute(0)

    @given(laurents, laurents, st.fractions(min_value="1/7", max_value="9", max_denominator=9))
    def test_substitute_is_ring_hom(self, a, b, v):
        assert (a * b).substitute(v) == a.substitute(v) * b.substitute(v)

    def test_canonical_string(self):
        a = Laurent({-1: Fraction(-2), 0: 1, 2: Fraction(3, 2)})
        assert str(a) == "-2*h^-1 + 1 + 3/2*h^2"

    @given(laurents)
    def test_string_roundtrip(self, a):
        assert Laurent.parse(str(a)) == a


def assert_exact(x):
    """x is an int, or a Fraction that is not an integer; never a float."""
    assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


mixed_coeffs = st.one_of(st.integers(-6, 6), rationals)
mixed_laurents = st.dictionaries(st.integers(-3, 4), mixed_coeffs, max_size=4).map(Laurent)


class TestLaurentExactness:
    """Integral coefficients are stored as int, the rest as Fraction; the
    two forms compare, hash and print alike, and no float ever appears."""

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
        results = [a + b, a - b, a * b, -a, a * s, s * a, a**n, a + s, s - a]
        for x in results:
            for c in x.terms.values():
                assert_exact(c)
            assert Laurent.parse(str(x)) == x
            assert hash(Laurent.parse(str(x))) == hash(x)
        value = a.substitute(v)
        assert type(value) in (int, Fraction)
        assert_exact(a.constant())


unipolys = st.lists(rationals, max_size=5).map(UniPoly)


class TestPolyGcd:
    def test_coprime_pair(self):
        a, b = UniPoly([1, 1, 1]), UniPoly([-1, 1])
        g, s, t = poly_ext_gcd(a, b)
        assert g == UniPoly([1])
        assert s * a + t * b == g

    def test_common_factor(self):
        g, s, t = poly_ext_gcd(UniPoly([-1, 0, 1]), UniPoly([-1, 1]))
        assert g == UniPoly([-1, 1])
        assert s * UniPoly([-1, 0, 1]) + t * UniPoly([-1, 1]) == g

    def test_degenerate(self):
        g, s, t = poly_ext_gcd(UniPoly([0, 1]), UniPoly())
        assert g == UniPoly([0, 1])
        assert (s, t) == (UniPoly([1]), UniPoly())

    def test_both_zero(self):
        with pytest.raises(BothZero):
            poly_ext_gcd(UniPoly(), UniPoly())

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
        a = ModPoly(p, [1, 0, 1, 3])
        b = ModPoly(p, [2, 1])
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()

    def test_ext_gcd_inverse(self):
        p = 7
        mod = ModPoly(p, [1] * p)  # Phi_7
        a = ModPoly(p, [1, 1])  # [2] at zeta_7
        g, s, _ = modpoly_ext_gcd(a, mod)
        assert g == ModPoly(p, [1])
        assert (s * a) % mod == ModPoly(p, [1])
