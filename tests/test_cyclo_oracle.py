"""Differential tests of the int-based cyclotomic arithmetic.

The oracles below are the rational-polynomial types the package used
before its arithmetic moved to plain ints: a polynomial residue over Q
reduced by division after every product, one over GF(p) mod Phi_p, and
every inverse in Q(zeta_n) by extended Euclid, all from poly_oracle. The
package has no division; the closed forms it keeps, [m]^(-1) and
(1 - zeta)^(-e), are checked against these inverses. The per-term
evaluation routes substitute h = 1 - zeta into each coefficient
separately. Every fast path in qharmonic.cyclo is compared with them.
"""
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from laurent_oracle import substitute
from lemmas import A_m_helper
from poly_oracle import GFPoly, QPoly, modpoly_ext_gcd, poly_ext_gcd
from qharmonic.algebra import BAR1, EPoly, enumerate_indices_up_to
from qharmonic.coeff import Laurent, ModPoly, poly_str
from qharmonic.cyclo import (
    _f_factor,
    _h_power,
    cyc_field,
    cyclotomic_poly,
    prime_ring,
    zcyc_mod_p,
    zn_eval,
    zn_map,
)
from qharmonic.errors import BadDenominator, NonInvertible, OutOfRange
from qharmonic.verify import harmonic_sum_mod_p


class OracleCycNum:
    """An element of Q(zeta_n) as a Fraction QPoly reduced modulo Phi_n."""

    __slots__ = ("n", "poly")

    def __init__(self, n: int, poly: QPoly):
        self.n = n
        self.poly = poly % cyclotomic_poly(n)

    def _coerce(self, other):
        if isinstance(other, OracleCycNum):
            return other
        return OracleCycNum(self.n, QPoly([other]))

    def __eq__(self, other):
        return self.poly == self._coerce(other).poly

    def __add__(self, other):
        return OracleCycNum(self.n, self.poly + self._coerce(other).poly)

    __radd__ = __add__

    def __neg__(self):
        return OracleCycNum(self.n, -self.poly)

    def __sub__(self, other):
        return OracleCycNum(self.n, self.poly - self._coerce(other).poly)

    def __mul__(self, other):
        return OracleCycNum(self.n, self.poly * self._coerce(other).poly)

    __rmul__ = __mul__

    def inverse(self):
        if self.poly.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        g, s, _ = poly_ext_gcd(self.poly, cyclotomic_poly(self.n))
        assert g.degree() == 0
        return OracleCycNum(self.n, s * (1 / g.leading()))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = OracleCycNum(self.n, QPoly([1]))
        for _ in range(e):
            out = out * self
        return out

    def __str__(self):
        return poly_str(self.poly.coeffs, "z")


def _phi_mod_p(p: int) -> GFPoly:
    return GFPoly(p, [1] * p)


class OraclePrimeCycNum:
    """An element of GF(p)[x]/Phi_p as a GFPoly reduced by GFPoly.__divmod__."""

    __slots__ = ("p", "poly")

    def __init__(self, p: int, poly: GFPoly):
        self.p = p
        self.poly = poly % _phi_mod_p(p)

    def _coerce(self, other):
        if isinstance(other, OraclePrimeCycNum):
            return other
        other = Fraction(other)
        if other.denominator % self.p == 0:
            raise BadDenominator(f"{other} has no residue mod {self.p}")
        value = other.numerator * pow(other.denominator, -1, self.p)
        return OraclePrimeCycNum(self.p, GFPoly(self.p, [value]))

    def __eq__(self, other):
        return self.poly == self._coerce(other).poly

    def __add__(self, other):
        return OraclePrimeCycNum(self.p, self.poly + self._coerce(other).poly)

    __radd__ = __add__

    def __neg__(self):
        return OraclePrimeCycNum(self.p, -self.poly)

    def __sub__(self, other):
        return OraclePrimeCycNum(self.p, self.poly - self._coerce(other).poly)

    def __mul__(self, other):
        return OraclePrimeCycNum(self.p, self.poly * self._coerce(other).poly)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        out = OraclePrimeCycNum(self.p, GFPoly(self.p, [1]))
        for _ in range(e):
            out = out * self
        return out

    def __str__(self):
        return poly_str(self.poly.coeffs, "z") + f" (mod {self.p})"


# --- the per-term evaluation routes, entirely in oracle arithmetic ----------


@lru_cache(maxsize=None)
def oracle_f_factor(n: int, entry, m: int) -> OracleCycNum:
    zeta = OracleCycNum(n, QPoly([0, 1]))
    br_inv = OracleCycNum(n, QPoly([1] * m)).inverse()
    if entry is BAR1:
        return zeta**m * br_inv
    return zeta ** ((entry - 1) * m) * br_inv**entry


@lru_cache(maxsize=None)
def oracle_cum(n: int, suffix: tuple) -> tuple:
    if not suffix:
        return tuple(OracleCycNum(n, QPoly([1])) for _ in range(n))
    sub = oracle_cum(n, suffix[1:])
    acc = OracleCycNum(n, QPoly())
    out = [acc]
    for m in range(1, n):
        acc = acc + oracle_f_factor(n, suffix[0], m) * sub[m - 1]
        out.append(acc)
    return tuple(out)


def oracle_zn_map(x: EPoly, n: int) -> OracleCycNum:
    h = OracleCycNum(n, QPoly([1, -1]))
    out = OracleCycNum(n, QPoly())
    for k, c in x.coefficients().items():
        out = out + substitute(c, h) * oracle_cum(n, k)[n - 1]
    return out


def oracle_A_m(m: int, x: EPoly, n: int) -> OracleCycNum:
    h = OracleCycNum(n, QPoly([1, -1]))
    out = OracleCycNum(n, QPoly())
    for k, c in x.coefficients().items():
        value = (
            OracleCycNum(n, QPoly([1]))
            if not k
            else oracle_f_factor(n, k[0], m) * oracle_cum(n, k[1:])[m - 1]
        )
        out = out + substitute(c, h) * value
    return out


def oracle_zcyc(x: EPoly, p: int) -> OraclePrimeCycNum:
    h = OraclePrimeCycNum(p, GFPoly(p, [1, -1]))
    out = OraclePrimeCycNum(p, GFPoly(p))
    for k, c in x.coefficients().items():
        exact = oracle_cum(p, k)[p - 1].poly.coeffs
        value = OraclePrimeCycNum(
            p, GFPoly(p, [a.numerator * pow(a.denominator, -1, p) for a in exact])
        )
        out = out + substitute(c, h) * value
    return out


def same(v, oracle: OracleCycNum) -> bool:
    return v.poly == oracle.poly and str(v) == str(oracle)


# --- strategies --------------------------------------------------------------

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=10)
vectors = st.lists(rationals, max_size=18)
int_vectors = st.lists(st.integers(-30, 30), max_size=30)
small_n = st.integers(2, 16)
primes = st.sampled_from((2, 3, 5, 7, 11, 13))
INDICES = sorted(enumerate_indices_up_to(3, "Ihat"), key=str)
I_INDICES = [k for k in INDICES if BAR1 not in k]


def laurents(min_exp: int):
    return st.dictionaries(
        st.integers(min_exp, 3), rationals.filter(bool), min_size=1, max_size=3
    ).map(Laurent)


def epolys(min_exp: int = -3):
    return st.dictionaries(st.sampled_from(INDICES), laurents(min_exp), max_size=5).map(EPoly)


# --- Q(zeta_n) ---------------------------------------------------------------


class TestCycNumAgainstOracle:
    @given(small_n, vectors, vectors, st.integers(-2, 4))
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, n, a, b, e):
        fld = cyc_field(n)
        x, y = fld.element(a), fld.element(b)
        ox, oy = OracleCycNum(n, QPoly(a)), OracleCycNum(n, QPoly(b))
        assert same(x, ox) and same(y, oy)
        assert same(x + y, ox + oy)
        assert same(x - y, ox - oy)
        assert same(-x, -ox)
        assert same(x * y, ox * oy)
        if e >= 0:
            assert same(x**e, ox**e)
        else:
            with pytest.raises(OutOfRange):
                x**e
        assert (x == y) == (ox == oy)
        assert (x + y == x) == y.is_zero()

    @given(small_n, vectors, rationals)
    @settings(max_examples=100, deadline=None)
    def test_scalars(self, n, a, c):
        x, ox = cyc_field(n).element(a), OracleCycNum(n, QPoly(a))
        assert same(x * c, ox * c) and same(c * x, ox * c)
        assert same(x + c, ox + c) and same(c - x, -ox + c)
        assert same(x * c.numerator, ox * c.numerator)
        assert (x == c) == (ox == c)

    def test_representation_is_canonical(self):
        fld = cyc_field(12)
        x = fld.element([Fraction(2, 6), Fraction(4, 6), 0, 0, 0])
        assert (x.num, x.den) == ((1, 2), 3)
        assert fld.element([]).den == 1 and fld.element([0, 0]).num == ()
        assert hash(fld.element([1, 2])) == hash(fld.element([Fraction(2, 2), 2]))


class TestClosedFormInverses:
    @given(small_n, st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_minus_root(self, n, data):
        m = data.draw(st.integers(1, n - 1))
        _, s, _ = poly_ext_gcd(QPoly([1] + [0] * (m - 1) + [-1]), cyclotomic_poly(n))
        # 1/(1 - zeta^m) = [m]^(-1) h^(-1)
        fld = cyc_field(n)
        assert (fld.q_int_inv(m) * _h_power(fld, -1)).poly == s % cyclotomic_poly(n)

    @given(small_n, st.data())
    @settings(max_examples=100, deadline=None)
    def test_q_integer(self, n, data):
        m = data.draw(st.integers(1, n - 1))
        _, s, _ = poly_ext_gcd(QPoly([1] * m), cyclotomic_poly(n))
        assert cyc_field(n).q_int_inv(m).poly == s % cyclotomic_poly(n)

    @given(small_n, st.integers(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_h_powers(self, n, e):
        assert same(_h_power(cyc_field(n), e), OracleCycNum(n, QPoly([1, -1])) ** e)

    @given(primes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_q_integer_mod_p(self, p, data):
        m = data.draw(st.integers(1, p - 1))
        g, s, _ = modpoly_ext_gcd(GFPoly(p, [1] * m), _phi_mod_p(p))
        assert g.degree() == 0
        # F_1(m) = [m]^(-1)
        assert _f_factor(prime_ring(p), 1, m).poly == s % _phi_mod_p(p)


# --- grouped evaluation -------------------------------------------------------


class TestGroupedEvaluation:
    @given(st.integers(2, 9), epolys())
    @settings(max_examples=80, deadline=None)
    def test_zn_map(self, n, x):
        assert same(zn_map(x, n), oracle_zn_map(x, n))

    @given(st.integers(2, 9), epolys(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_A_m_helper(self, n, x, data):
        m = data.draw(st.integers(1, n - 1))
        assert same(A_m_helper(m, x, n), oracle_A_m(m, x, n))

    def test_negative_exponent_alone(self):
        x = EPoly({(2,): Laurent.h(-2, Fraction(3, 4)), (BAR1, 1): Laurent.h(-1)})
        for n in range(2, 10):
            assert same(zn_map(x, n), oracle_zn_map(x, n))

    @given(primes, epolys(min_exp=0))
    @settings(max_examples=80, deadline=None)
    def test_zcyc_mod_p(self, p, x):
        try:
            want = oracle_zcyc(x, p)
        except BadDenominator:
            with pytest.raises(BadDenominator):
                zcyc_mod_p(x, p)
        else:
            got = zcyc_mod_p(x, p)
            assert got.poly == want.poly and str(got) == str(want)

    def test_zcyc_negative_exponent(self):
        with pytest.raises(NonInvertible):
            zcyc_mod_p(EPoly({(2,): Laurent.h(-1)}), 5)

    @pytest.mark.parametrize(
        "terms",
        [
            {(2,): Laurent.h(-1), (3,): Laurent(Fraction(1, 5))},
            {(3,): Laurent(Fraction(1, 5)), (2,): Laurent.h(-1)},
            {(2,): Laurent.h(-1, Fraction(1, 5))},
        ],
    )
    def test_zcyc_bad_denominator_before_non_invertible(self, terms):
        # every coefficient is reduced mod p before any power of h is taken
        with pytest.raises(BadDenominator):
            zcyc_mod_p(EPoly(terms), 5)


# --- Z[zeta_p]/(p) ------------------------------------------------------------


class TestPrimeCycNumAgainstOracle:
    @given(primes, int_vectors, int_vectors, st.integers(-2, 5))
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, p, a, b, e):
        x, y = prime_ring(p).element(a), prime_ring(p).element(b)
        ox, oy = OraclePrimeCycNum(p, GFPoly(p, a)), OraclePrimeCycNum(p, GFPoly(p, b))
        pairs = (
            (x, ox), (y, oy), (x + y, ox + oy), (x - y, ox - oy), (-x, -ox),
            (x * y, ox * oy), (x * 3, ox * 3),
        )
        for got, want in pairs:
            assert got.poly == want.poly and str(got) == str(want)
        if e >= 0:
            assert (x**e).poly == (ox**e).poly
        else:
            with pytest.raises(OutOfRange):
                x**e
        assert (x == y) == (ox == oy)

    def test_constructor_forms_agree(self):
        coeffs = [1, 2, 3, 4, 5, 6]
        ring = prime_ring(5)
        assert ring.element(ModPoly(5, coeffs).coeffs) == ring.element(coeffs)
        assert ring.element([1, 1, 1, 1, 1]).is_zero()


class TestThreeRoutesModP:
    """zcyc_mod_p, the coefficientwise reduction of zn_eval, and, after
    zeta -> 1, the truncated harmonic sum mod p all agree."""

    @given(st.sampled_from((3, 5, 7, 11, 13)), st.sampled_from(INDICES))
    @settings(max_examples=80, deadline=None)
    def test_zcyc_is_reduction_of_zn_eval(self, p, k):
        direct = zcyc_mod_p(EPoly({k: 1}), p)
        exact = zn_eval(k, p)
        reduced = prime_ring(p).element([c * pow(exact.den, -1, p) for c in exact.num])
        assert direct == reduced

    @given(st.sampled_from((3, 5, 7, 11, 13)), st.sampled_from(I_INDICES))
    @settings(max_examples=80, deadline=None)
    def test_reduction_at_one_is_harmonic_sum(self, p, k):
        direct = zcyc_mod_p(EPoly({k: 1}), p)
        assert sum(direct.num) % p == harmonic_sum_mod_p(k, p)
