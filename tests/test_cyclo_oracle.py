"""Differential tests of the int-based cyclotomic arithmetic.

The oracles below are the rational-polynomial types the package used
before its arithmetic moved to plain ints: a UniPoly residue reduced with
UniPoly.__divmod__ after every product, a ModPoly residue mod Phi_p, and
every inverse by extended Euclid. The per-term evaluation routes
substitute h = 1 - zeta into each coefficient separately. Every fast path
in qharmonic.cyclo is compared with them.
"""
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qharmonic.algebra import BAR1, EPoly, enumerate_indices_up_to
from qharmonic.coeff import (
    Laurent,
    ModPoly,
    UniPoly,
    modpoly_ext_gcd,
    poly_ext_gcd,
    poly_str,
)
from qharmonic.cyclo import (
    A_m_helper,
    PrimeCycNum,
    _f_factor_mod_p,
    _h_power_cyc,
    _one_minus_root_inv,
    _q_int_inv_cyc,
    cyc_field,
    cyclotomic_poly,
    zcyc_mod_p,
    zn_eval,
    zn_map,
)
from qharmonic.errors import BadDenominator, NonInvertible
from qharmonic.verify import harmonic_sum_mod_p


class OracleCycNum:
    """An element of Q(zeta_n) as a Fraction UniPoly reduced modulo Phi_n."""

    __slots__ = ("n", "poly")

    def __init__(self, n: int, poly: UniPoly):
        self.n = n
        self.poly = poly % cyclotomic_poly(n)

    def _coerce(self, other):
        if isinstance(other, OracleCycNum):
            return other
        return OracleCycNum(self.n, UniPoly([other]))

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
        out = OracleCycNum(self.n, UniPoly([1]))
        for _ in range(e):
            out = out * self
        return out

    def __str__(self):
        return poly_str(self.poly.coeffs, "z")


def _phi_mod_p(p: int) -> ModPoly:
    return ModPoly(p, [1] * p)


class OraclePrimeCycNum:
    """An element of GF(p)[x]/Phi_p as a ModPoly reduced by ModPoly.__divmod__."""

    __slots__ = ("p", "poly")

    def __init__(self, p: int, poly: ModPoly):
        self.p = p
        self.poly = poly % _phi_mod_p(p)

    def _coerce(self, other):
        if isinstance(other, OraclePrimeCycNum):
            return other
        other = Fraction(other)
        if other.denominator % self.p == 0:
            raise BadDenominator(f"{other} has no residue mod {self.p}")
        value = other.numerator * pow(other.denominator, -1, self.p)
        return OraclePrimeCycNum(self.p, ModPoly(self.p, [value]))

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

    def inverse(self):
        g, s, _ = modpoly_ext_gcd(self.poly, _phi_mod_p(self.p))
        if g.degree() != 0:
            raise NonInvertible("not a unit")
        return OraclePrimeCycNum(self.p, s)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = OraclePrimeCycNum(self.p, ModPoly(self.p, [1]))
        for _ in range(e):
            out = out * self
        return out

    def __str__(self):
        return poly_str(self.poly.coeffs, "z") + f" (mod {self.p})"


# --- the per-term evaluation routes, entirely in oracle arithmetic ----------


@lru_cache(maxsize=None)
def oracle_f_factor(n: int, entry, m: int) -> OracleCycNum:
    zeta = OracleCycNum(n, UniPoly([0, 1]))
    br_inv = OracleCycNum(n, UniPoly([1] * m)).inverse()
    if entry is BAR1:
        return zeta**m * br_inv
    return zeta ** ((entry - 1) * m) * br_inv**entry


@lru_cache(maxsize=None)
def oracle_cum(n: int, suffix: tuple) -> tuple:
    if not suffix:
        return tuple(OracleCycNum(n, UniPoly([1])) for _ in range(n))
    sub = oracle_cum(n, suffix[1:])
    acc = OracleCycNum(n, UniPoly())
    out = [acc]
    for m in range(1, n):
        acc = acc + oracle_f_factor(n, suffix[0], m) * sub[m - 1]
        out.append(acc)
    return tuple(out)


def oracle_zn_map(x: EPoly, n: int) -> OracleCycNum:
    h = OracleCycNum(n, UniPoly([1, -1]))
    out = OracleCycNum(n, UniPoly())
    for k, c in x.terms.items():
        out = out + c.substitute(h) * oracle_cum(n, k)[n - 1]
    return out


def oracle_A_m(m: int, x: EPoly, n: int) -> OracleCycNum:
    h = OracleCycNum(n, UniPoly([1, -1]))
    out = OracleCycNum(n, UniPoly())
    for k, c in x.terms.items():
        value = (
            OracleCycNum(n, UniPoly([1]))
            if not k
            else oracle_f_factor(n, k[0], m) * oracle_cum(n, k[1:])[m - 1]
        )
        out = out + c.substitute(h) * value
    return out


def oracle_zcyc(x: EPoly, p: int) -> OraclePrimeCycNum:
    h = OraclePrimeCycNum(p, ModPoly(p, [1, -1]))
    out = OraclePrimeCycNum(p, ModPoly(p))
    for k, c in x.terms.items():
        exact = oracle_cum(p, k)[p - 1].poly.coeffs
        value = OraclePrimeCycNum(
            p, ModPoly(p, [a.numerator * pow(a.denominator, -1, p) for a in exact])
        )
        out = out + c.substitute(h) * value
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
        ox, oy = OracleCycNum(n, UniPoly(a)), OracleCycNum(n, UniPoly(b))
        assert same(x, ox) and same(y, oy)
        assert same(x + y, ox + oy)
        assert same(x - y, ox - oy)
        assert same(-x, -ox)
        assert same(x * y, ox * oy)
        if e >= 0 or not x.is_zero():
            assert same(x**e, ox**e)
        assert (x == y) == (ox == oy)
        assert (x + y == x) == y.is_zero()

    @given(small_n, vectors, rationals)
    @settings(max_examples=100, deadline=None)
    def test_scalars(self, n, a, c):
        x, ox = cyc_field(n).element(a), OracleCycNum(n, UniPoly(a))
        assert same(x * c, ox * c) and same(c * x, ox * c)
        assert same(x + c, ox + c) and same(c - x, -ox + c)
        assert same(x * c.numerator, ox * c.numerator)
        assert (x == c) == (ox == c)

    @given(small_n, vectors)
    @settings(max_examples=100, deadline=None)
    def test_inverse(self, n, a):
        x, ox = cyc_field(n).element(a), OracleCycNum(n, UniPoly(a))
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert same(x.inverse(), ox.inverse())
            assert x * x.inverse() == 1

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
        _, s, _ = poly_ext_gcd(UniPoly([1] + [0] * (m - 1) + [-1]), cyclotomic_poly(n))
        assert _one_minus_root_inv(n, m).poly == s % cyclotomic_poly(n)

    @given(small_n, st.data())
    @settings(max_examples=100, deadline=None)
    def test_q_integer(self, n, data):
        m = data.draw(st.integers(1, n - 1))
        _, s, _ = poly_ext_gcd(UniPoly([1] * m), cyclotomic_poly(n))
        assert _q_int_inv_cyc(n, m).poly == s % cyclotomic_poly(n)

    @given(small_n, st.integers(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_h_powers(self, n, e):
        assert same(_h_power_cyc(n, e), OracleCycNum(n, UniPoly([1, -1])) ** e)

    @given(primes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_q_integer_mod_p(self, p, data):
        m = data.draw(st.integers(1, p - 1))
        g, s, _ = modpoly_ext_gcd(ModPoly(p, [1] * m), _phi_mod_p(p))
        assert g.degree() == 0
        # F_1(m) = [m]^(-1)
        assert _f_factor_mod_p(p, 1, m).poly == s % _phi_mod_p(p)


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


# --- Z[zeta_p]/(p) ------------------------------------------------------------


class TestPrimeCycNumAgainstOracle:
    @given(primes, int_vectors, int_vectors, st.integers(-2, 5))
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, p, a, b, e):
        x, y = PrimeCycNum(p, ModPoly(p, a)), PrimeCycNum(p, b)
        ox, oy = OraclePrimeCycNum(p, ModPoly(p, a)), OraclePrimeCycNum(p, ModPoly(p, b))
        pairs = (
            (x, ox), (y, oy), (x + y, ox + oy), (x - y, ox - oy), (-x, -ox),
            (x * y, ox * oy), (x * 3, ox * 3),
        )
        for got, want in pairs:
            assert got.poly == want.poly and str(got) == str(want)
        try:
            want = ox**e
        except NonInvertible:
            with pytest.raises(NonInvertible):
                x**e
        else:
            assert (x**e).poly == want.poly
        assert (x == y) == (ox == oy)

    def test_constructor_forms_agree(self):
        coeffs = [1, 2, 3, 4, 5, 6]
        assert PrimeCycNum(5, ModPoly(5, coeffs)) == PrimeCycNum(5, coeffs)
        assert PrimeCycNum(5, [1, 1, 1, 1, 1]).is_zero()


class TestThreeRoutesModP:
    """zcyc_mod_p, the coefficientwise reduction of zn_eval, and, after
    zeta -> 1, the truncated harmonic sum mod p all agree."""

    @given(st.sampled_from((3, 5, 7, 11, 13)), st.sampled_from(INDICES))
    @settings(max_examples=80, deadline=None)
    def test_zcyc_is_reduction_of_zn_eval(self, p, k):
        direct = zcyc_mod_p(EPoly({k: 1}), p)
        exact = zn_eval(k, p)
        reduced = PrimeCycNum(p, [c * pow(exact.den, -1, p) for c in exact.num])
        assert direct == reduced

    @given(st.sampled_from((3, 5, 7, 11, 13)), st.sampled_from(I_INDICES))
    @settings(max_examples=80, deadline=None)
    def test_reduction_at_one_is_harmonic_sum(self, p, k):
        direct = zcyc_mod_p(EPoly({k: 1}), p)
        assert sum(direct.coeffs) % p == harmonic_sum_mod_p(k, p)
