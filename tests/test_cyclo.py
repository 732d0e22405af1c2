import operator
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lemmas import A_m_helper
from poly_oracle import QPoly
from qharmonic.algebra import (
    BAR1,
    EPoly,
    e_to_word,
    enumerate_indices,
    enumerate_indices_up_to,
    word_to_e,
)
from qharmonic.coeff import Laurent, UniPoly
from qharmonic.cyclo import (
    CycNum,
    PrimeRing,
    _f_factor,
    _h_power,
    cyc_field,
    cyclotomic_poly,
    fmzv_reduce,
    ohno_check,
    ones_bar_closed_form,
    prime_ring,
    varpi_l_check,
    zcyc_mod_p,
    zn_eval,
    zn_map,
)
from qharmonic.errors import BadDenominator, NonInvertible, OutOfRange, PreconditionViolated
from qharmonic.products import psi_involution, shuffle_q, stuffle_q
from qharmonic.verify import harmonic_sum_mod_p

H = Laurent.h


class TestCyclotomicPoly:
    def test_goldens(self):
        assert cyclotomic_poly(1) == UniPoly([-1, 1])
        assert cyclotomic_poly(4) == UniPoly([1, 0, 1])
        assert cyclotomic_poly(6) == UniPoly([1, -1, 1])

    def test_product_over_divisors(self):
        for n in range(1, 21):
            prod = QPoly([1])
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic_poly(d)
            assert prod == UniPoly([-1] + [0] * (n - 1) + [1])


class TestCycNum:
    def test_inverse_goldens(self):
        # the closed-form inverses that stay: [m]^(-1), zeta^(-e) and h^(-1)
        f3 = cyc_field(3)
        assert f3.q_int_inv(2) == f3.element([0, -1])  # 1/(1 + zeta_3)
        assert f3.q_int_inv(1) == f3.one()
        f4 = cyc_field(4)
        assert f4.zeta_power(-1) == -f4.zeta()
        assert _h_power(f4, -1) == f4.element([Fraction(1, 2), Fraction(1, 2)])

    def test_inverse_roundtrip(self):
        for n in (3, 5, 8, 12):
            fld = cyc_field(n)
            h = fld.one() - fld.zeta()
            assert h * _h_power(fld, -1) == fld.one()
            for m in range(1, n):
                q_int = fld.element([1] * m)
                assert q_int * fld.q_int_inv(m) == fld.one()
                assert fld.zeta_power(m) * fld.zeta_power(-m) == fld.one()

    def test_pow_negative(self):
        # there is no division: a negative power is refused, not inverted
        for ring in (cyc_field(7), prime_ring(7)):
            v = ring.one() - ring.zeta()
            for x, e in ((v, -1), (v, -2), (ring.one(), -1)):
                with pytest.raises(OutOfRange, match="e >= 0"):
                    x**e

    @pytest.mark.parametrize(
        "left, other",
        [
            (cyc_field(5).one(), "x"),
            (cyc_field(5).one(), prime_ring(5).one()),
            (cyc_field(7).zeta(), prime_ring(7).zeta()),
            (prime_ring(7).zeta(), cyc_field(7).zeta()),
            (prime_ring(7).one(), cyc_field(7).one()),
            (cyc_field(5).one(), cyc_field(7).one()),
            (Laurent.h(1), cyc_field(5).one()),
        ],
        ids=["str", "PrimeCycNum", "Q7-Z7mod7", "Z7mod7-Q7", "Z7mod7-Q7-one", "Q5-Q7", "Laurent-Q5"],
    )
    def test_division_by_a_foreign_operand_is_a_type_error(self, left, other):
        # the message names the operands in the order they were written
        names = rf"unsupported operand .*: '{type(left).__name__}' and '{type(other).__name__}'"
        with pytest.raises(TypeError, match=names):
            left / other
        if isinstance(other, CycNum):
            # a value of another ring: no arithmetic, and never equal
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError, match=names):
                    op(left, other)
            assert not left == other and left != other

    def test_division(self):
        # no CycNum divides, by a value of its own ring or by a scalar
        for ring in (cyc_field(7), prime_ring(7)):
            v = ring.one() - ring.zeta()
            for left, right in ((v, v), (ring.one(), ring.zeta()), (v, 2), (2, v), (v, Fraction(1, 2))):
                with pytest.raises(TypeError, match="unsupported operand"):
                    left / right


class TestHash:
    # x == c must give hash(x) == hash(c), as for Laurent.
    @pytest.mark.parametrize("c", [0, 3, -2, Fraction(3, 2), Fraction(-5, 7)])
    def test_rational_hashes_as_itself(self, c):
        x = cyc_field(5).from_rational(c)
        assert x == c and hash(x) == hash(c)
        assert c in {x} and x in {c}

    def test_prime_ring_representative(self):
        # equality with an int is mod p; the representative in [0, p) hashes alike
        x = prime_ring(7).element([3])
        assert x == 3 and x == 10 and hash(x) == hash(3) and 3 in {x}
        assert hash(prime_ring(7).zero()) == hash(0)


class TestPrimeRingValues:
    def test_zero_is_falsy(self):
        ring = prime_ring(7)
        assert not ring.zero() and not ring.element([7, 14])
        assert ring.one() and ring.zeta()

    def test_division_by_a_unit(self):
        # the units the evaluator inverts are the [m], through q_int_inv
        ring = prime_ring(7)
        u = ring.element([3, 1, 4])
        for m in range(1, 7):
            assert u * ring.element([1] * m) * ring.q_int_inv(m) == u
        assert u * Fraction(1, 2) == u * 4

    def test_division_by_a_nilpotent(self):
        # h = 1 - zeta_p is nilpotent mod p: h^(p-1) = 0, so h^(-1) does not exist
        ring = prime_ring(7)
        h = ring.one() - ring.zeta()
        assert h**5 and not h**6
        with pytest.raises(NonInvertible):
            _h_power(ring, -1)

    @pytest.mark.parametrize("value", [prime_ring(7).zeta(), prime_ring(7).zero()], ids=["zeta", "zero"])
    def test_fraction_with_p_in_its_denominator(self, value):
        for c in (Fraction(1, 7), Fraction(3, 14)):
            with pytest.raises(BadDenominator):
                c * value
            with pytest.raises(BadDenominator):
                value * c
            with pytest.raises(BadDenominator):
                value + c
        assert value * Fraction(1, 3) == value * 5


class TestRingRepr:
    def test_text(self):
        assert repr(cyc_field(5)) == "Q(zeta_5)"
        assert repr(prime_ring(7)) == "Z[zeta_7]/(7)"

    @pytest.mark.parametrize(
        "ring", [cyc_field(n) for n in (2, 5, 12)] + [prime_ring(p) for p in (5, 7, 13)], ids=repr
    )
    def test_zeta_has_order_n(self, ring):
        assert ring.zeta_power(ring.n) == ring.one()
        assert all(ring.zeta_power(e) != ring.one() for e in range(1, ring.n))


class TestZetaPower:
    # zeta_power builds one monomial; zeta() ** e by repeated squaring is the oracle.
    @pytest.mark.parametrize(
        "ring",
        [pytest.param(cyc_field(n), id=f"cyc_field({n})") for n in range(2, 13)]
        + [pytest.param(prime_ring(p), id=f"prime_ring({p})") for p in (5, 7, 11, 13)],
    )
    def test_matches_repeated_squaring(self, ring):
        zeta = ring.zeta()
        for e in range(3 * ring.n):
            assert ring.zeta_power(e) == zeta**e, e


def lincomb_by_products(ring, pairs):
    """sum c*v through CycNum's * and +, one pair at a time."""
    out = ring.zero()
    for c, v in pairs:
        out = out + v * c
    return out


LINCOMB_RINGS = [cyc_field(n) for n in (2, 3, 5, 6, 12)] + [prime_ring(p) for p in (2, 3, 5, 7)]


class TestLincomb:
    """The one lincomb of both rings against products and sums. Mod p, every
    coefficient needs a residue, also one whose value is zero."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_sum_of_products(self, data):
        ring = data.draw(st.sampled_from(LINCOMB_RINGS), label="ring")
        fractions = st.fractions(-3, 3, max_denominator=14).filter(lambda c: c.denominator > 1)
        scalars = st.one_of(st.integers(-5, 5).filter(bool), fractions)
        # an element of Z[zeta_p]/(p) has int coefficients; Q(zeta_n) takes any rational
        ints = st.integers(-9, 9)
        entries = ints if isinstance(ring, PrimeRing) else st.one_of(ints, fractions)
        values = st.one_of(st.just(ring.zero()), st.lists(entries, max_size=ring.n + 1).map(ring.element))
        pairs = data.draw(st.lists(st.tuples(scalars, values), max_size=4), label="pairs")
        try:
            want = lincomb_by_products(ring, pairs)
        except BadDenominator:
            with pytest.raises(BadDenominator):
                ring.lincomb(pairs)
        else:
            assert ring.lincomb(pairs) == want

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_zero_value_still_needs_a_residue(self, p):
        ring = prime_ring(p)
        pairs = [(1, ring.one()), (Fraction(1, p), ring.zero())]
        with pytest.raises(BadDenominator):
            ring.lincomb(pairs)
        field = cyc_field(p)
        assert field.lincomb([(1, field.one()), (Fraction(1, p), field.zero())]) == 1


def zn_brute(k, n):
    fld = cyc_field(n)
    r = len(k)
    if r == 0:
        return fld.one()
    if r >= n:
        return fld.zero()
    total = fld.zero()
    for combo in combinations(range(1, n), r):
        ms = tuple(reversed(combo))
        term = fld.one()
        for entry, m in zip(k, ms):
            term = term * _f_factor(fld, entry, m)
        total = total + term
    return total


class TestZnEval:
    def test_goldens(self):
        f3 = cyc_field(3)
        assert zn_eval((BAR1,), 3) == f3.element([-1, 1])
        f4 = cyc_field(4)
        assert zn_eval((BAR1, BAR1), 4) == f4.element([0, -2])
        assert zn_eval((2, 1), 2).is_zero()
        assert zn_eval((), 5) == cyc_field(5).one()

    def test_matches_brute_force(self):
        for n in (3, 5, 6, 8):
            for k in enumerate_indices_up_to(4, "Ihat"):
                assert zn_eval(k, n) == zn_brute(k, n), (k, n)

    def test_scalar_action(self):
        f3 = cyc_field(3)
        x = EPoly({(): H()})
        assert zn_map(x, 3) == f3.one() - f3.zeta()

    def test_ones_bar_closed_form(self):
        assert ones_bar_closed_form(3, 1) == cyc_field(3).element([-1, 1])
        f4 = cyc_field(4)
        assert ones_bar_closed_form(4, 2) == f4.element([0, -2])
        assert ones_bar_closed_form(9, 0) == cyc_field(9).one()
        with pytest.raises(OutOfRange):
            ones_bar_closed_form(4, 4)


class TestReflection:
    def test_f_factor_reflection(self):
        # F_1bar(n-m) = -F_1(m), F_1(n-m) = -F_1bar(m), and the binomial
        # form of F_k(n-m), all exact in Q(zeta_n)
        from math import comb

        for n in range(2, 9):
            fld = cyc_field(n)
            one_minus_zeta = fld.one() - fld.zeta()
            for m in range(1, n):
                if n - m < 1 or n - m > n - 1:
                    continue
                assert _f_factor(fld, BAR1, n - m) == -_f_factor(fld, 1, m)
                assert _f_factor(fld, 1, n - m) == -_f_factor(fld, BAR1, m)
                for k in range(2, 6):
                    rhs = fld.zero()
                    for j in range(2, k + 1):
                        rhs = rhs + comb(k - 2, j - 2) * one_minus_zeta ** (
                            k - j
                        ) * _f_factor(fld, j, m)
                    assert _f_factor(fld, k, n - m) == (-1) ** k * rhs


class TestAm:
    def test_unit_convention(self):
        f5 = cyc_field(5)
        for m in range(1, 5):
            assert A_m_helper(m, EPoly.one(), 5) == f5.one()

    def test_single_entry(self):
        for n in (5, 7):
            fld = cyc_field(n)
            for k in (1, 2, 3):
                assert A_m_helper(1, EPoly.gen(k), n) == fld.zeta() ** (k - 1)

    def test_two_bars_at_four(self):
        got = A_m_helper(2, EPoly({(BAR1, BAR1): 1}), 4)
        f4 = cyc_field(4)
        want = _f_factor(f4, BAR1, 2) * _f_factor(f4, BAR1, 1)
        assert got == want

    def test_range(self):
        with pytest.raises(OutOfRange):
            A_m_helper(5, EPoly.one(), 5)

    def test_convolution(self):
        # A_m(u sh_q v) = sum over alpha+beta=m of A_alpha(u) A_beta(v),
        # with A_0 the constant coefficient; nonempty basis words
        for n in (4, 6, 8):
            fld = cyc_field(n)
            basis = [k for k in enumerate_indices_up_to(3, "Ihat") if k]
            for k1 in basis:
                for k2 in basis:
                    u, v = EPoly({k1: 1}), EPoly({k2: 1})
                    image = word_to_e(shuffle_q(e_to_word(u), e_to_word(v)))
                    for m in range(1, n):
                        lhs = A_m_helper(m, image, n)
                        rhs = fld.zero()
                        for alpha in range(1, m):
                            rhs = rhs + A_m_helper(alpha, u, n) * A_m_helper(
                                m - alpha, v, n
                            )
                        assert lhs == rhs, (k1, k2, m, n)


class TestFmzv:
    def test_z5_of_two_reduces_to_zero(self):
        assert fmzv_reduce(zn_eval((2,), 5), 5) == 0

    def test_generator_of_ideal(self):
        f5 = cyc_field(5)
        assert fmzv_reduce(f5.one() - f5.zeta(), 5) == 0

    def test_constants(self):
        assert fmzv_reduce(cyc_field(7).from_rational(3), 7) == 3

    def test_bad_denominator(self):
        with pytest.raises(BadDenominator):
            fmzv_reduce(cyc_field(5).from_rational(Fraction(1, 5)), 5)

    @pytest.mark.parametrize(
        "value",
        [prime_ring(7).one(), cyc_field(5).one(), cyc_field(14).zeta()],
        ids=["Z7mod7", "Q5", "Q14"],
    )
    def test_value_outside_q_zeta_p(self, value):
        # a Z[zeta_7]/(7) value has n = 7 too, but does not lie in Q(zeta_7)
        with pytest.raises(ValueError, match="Q\\(zeta_p\\)"):
            fmzv_reduce(value, 7)

    def test_harmonic_oracle_instance(self):
        # 1 + 1/4 + 1/9 + 1/16 mod 5 = 1 + 4 + 4 + 1 = 10 = 0
        assert harmonic_sum_mod_p((2,), 5) == 0


class TestZcycModP:
    def test_matches_exact_route(self):
        # direct mod-p arithmetic vs exact Q(zeta_p) then coefficientwise
        # reduction: a dual-route check of both implementations
        for p in (3, 5, 7):
            for k in enumerate_indices_up_to(3, "Ihat"):
                direct = zcyc_mod_p(EPoly({k: 1}), p)
                exact = zn_eval(k, p)
                coeffs = list(exact.poly.coeffs)
                reduced = prime_ring(p).element(
                    [c.numerator * pow(c.denominator, -1, p) % p for c in coeffs]
                )
                assert direct == reduced, (k, p)

    def test_scalar(self):
        got = zcyc_mod_p(EPoly({(): H()}), 5)
        assert got == prime_ring(5).element([1, -1])

    def test_zero(self):
        assert zcyc_mod_p(EPoly.zero(), 7).is_zero()

    def test_bad_denominator(self):
        with pytest.raises(BadDenominator):
            zcyc_mod_p(EPoly({(2,): Fraction(1, 7)}), 7)


class TestOhno:
    def test_z5_instance(self):
        # z_5(1,2) + z_5(2,1) = 2(1-zeta_5) z_5(2) + z_5(3)
        f5 = cyc_field(5)
        lhs = zn_eval((1, 2), 5) + zn_eval((2, 1), 5)
        rhs = 2 * (f5.one() - f5.zeta()) * zn_eval((2,), 5) + zn_eval((3,), 5)
        assert lhs == rhs
        ok, got_lhs, got_rhs = ohno_check((2,), 1, 5)
        assert ok and got_lhs == lhs and got_rhs == rhs

    def test_m_zero_reduces_to_involution(self):
        for n in (3, 5, 8):
            ok, lhs, rhs = ohno_check((2,), 0, n)
            assert ok
            assert lhs == zn_eval((2,), n)

    def test_deeper_instance(self):
        ok, _, _ = ohno_check((2, 1), 1, 6)
        assert ok

    def test_list_index(self):
        assert ohno_check([2, 1], 1, 6) == ohno_check((2, 1), 1, 6)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            ohno_check((), 1, 9)
        with pytest.raises(PreconditionViolated):
            ohno_check((2,), 1, 2)
        with pytest.raises(PreconditionViolated):
            ohno_check((BAR1,), 1, 9)


class TestVarpiL:
    def test_goldens(self):
        assert varpi_l_check((2,), 5)
        assert varpi_l_check((), 7)

    def test_denominator_clash(self):
        with pytest.raises(BadDenominator):
            varpi_l_check((1,), 3)


class TestZnRelations:
    def test_stuffle_instance(self):
        for n in (3, 7, 10):
            u, v = EPoly.gen(2), EPoly({(BAR1, 1): 1})
            assert zn_map(stuffle_q(u, v), n) == zn_map(u, n) * zn_map(v, n)

    def test_duality_via_psi(self):
        for n in range(2, 13):
            assert zn_map(EPoly.gen(BAR1), n) == -zn_map(EPoly.gen(1), n)

    def test_shuffle_psi_instance(self):
        for n in (3, 5, 9):
            u, v = EPoly.gen(BAR1), EPoly.gen(2)
            lhs = zn_map(word_to_e(shuffle_q(e_to_word(u), e_to_word(v))), n)
            rhs = zn_map(psi_involution(u) * v, n)
            assert lhs == rhs
