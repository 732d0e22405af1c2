"""The relation families of qharmonic.export and their three realizations."""
from fractions import Fraction

import pytest

from qharmonic import export
from qharmonic.algebra import BAR1, EPoly, _sorted_indices
from qharmonic.cyclo import cyc_field, zcyc_mod_p, zn_eval, zn_map
from qharmonic.errors import BadDenominator, PreconditionViolated
from qharmonic.evalq import QValue

HALF = QValue(Fraction(1, 2))


def first_nonzero(family):
    return next(rel for _, rel in family if not rel.is_zero())


@pytest.mark.parametrize("bump", [EPoly.gen(2), EPoly.one()], ids=["e_2", "1"])
def test_certified_sees_a_perturbed_relation(bump):
    rel = first_nonzero(export.derivation_relations(1, 2))
    assert export.certified(rel, HALF, 40) is None
    assert export.certified(rel + bump, HALF, 40) is not None


@pytest.mark.parametrize("bump", [EPoly.gen(2), EPoly.one()], ids=["e_2", "1"])
def test_cyclotomic_sees_a_perturbed_relation(bump):
    rel = first_nonzero(export.ohno_relations([5], 2, 1))
    assert export.cyclotomic(rel, 5) is None
    assert export.cyclotomic(rel + bump, 5) is not None


@pytest.mark.parametrize("bump", [EPoly.gen(2), EPoly.one()], ids=["e_2", "1"])
def test_mod_p_sees_a_perturbed_relation(bump):
    rel = first_nonzero(export.cyc_ohno_relations(2, 1))
    assert export.mod_p(rel, 11) is None
    assert export.mod_p(rel + bump, 11) is not None


def test_mod_p_sees_a_perturbed_varpi_l_relation():
    rel = first_nonzero(export.varpi_l_relations(2))
    assert export.mod_p(rel, 11) is None
    assert export.mod_p(rel + EPoly.one(), 11) is not None


def test_derivation_records_are_the_nonzero_relations():
    # no derivation relation of these sizes is zero; the filter still applies
    records = export.derivation_records(3, 3, M=40)
    want = [(n, list(map(str, w)), rel)
            for (n, w), rel in export.derivation_relations(3, 3) if not rel.is_zero()]
    got = [(r["n"], r["word"], export.record_combination(r)) for r in records]
    assert got == want and all(r["verified"] for r in records)


def test_ohno_records_are_the_nonzero_relations():
    records = export.ohno_records(6, 3)
    relations = list(export.ohno_relations(range(2, 7), 3, 2))
    want = [(n, list(map(str, k)), m, rel) for (n, k, m), rel in relations if not rel.is_zero()]
    got = [(r["n"], r["word"], r["m"], export.record_combination(r)) for r in records]
    # m = 0 relations are zero and have no record
    assert got == want and len(want) < len(relations)


#: The cyc-ohno cases at the default sizes where p divides a denominator of
#: the relation, so mod_p checks nothing and reports them as passing.
UNCHECKED_CYC_OHNO = [(7, (1, 1), 2), (7, (1, 1, 1), 1), (7, (1, 1, 1), 2),
                      (7, (1, 2), 2), (7, (2, 1), 2)]


def test_cyc_ohno_bad_denominators_are_pinned():
    unchecked = []
    for p in (7, 11, 13):
        for (k, m), rel in export.cyc_ohno_relations(3, 2):
            if p < len(k) + m + 1:
                continue
            try:
                zcyc_mod_p(rel, p)
            except BadDenominator:
                unchecked.append((p, k, m))
            assert export.mod_p(rel, p) is None, (p, k, m)
    assert unchecked == UNCHECKED_CYC_OHNO


def ohno_values(k, m, n):
    """z_n of both sides of the Ohno-type relation for (k, m, n)."""
    lhs, rhs = export.ohno_sides(k, m, n)
    return zn_map(lhs, n), zn_map(rhs, n)


class TestOhno:
    def test_z5_instance(self):
        # z_5(1,2) + z_5(2,1) = 2(1-zeta_5) z_5(2) + z_5(3)
        f5 = cyc_field(5)
        lhs = zn_eval((1, 2), 5) + zn_eval((2, 1), 5)
        rhs = 2 * (f5.one() - f5.zeta()) * zn_eval((2,), 5) + zn_eval((3,), 5)
        assert lhs == rhs
        got_lhs, got_rhs = ohno_values((2,), 1, 5)
        assert got_lhs == got_rhs and got_lhs == lhs and got_rhs == rhs

    def test_m_zero_reduces_to_involution(self):
        for n in (3, 5, 8):
            lhs, rhs = ohno_values((2,), 0, n)
            assert lhs == rhs
            assert lhs == zn_eval((2,), n)

    def test_deeper_instance(self):
        lhs, rhs = ohno_values((2, 1), 1, 6)
        assert lhs == rhs

    def test_list_index(self):
        assert ohno_values([2, 1], 1, 6) == ohno_values((2, 1), 1, 6)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            export.ohno_sides((), 1, 9)
        with pytest.raises(PreconditionViolated):
            export.ohno_sides((2,), 1, 2)
        with pytest.raises(PreconditionViolated):
            export.ohno_sides((BAR1,), 1, 9)


class TestVarpiL:
    def test_goldens(self):
        relations = dict(export.varpi_l_relations(2))
        assert zcyc_mod_p(relations[(2,)], 5).is_zero()
        assert zcyc_mod_p(relations[()], 7).is_zero()

    def test_denominator_clash(self):
        relations = dict(export.varpi_l_relations(1))
        with pytest.raises(BadDenominator):
            zcyc_mod_p(relations[(1,)], 3)

    def test_one_relation_per_index_in_sorted_order(self):
        assert [k for k, _ in export.varpi_l_relations(3)] == _sorted_indices(3, "I")
