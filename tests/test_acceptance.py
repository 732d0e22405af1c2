"""The acceptance gate: every criterion below runs at its stated tolerance
and prints one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""
import time
from fractions import Fraction

import pytest

from qharmonic.algebra import (
    EPoly,
    e_to_word,
    enumerate_indices,
    enumerate_indices_up_to,
    hoffman_dual,
    index_dep,
    index_wt,
    word_to_e,
)
from qharmonic.evalq import QValue, Zq_eval
from qharmonic.export import parse_json, record_combination, relation_records, render_json
from qharmonic.verify import (
    suite_cor_delta,
    suite_cyc_ohno,
    suite_delta_factorization,
    suite_derivation,
    suite_double_shuffle,
    suite_fmzv,
    suite_log_formulas,
    suite_mzv_compare,
    suite_ohno,
    suite_ones_bar,
    suite_varpi_l,
    suite_zn_duality,
    suite_zn_stuffle,
)

Q_HALF = Fraction(1, 2)
TRUNCATION = 120
TEN_TO_MINUS_30 = Fraction(1, 10**30)


def report(number: int, ok: bool, description: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {number:02d} [{status}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def all_ok(reports):
    return all(r.ok for r in reports), len(reports)


@pytest.fixture(scope="module")
def delta_factorization_reports():
    return suite_delta_factorization(order=4, max_weight=4)


@pytest.fixture(scope="module")
def ohno_reports():
    return suite_ohno(n_range=range(4, 13), max_weight=4, max_m=3)


def test_criterion_01_structural_roundtrips():
    t0 = time.perf_counter()
    count = 0
    for w in range(0, 9):
        for k in enumerate_indices(w, "Ihat"):
            x = EPoly({k: 1})
            assert word_to_e(e_to_word(x)) == x
            count += 1
        for k in enumerate_indices(w, "I"):
            if not k:
                continue
            dual = hoffman_dual(k)
            assert hoffman_dual(dual) == k
            assert index_wt(dual) == index_wt(k)
            assert index_dep(dual) == index_wt(k) - index_dep(k) + 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(1, ok, f"round-trips and dual involution, weight <= 8 ({count} indices, {elapsed:.2f}s < 5s)")


def test_criterion_02_log_formulas():
    t0 = time.perf_counter()
    reports = suite_log_formulas(order=6)
    elapsed = time.perf_counter() - t0
    ok, n = all_ok(reports)
    ok = ok and elapsed < 5.0
    report(2, ok, f"log_sh and log_* formulas to X^6, exact ({n} checks, {elapsed:.2f}s < 5s)")


def test_criterion_03_phi_psi_rewrites(delta_factorization_reports):
    cases = [r for r in delta_factorization_reports if "rewrite" in r.case]
    ok = all(r.ok for r in cases)
    report(3, ok, f"Phi_X and Psi_X factorizations, weight <= 4, order <= 4 ({len(cases)} words)")


def test_criterion_04_delta_factorization(delta_factorization_reports):
    cases = [r for r in delta_factorization_reports if "Phi=Psi.Delta" in r.case]
    ok = all(r.ok for r in cases) and len(cases) == 2
    report(4, ok, "Phi_X = Psi_X Delta_X on a and b up to X^6, exact")


def test_criterion_05_cor_delta():
    reports = suite_cor_delta(order=4, max_weight=4)
    ok, n = all_ok(reports)
    report(5, ok, f"geometric-series corollary, weight <= 4, order <= 4 ({n} words)")


def test_criterion_06_delta_expansion_and_combination(ohno_reports):
    cases = [
        r for r in ohno_reports if r.case.startswith(("Delta expansion", "combination"))
    ]
    ok = all(r.ok for r in cases)
    report(6, ok, f"Delta_X expansion vs A_(k,s,p) and the combination identity ({len(cases)} cases)")


def test_criterion_07_double_shuffle_numeric():
    reports = suite_double_shuffle(q=Q_HALF, M=TRUNCATION, max_weight=3)
    ok, n = all_ok(reports)
    # the certified bound of each input-word evaluation at these parameters
    qv = QValue(Q_HALF)
    max_input_bound = max(
        Zq_eval(EPoly({k: 1}), qv, TRUNCATION).tail_bound
        for k in enumerate_indices_up_to(3, "Ihat0")
    )
    ok = ok and max_input_bound < TEN_TO_MINUS_30
    report(
        7,
        ok,
        f"double shuffle at q=1/2, M=120, {n} pairs; "
        f"input bounds <= {float(max_input_bound):.2e} < 1e-30",
    )


def test_criterion_08_derivation_relations_numeric():
    reports = suite_derivation(q=Q_HALF, M=TRUNCATION, max_n=3, max_weight=3)
    ok, n = all_ok(reports)
    report(8, ok, f"Z_q(partial_n w) = 0 within certified bounds, n <= 3 ({n} cases)")


def test_criterion_09_zn_double_shuffle():
    rep1 = suite_zn_stuffle(n_range=range(3, 11), max_weight=3)
    rep2 = suite_zn_duality(n_range=range(3, 11), max_weight=3)
    ok = all(r.ok for r in rep1) and all(r.ok for r in rep2)
    report(9, ok, f"z_n stuffle and shuffle-psi relations, n in 3..10 ({len(rep1)}+{len(rep2)} cases)")


def test_criterion_10_ohno_relation(ohno_reports):
    cases = [r for r in ohno_reports if r.case.startswith("n=")]
    ok = all(r.ok for r in cases)
    from qharmonic.cyclo import cyc_field, zn_eval, zn_map
    from qharmonic.export import ohno_sides

    f5 = cyc_field(5)
    lhs = zn_eval((1, 2), 5) + zn_eval((2, 1), 5)
    rhs = 2 * (f5.one() - f5.zeta()) * zn_eval((2,), 5) + zn_eval((3,), 5)
    side_l, side_r = ohno_sides((2,), 1, 5)
    ok = ok and lhs == rhs and zn_map(side_l, 5) == zn_map(side_r, 5)
    report(10, ok, f"Ohno relation, n in 4..12, wt <= 4, m <= 3 ({len(cases)} cases, incl. z_5 instance)")


def test_criterion_11_ones_bar_closed_form():
    reports = suite_ones_bar(n_range=range(2, 17))
    ok, n = all_ok(reports)
    report(11, ok, f"closed form for z_n(1bar^r), n <= 16, r < min(n,9) ({n} cases)")


def test_criterion_12_fmzv_reduction():
    reports = suite_fmzv(primes=(5, 7, 11, 13), max_weight=4)
    ok, n = all_ok(reports)
    from qharmonic.cyclo import fmzv_reduce, zn_eval

    ok = ok and fmzv_reduce(zn_eval((2,), 5), 5) == 0
    report(12, ok, f"z_p mod (1-zeta_p) = truncated harmonic sum mod p ({n} cases)")


def test_criterion_13_varpi_l_and_cyc_ohno():
    rep1 = suite_varpi_l(primes=(7, 11, 13), max_weight=3)
    rep2 = suite_cyc_ohno(primes=(7, 11, 13), max_weight=3, max_m=2)
    ok = all(r.ok for r in rep1) and all(r.ok for r in rep2)
    report(13, ok, f"varpi-L and cyclotomic Ohno congruences ({len(rep1)}+{len(rep2)} cases)")


def test_criterion_14_mzv_comparison():
    reports = suite_mzv_compare(max_n=3, max_weight=4)
    ok, n = all_ok(reports)
    report(14, ok, f"((-1)^n/n) iota partial~_n = partial_n iota, n <= 3, wt <= 4 ({n} cases)")


def test_criterion_15_export_roundtrip_and_reverify():
    text = render_json(relation_records("derivation", 3, 5))
    records = parse_json(text)
    roundtrip_ok = render_json(records) == text
    qv = QValue(Q_HALF)
    verify_ok = True
    for rec in records:
        cv = Zq_eval(record_combination(rec), qv, TRUNCATION)
        verify_ok = verify_ok and abs(cv.value) <= cv.tail_bound and rec["verified"]
    ok = roundtrip_ok and verify_ok and len(records) > 0
    report(
        15,
        ok,
        f"exported derivation JSON (n <= 3, wt <= 5): {len(records)} records re-verified, "
        f"byte-identical round-trip",
    )
