"""Mutation tests: a suite fed one wrong coefficient must report FAIL."""
import hashlib
import inspect
from fractions import Fraction
from itertools import product as iproduct

import pytest

from frozen_value import assert_frozen_value
from qharmonic import derivations, evalq, export, verify
from qharmonic.algebra import BAR1, EPoly, NcPoly, e_to_word, index_sort_key, word_to_e
from qharmonic.derivations import iota, mzv_partial, z_word
from qharmonic.errors import NotInH1
from qharmonic.evalq import CertifiedValue, tail_bound
from qharmonic.products import shuffle_q, stuffle_q
from qharmonic.series import TruncSeries, geometric, series_const, ts_mul


def bump_one_coefficient(x: EPoly) -> EPoly:
    """x with 1 added to the coefficient of its smallest index."""
    k = min(x.coefficients(), key=index_sort_key)
    return x + EPoly({k: 1})


def bump_smallest(x):
    """x with 1 added to the coefficient of its smallest word or index (as text)."""
    return x + type(x)({min(x.coefficients(), key=str): 1})


def bump_constant_term(s: TruncSeries) -> TruncSeries:
    """s with 1 added to the coefficient of the smallest key of its X^0 term."""
    return TruncSeries((bump_smallest(s.coeffs[0]),) + s.coeffs[1:])


def assert_all_fail_with_witness(reports, needle):
    assert reports
    for r in reports:
        assert not r.ok, r.case
        assert needle in r.witness, r.witness
        assert "witness:" in r.line()


def test_derivation_catches_a_wrong_partial_n(monkeypatch):
    good = export.partial_n_e
    monkeypatch.setattr(export, "partial_n_e", lambda n, x: bump_one_coefficient(good(n, x)))
    reports = verify.suite_derivation(M=40, max_n=1, max_weight=2)
    assert_all_fail_with_witness(reports, "Z_q(partial_1")


def test_derivation_catches_a_wrong_word_image(monkeypatch):
    # partial_n_e has no e-basis definition of its own: one wrong word image
    # of partial_1 reaches every relation the suite checks
    good = derivations._partial_images

    def bumped(n):
        den, images = good(n)
        return den, {**images, "b": {**images["b"], ("b", 0): den}}

    monkeypatch.setattr(derivations, "_partial_images", bumped)
    derivations.partial_gen.cache_clear()
    try:
        reports = verify.suite_derivation(M=40, max_n=1, max_weight=2)
    finally:
        derivations.partial_gen.cache_clear()
    assert_all_fail_with_witness(reports, "Z_q(partial_1")


def test_double_shuffle_catches_a_wrong_stuffle(monkeypatch):
    good = export.stuffle_q
    monkeypatch.setattr(export, "stuffle_q", lambda x, y: bump_one_coefficient(good(x, y)))
    reports = verify.suite_double_shuffle(M=40, max_weight=2)
    assert_all_fail_with_witness(reports, "double-shuffle residual")


#: sha256 of the "case<TAB>witness" lines of the run below, as the exact
#: Fraction route prints them: every witness is a full-precision fraction.
BUMPED_PRODUCT_WITNESSES = "7f5630c0473ff03bf997a2c3a5d76d7a1aa410c8816e62dc6d279c8a68f60c34"


def test_double_shuffle_catches_a_wrong_product(monkeypatch):
    # Z_q(w) off by 1/1024 for every nonempty w: only the product rule sees it
    good = verify.zeta_q_partial

    def bumped(k, qv, M):
        v = good(k, qv, M)
        num, den = (v.num << 10) + v.den, v.den << 10
        return CertifiedValue._unreduced(num, den, v.tail_bound, M) if k else v

    monkeypatch.setattr(verify, "zeta_q_partial", bumped)
    reports = verify.suite_double_shuffle(M=40, max_weight=2)
    assert len(reports) == 25
    assert [r.case for r in reports if r.ok] == ["w=() w'=()"]
    assert_all_fail_with_witness(reports[1:], "stuffle product residual")
    text = "\n".join(f"{r.case}\t{r.witness}" for r in reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BUMPED_PRODUCT_WITNESSES


def test_export_catches_a_wrong_partial_n(monkeypatch):
    good = export.partial_n_e
    monkeypatch.setattr(export, "partial_n_e", lambda n, x: bump_one_coefficient(good(n, x)))
    records = export.derivation_records(1, 2, M=40)
    assert records and not any(r["verified"] for r in records)


def test_bound_checks_never_reduce(monkeypatch):
    """The derivation and double-shuffle checks pass without reading .value."""

    def no_reduction(self):
        raise AssertionError("the check reduced a certified value")

    monkeypatch.setattr(CertifiedValue, "value", property(no_reduction))
    with pytest.raises(AssertionError):
        CertifiedValue._unreduced(1, 2, 0, 1).value
    reports = verify.suite_derivation(M=40, max_n=1, max_weight=2)
    assert reports and all(r.ok for r in reports)
    records = export.derivation_records(1, 2, M=40)
    assert records and all(r["verified"] is True for r in records)
    # at q = 1/10, M = 120 the tail bounds reach 2^-400: the enclosure
    # precision must follow them, a fixed 320 bits would decide nothing
    assert tail_bound(1, Fraction(1, 10), 120) < Fraction(1, 2**400)
    for q, M in ((Fraction(1, 2), 40), (Fraction(1, 10), 120)):
        reports = verify.suite_double_shuffle(q=q, M=M, max_weight=2)
        assert len(reports) == 25 and all(r.ok for r in reports), q


def bump_delta_x(monkeypatch):
    good = verify.Delta_X
    monkeypatch.setattr(verify, "Delta_X", lambda w, order: bump_constant_term(good(w, order)))


def delta_factorization_cases():
    reports = verify.suite_delta_factorization(order=1, max_weight=1)
    return [r for r in reports if r.case.startswith("Phi=Psi.Delta")]


def test_cor_delta_catches_a_wrong_delta_x(monkeypatch):
    bump_delta_x(monkeypatch)
    assert_all_fail_with_witness(verify.suite_cor_delta(order=2, max_weight=2), "cor-Delta fails")


def test_delta_factorization_catches_a_wrong_delta_x(monkeypatch):
    bump_delta_x(monkeypatch)
    assert_all_fail_with_witness(delta_factorization_cases(), "Phi_X != Psi_X Delta_X")


def commutator_cases():
    """{family: its [D_i, D_j] = 0 reports} from one small delta-factorization run."""
    out: dict = {}
    for r in verify.suite_delta_factorization(order=1, max_weight=1):
        if r.case.startswith("["):
            out.setdefault(r.case[1:].split("_")[0], []).append(r)
    return out


def assert_pairs_with_2_fail(reports, family):
    # [D_i, D_j] = 0 fails exactly for the pairs holding the perturbed D_2
    assert reports and all(r.ok == ("_2," not in r.case and "_2]" not in r.case) for r in reports)
    assert_all_fail_with_witness([r for r in reports if not r.ok], f"[{family}_")


@pytest.fixture
def fresh_letter_series():
    """Cold letter series before and after, so none built from a perturbed
    derivation outlives the test."""
    derivations._letter_series.cache_clear()
    yield
    derivations._letter_series.cache_clear()


def test_delta_factorization_catches_a_wrong_delta_image(monkeypatch, fresh_letter_series):
    cases = commutator_cases()
    assert sorted(cases) == ["d", "delta", "partial"]
    assert all(r.ok for reports in cases.values() for r in reports)
    good = derivations._delta_images

    def bumped(n):
        den, images = good(n)
        if n != 2:
            return den, images
        return den, {**images, "b": {**images["b"], ("b", 0): 1}}  # delta_2(b) += b/2

    monkeypatch.setattr(derivations, "_delta_images", bumped)
    cases = commutator_cases()
    assert_pairs_with_2_fail(cases["delta"], "delta")
    assert all(r.ok for r in cases["d"] + cases["partial"])


def test_delta_factorization_catches_a_wrong_delta_6(monkeypatch, fresh_letter_series):
    # delta_6 is the top of the order 6 letter series; [delta_i, delta_6] are
    # the only commutator cases that hold it, and Phi=Psi.Delta on b the only
    # factorization case whose letter it changes
    good = derivations._delta_images

    def bumped(n):
        den, images = good(n)
        if n != 6:
            return den, images
        return den, {**images, "b": {**images["b"], ("b", 0): 1}}  # delta_6(b) += b/6

    monkeypatch.setattr(derivations, "_delta_images", bumped)
    reports = verify.suite_delta_factorization(order=1, max_weight=1)
    failed = [r for r in reports if not r.ok]
    assert [r.case for r in failed] == [
        *(f"[delta_{i}, delta_6] = 0 on 2 words" for i in range(1, 6)), "Phi=Psi.Delta on b, order 6"]
    assert_all_fail_with_witness(failed[:-1], "[delta_")
    assert_all_fail_with_witness(failed[-1:], "Phi_X != Psi_X Delta_X on b")


def test_delta_factorization_catches_a_wrong_d_n(monkeypatch):
    good = verify.d_n
    a = NcPoly.word("a")
    monkeypatch.setattr(verify, "d_n", lambda n, w: good(n, w) + a * w if n == 2 else good(n, w))
    cases = commutator_cases()
    assert_pairs_with_2_fail(cases["d"], "d")
    assert all(r.ok for r in cases["delta"] + cases["partial"])


@pytest.fixture
def bump_one_dp_factor(monkeypatch):
    """evalq's per-entry factor table with 1 added at m = 2, on cold caches."""
    good = evalq._head_factors

    def bumped(head, kappa, a, b, M):
        f = list(good(head, kappa, a, b, M))
        f[2] += 1
        return tuple(f)

    clear_dp_caches()
    monkeypatch.setattr(evalq, "_head_factors", bumped)
    yield
    clear_dp_caches()


def clear_dp_caches():
    evalq._suffix_numerators.cache_clear()
    evalq._index_numerator.cache_clear()
    evalq._zeta_cache.clear()


def test_derivation_catches_a_zero_tail_bound_after_a_warm_run(monkeypatch):
    # the warm run fills _zeta_cache; a patch on cleared caches must still be seen
    assert all(r.ok for r in verify.suite_derivation(M=40, max_n=1, max_weight=2))
    monkeypatch.setattr(evalq, "tail_bound", lambda depth, q, M: Fraction(0))
    clear_dp_caches()
    try:
        reports = verify.suite_derivation(M=40, max_n=1, max_weight=2)
    finally:
        clear_dp_caches()
    assert_all_fail_with_witness(reports, "Z_q(partial_1")


def test_derivation_catches_a_wrong_dp_factor(bump_one_dp_factor):
    reports = verify.suite_derivation(M=40, max_n=1, max_weight=2)
    assert_all_fail_with_witness(reports, "Z_q(partial_1")


def test_double_shuffle_catches_a_wrong_dp_factor(bump_one_dp_factor):
    # a pair with the empty index holds identically, without the DP
    reports = verify.suite_double_shuffle(M=40, max_weight=2)
    assert_all_fail_with_witness([r for r in reports if "()" not in r.case], "residual")


def test_log_formulas_catch_a_wrong_product(monkeypatch):
    for name in ("shuffle_q", "stuffle_q"):
        good = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda x, y, good=good: bump_smallest(good(x, y)))
    reports = verify.suite_log_formulas(order=3)
    assert_all_fail_with_witness(reports, "mismatch")


def test_zn_stuffle_catches_a_wrong_stuffle(monkeypatch):
    good = verify.stuffle_q
    monkeypatch.setattr(verify, "stuffle_q", lambda x, y: good(x, y) + EPoly.gen(2))
    reports = verify.suite_zn_stuffle(n_range=range(3, 5), max_weight=1)
    assert_all_fail_with_witness(reports, "stuffle fails")


def ohno_cases(**kwargs):
    return verify.suite_ohno(n_range=range(4, 6), max_weight=2, max_m=1, **kwargs)


def test_ohno_catches_a_wrong_dual_shift_sum(monkeypatch):
    # both the combination identity (verify) and the relation itself (export) read it
    good = verify._dual_shift_sum
    bumped = lambda k, m: good(k, m) + EPoly.gen(2)  # noqa: E731
    monkeypatch.setattr(verify, "_dual_shift_sum", bumped)
    monkeypatch.setattr(export, "_dual_shift_sum", bumped)
    reports = [r for r in ohno_cases() if not r.case.startswith("Delta expansion")]
    combination = [r for r in reports if r.case.startswith("combination")]
    assert combination and len(combination) < len(reports)
    assert_all_fail_with_witness(combination, "combination identity fails")
    assert_all_fail_with_witness([r for r in reports if r not in combination], "Ohno fails")


def test_ohno_catches_a_wrong_delta_expansion(monkeypatch):
    good = verify.delta_expansion
    monkeypatch.setattr(verify, "delta_expansion", lambda k, order: bump_constant_term(good(k, order)))
    reports = [r for r in ohno_cases() if r.case.startswith("Delta expansion")]
    assert_all_fail_with_witness(reports, "expansion mismatch")


def test_mzv_compare_catches_a_wrong_partial_n(monkeypatch):
    good = verify.partial_n
    monkeypatch.setattr(verify, "partial_n", lambda n, w: bump_smallest(good(n, w)))
    reports = verify.suite_mzv_compare(max_n=2, max_weight=2)
    assert_all_fail_with_witness(reports, "iota comparison fails")


# --- the e-basis comparisons that mzv-compare and cor-delta made before ------
# Both suites now compare e_to_word(lhs) with a right side in words. These
# oracles compare lhs with word_to_e(right side), as the suites used to, and
# read verify's partial_n, partial_n_e and Delta_X, so a patch reaches both.


def defaults(suite):
    return {name: p.default for name, p in inspect.signature(suite).parameters.items()}


def mzv_compare_e_basis(max_n, max_weight):
    verdicts = []
    indices = [k for k in verify._sorted_indices(max_weight, "I") if k]
    for n, k in iproduct(range(1, max_n + 1), indices):
        w = z_word(*k)
        lhs = iota(mzv_partial(n, w)).scale(Fraction((-1) ** n, n))
        ok = lhs == word_to_e(verify.partial_n(n, e_to_word(iota(w))))
        verdicts.append(ok and (k[0] == 1 or lhs == verify.partial_n_e(n, iota(w))))
    return verdicts


def cor_delta_e_basis(order, max_weight):
    geo_e = geometric(EPoly.gen(BAR1), order)
    geo_w = geometric(NcPoly.word("ab"), order)
    verdicts = []
    for k in verify._sorted_indices(max_weight, "Ihat"):
        w = EPoly({k: 1})
        lhs = ts_mul(stuffle_q, geo_e, series_const(w, order))
        rhs = ts_mul(shuffle_q, geo_w, verify.Delta_X(e_to_word(w), order))
        verdicts.append(lhs == rhs.map_coeffs(word_to_e))
    return verdicts


def longest_word(x) -> int:
    return max((len(u) for u, _ in x.terms), default=0)


@pytest.mark.parametrize("mutate", [False, True], ids=["clean", "n=2 bumped"])
def test_mzv_compare_agrees_with_e_basis_route(monkeypatch, mutate):
    if mutate:
        good = verify.partial_n
        monkeypatch.setattr(
            verify, "partial_n", lambda n, w: bump_smallest(good(n, w)) if n == 2 else good(n, w)
        )
    verdicts = [r.ok for r in verify.suite_mzv_compare()]
    assert verdicts == mzv_compare_e_basis(**defaults(verify.suite_mzv_compare))
    assert all(verdicts) != mutate and any(verdicts)


def test_cor_delta_agrees_with_e_basis_route():
    verdicts = [r.ok for r in verify.suite_cor_delta()]
    assert verdicts == cor_delta_e_basis(**defaults(verify.suite_cor_delta))
    assert all(verdicts)


def bump_x1_term(s: TruncSeries) -> TruncSeries:
    """s with 1 added to the coefficient of the smallest key of its X^1 term."""
    return TruncSeries((s.coeffs[0], bump_smallest(s.coeffs[1])) + s.coeffs[2:])


def test_cor_delta_agrees_with_e_basis_route_when_some_fail(monkeypatch):
    # the bump sits at X^1, so a check that read only X^0 would pass every case
    good = verify.Delta_X
    monkeypatch.setattr(
        verify,
        "Delta_X",
        lambda w, order: bump_x1_term(good(w, order)) if longest_word(w) > 2 else good(w, order),
    )
    verdicts = [r.ok for r in verify.suite_cor_delta(order=2, max_weight=3)]
    assert verdicts == cor_delta_e_basis(order=2, max_weight=3)
    assert any(verdicts) and not all(verdicts)


def test_a_word_ending_in_a_fails_with_a_witness(monkeypatch):
    # the e-basis route cannot convert such a right side at all
    good_partial, good_delta = verify.partial_n, verify.Delta_X
    monkeypatch.setattr(verify, "partial_n", lambda n, w: good_partial(n, w) + NcPoly.word("aba"))
    monkeypatch.setattr(
        verify,
        "Delta_X",
        lambda w, order: TruncSeries(
            (good_delta(w, order).coeffs[0] + NcPoly.word("ba"),) + good_delta(w, order).coeffs[1:]
        ),
    )
    assert_all_fail_with_witness(verify.suite_mzv_compare(max_n=2, max_weight=2), "iota comparison fails")
    assert_all_fail_with_witness(verify.suite_cor_delta(order=2, max_weight=2), "cor-Delta fails")
    with pytest.raises(NotInH1):
        mzv_compare_e_basis(max_n=2, max_weight=2)
    with pytest.raises(NotInH1):
        cor_delta_e_basis(order=2, max_weight=2)


def zn_duality_cases():
    return verify.suite_zn_duality(n_range=range(3, 5), max_weight=2)


def test_zn_duality_catches_a_wrong_psi(monkeypatch):
    # 1 added to the coefficient of the empty index: a bump on a longer
    # index can reach depth >= n, where z_n vanishes
    good = export.psi_involution
    monkeypatch.setattr(export, "psi_involution", lambda x: good(x) + EPoly.one())
    reports = [r for r in zn_duality_cases() if not r.case.startswith("duality instance")]
    assert_all_fail_with_witness(reports, "shuffle-psi fails")


def test_duality_instance_catches_a_wrong_zn_map(monkeypatch):
    good = export.zn_map
    monkeypatch.setattr(export, "zn_map", lambda x, n: good(x, n) + 1)
    reports = [r for r in zn_duality_cases() if r.case.startswith("duality instance")]
    assert len(reports) == 11
    assert_all_fail_with_witness(reports, "(e_1bar) + z_")


def test_ones_bar_catches_a_wrong_closed_form(monkeypatch):
    good = verify.ones_bar_closed_form
    monkeypatch.setattr(verify, "ones_bar_closed_form", lambda n, r: good(n, r) + 1)
    assert_all_fail_with_witness(verify.suite_ones_bar(n_range=range(2, 7)), "1bar^")


def test_fmzv_catches_a_wrong_zn_eval(monkeypatch):
    good = verify.zn_eval
    monkeypatch.setattr(verify, "zn_eval", lambda k, n: good(k, n) + 1)
    reports = verify.suite_fmzv(primes=(5, 7), max_weight=2)
    assert_all_fail_with_witness(reports, "!= harmonic sum")


def test_varpi_l_catches_a_wrong_l_map(monkeypatch):
    # varpi_l_relations reads the L map through export; the bump adds 1 to
    # the coefficient of the empty index, whose value is 1
    good = export.l_map_epoly
    monkeypatch.setattr(export, "l_map_epoly", lambda x: good(x) + EPoly.one())
    reports = verify.suite_varpi_l(primes=(7, 11), max_weight=2)
    assert_all_fail_with_witness(reports, "varpi-L fails")


def cyc_ohno_cases():
    # at p = 7 some cases catch BadDenominator and pass unchecked
    return verify.suite_cyc_ohno(primes=(11, 13))


def test_cyc_ohno_catches_a_wrong_dual_shift_sum(monkeypatch):
    good = export._dual_shift_sum
    monkeypatch.setattr(export, "_dual_shift_sum", lambda k, m: good(k, m) + EPoly.one())
    assert_all_fail_with_witness(cyc_ohno_cases(), "cyc-Ohno fails")


def test_cyc_ohno_catches_a_wrong_l_map(monkeypatch):
    # only the m >= 1 cases apply the L map; the clean run first would
    # leave behind any side cached across suite calls
    assert all(r.ok for r in cyc_ohno_cases())
    good = export.l_map_epoly
    monkeypatch.setattr(export, "l_map_epoly", lambda x: good(x) + EPoly.one())
    reports = [r for r in cyc_ohno_cases() if not r.case.endswith("m=0")]
    assert_all_fail_with_witness(reports, "cyc-Ohno fails")


def test_cyc_ohno_catches_a_wrong_shift_sum(monkeypatch):
    assert all(r.ok for r in cyc_ohno_cases())
    good = export._shift_sum
    monkeypatch.setattr(export, "_shift_sum", lambda k, l: good(k, l) + EPoly.one())
    assert_all_fail_with_witness(cyc_ohno_cases(), "cyc-Ohno fails")


#: Suite name -> a small run of it; every registered suite has one.
CLEAN_RUNS = {
    "double-shuffle": lambda: verify.suite_double_shuffle(M=40, max_weight=2),
    "log-formulas": lambda: verify.suite_log_formulas(order=3),
    "delta-factorization": delta_factorization_cases,
    "cor-delta": lambda: verify.suite_cor_delta(order=2, max_weight=2),
    "derivation": lambda: verify.suite_derivation(M=40, max_n=1, max_weight=2),
    "zn-stuffle": lambda: verify.suite_zn_stuffle(n_range=range(3, 5), max_weight=1),
    "zn-duality": zn_duality_cases,
    "ohno": ohno_cases,
    "ones-bar": lambda: verify.suite_ones_bar(n_range=range(2, 7)),
    "fmzv": lambda: verify.suite_fmzv(primes=(5, 7), max_weight=2),
    "varpi-l": lambda: verify.suite_varpi_l(primes=(7, 11), max_weight=2),
    "cyc-ohno": cyc_ohno_cases,
    "mzv-compare": lambda: verify.suite_mzv_compare(max_n=2, max_weight=2),
}


def test_unmutated_suites_pass():
    assert set(CLEAN_RUNS) == set(verify.SUITES)
    for name, run in CLEAN_RUNS.items():
        reports = run()
        assert reports and all(r.ok for r in reports), name
        assert {r.suite for r in reports} == {name}


def test_run_suite_all_takes_no_parameters():
    with pytest.raises(ValueError, match="defaults"):
        verify.run_suite("all", max_weight=1)


def test_verify_report_is_a_frozen_value():
    report = verify.VerifyReport("fmzv", "p=5", False, "lhs 1 != rhs 2", 1.5)
    assert_frozen_value(
        report,
        verify.VerifyReport(suite="fmzv", case="p=5", ok=False, witness="lhs 1 != rhs 2", ms=1.5),
        verify.VerifyReport("fmzv", "p=5", True, None, 1.5),
        "VerifyReport(suite='fmzv', case='p=5', ok=False, witness='lhs 1 != rhs 2', ms=1.5)",
        "witness",
    )
    assert report.line() == "[FAIL] fmzv: p=5 (1.5 ms)\n    witness: lhs 1 != rhs 2"


def test_suites_register_in_run_order():
    # verify all prints its cases in this order
    assert list(verify.SUITES) == [
        "double-shuffle", "log-formulas", "delta-factorization", "cor-delta", "derivation",
        "zn-stuffle", "zn-duality", "ohno", "ones-bar", "fmzv", "varpi-l", "cyc-ohno",
        "mzv-compare",
    ]
    # the benchmark's tracer rebinds a suite in both places, so they must agree
    for suite in verify.SUITES.values():
        assert getattr(verify, suite.__name__) is suite
