"""Mutation tests: a suite fed one wrong coefficient must report FAIL."""
from qharmonic import verify
from qharmonic.algebra import EPoly, index_sort_key


def bump_one_coefficient(x: EPoly) -> EPoly:
    """x with 1 added to the coefficient of its smallest index."""
    k = min(x.terms, key=index_sort_key)
    return x + EPoly({k: 1})


def assert_all_fail_with_witness(reports, needle):
    assert reports
    for r in reports:
        assert not r.ok, r.case
        assert needle in r.witness, r.witness
        assert "witness:" in r.line()


def test_derivation_catches_a_wrong_partial_n(monkeypatch):
    good = verify.partial_n_e
    monkeypatch.setattr(verify, "partial_n_e", lambda n, x: bump_one_coefficient(good(n, x)))
    reports = verify.suite_derivation(M=40, max_n=1, max_weight=2)
    assert_all_fail_with_witness(reports, "Z_q(partial_1")


def test_double_shuffle_catches_a_wrong_stuffle(monkeypatch):
    good = verify.stuffle_q
    monkeypatch.setattr(verify, "stuffle_q", lambda x, y: bump_one_coefficient(good(x, y)))
    reports = verify.suite_double_shuffle(M=40, max_weight=2)
    assert_all_fail_with_witness(reports, "double-shuffle residual")


def test_unmutated_suites_pass():
    for reports in (
        verify.suite_derivation(M=40, max_n=1, max_weight=2),
        verify.suite_double_shuffle(M=40, max_weight=2),
    ):
        assert reports and all(r.ok for r in reports)
