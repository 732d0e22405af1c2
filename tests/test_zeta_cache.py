"""The bounded Z_q value cache of evalq: a cached value equals a fresh
evaluation, clearing the caches changes no output, the cache keeps at most
ZETA_CACHE_MAXSIZE values, a snapshot key never serves a stale value, and
the swapped double-shuffle pairs are served from it."""
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qharmonic import evalq, export, verify
from qharmonic.algebra import BAR1, EPoly, enumerate_indices_up_to
from qharmonic.coeff import Laurent
from qharmonic.errors import NotInH0, OutOfRange
from qharmonic.evalq import QValue, Zq_eval, zeta_q_partial

HALF = QValue(Fraction(1, 2))
Q_VALUES = [QValue(Fraction(n, d)) for n, d in ((1, 2), (2, 7), (5, 6))]

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)
laurents = st.dictionaries(st.integers(-3, 3), fractions, max_size=3).map(Laurent)
epolys = st.dictionaries(
    st.sampled_from(enumerate_indices_up_to(4, "Ihat0")), st.one_of(fractions, laurents), max_size=5
).map(EPoly)


def clear_evalq():
    """Empty every cache of evalq: its lru_caches and _zeta_cache."""
    for obj in vars(evalq).values():
        if hasattr(obj, "cache_clear") and obj.__module__ == evalq.__name__:
            obj.cache_clear()
    evalq._zeta_cache.clear()


def snapshot(cv):
    """Everything a CertifiedValue carries, the unreduced num/den included."""
    return cv.num, cv.den, cv.tail_bound, cv.truncation, str(cv)


def run_certified_routes():
    """The certified suites and a derivation export with each record
    re-verified, as case reports without their times and the export bytes."""
    reports = (verify.suite_double_shuffle(M=30, max_weight=2)
               + verify.suite_derivation(M=30, max_n=2, max_weight=2)
               + verify.suite_mzv_compare(max_weight=2))
    records = export.relation_records("derivation", 2, 2)
    reverified = [Zq_eval(export.record_combination(r), HALF, evalq.DEFAULT_M).certifies_zero()
                  for r in records]
    cases = [(r.suite, r.case, r.ok, r.witness) for r in reports]
    return cases, export.render_json(records), reverified


@pytest.fixture(autouse=True)
def cold_evalq():
    clear_evalq()
    yield
    clear_evalq()


@given(epolys, st.sampled_from(Q_VALUES), st.integers(1, 30))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cached_value_equals_a_fresh_one(x, q, M):
    cached = Zq_eval(x, q, M)
    assert Zq_eval(x, q, M) is cached
    clear_evalq()
    fresh = Zq_eval(x, q, M)
    assert fresh is not cached
    assert snapshot(cached) == snapshot(fresh)


def test_clearing_changes_no_output():
    cold = run_certified_routes()
    assert evalq._zeta_cache
    assert run_certified_routes() == cold  # warm: every Z_q value is a hit
    clear_evalq()
    assert run_certified_routes() == cold


def test_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(evalq, "ZETA_CACHE_MAXSIZE", 3)
    sizes = []
    for k in enumerate_indices_up_to(3, "Ihat0"):
        zeta_q_partial(k, HALF, 5)
        sizes.append(len(evalq._zeta_cache))
    assert max(sizes) == 3 and len(sizes) > 3


def test_least_recently_used_is_evicted(monkeypatch):
    monkeypatch.setattr(evalq, "ZETA_CACHE_MAXSIZE", 3)
    a, b, c, d = ((2,), (3,), (BAR1,), (2, 1))
    first = {k: zeta_q_partial(k, HALF, 5) for k in (a, b, c)}
    assert zeta_q_partial(a, HALF, 5) is first[a]  # a is now the most recent
    zeta_q_partial(d, HALF, 5)  # evicts b
    assert zeta_q_partial(a, HALF, 5) is first[a]
    assert zeta_q_partial(c, HALF, 5) is first[c]
    assert zeta_q_partial(b, HALF, 5) is not first[b]


@pytest.mark.parametrize(
    "x, M, error",
    [(EPoly({(1, 2): 1}), 10, NotInH0), (EPoly({(2,): 1, (1,): Laurent.h(1)}), 10, NotInH0),
     (EPoly.gen(2), 0, OutOfRange)],
)
def test_an_input_that_raises_is_not_cached(x, M, error):
    zeta_q_partial((2,), HALF, 10)
    before = dict(evalq._zeta_cache)
    for _ in range(2):
        with pytest.raises(error):
            Zq_eval(x, HALF, M)
    assert evalq._zeta_cache == before


def test_mutated_terms_give_no_stale_value():
    x = EPoly({(2,): 1})
    old = Zq_eval(x, HALF, 8)
    x.terms[(3,), 0] = Fraction(1, 3)  # against the convention, to test the key
    got = Zq_eval(x, HALF, 8)
    assert got is not old
    assert snapshot(got) == snapshot(Zq_eval(EPoly({(2,): 1, (3,): Fraction(1, 3)}), HALF, 8))
    del x.terms[(3,), 0]
    assert Zq_eval(x, HALF, 8) is old


def test_zeta_q_partial_shares_the_cache_of_Zq_eval():
    cv = zeta_q_partial((2, BAR1), HALF, 9)
    assert Zq_eval(EPoly({(2, BAR1): 1}), HALF, 9) is cv
    assert len(evalq._zeta_cache) == 1


def test_double_shuffle_serves_the_swapped_pairs_from_the_cache(monkeypatch):
    # (w, w') and (w', w) have the same stuffle product and the same residual
    lookups, evaluations = [], []
    good_eval, good_sum = evalq.Zq_eval, evalq._combined_partial_sum

    def recorder(x, q, M):
        lookups.append(frozenset(x.terms.items()))
        return good_eval(x, q, M)

    def counted(*args):
        evaluations.append(args)
        return good_sum(*args)

    for name, namespace in list(sys.modules.items()):
        if name.split(".")[0] == "qharmonic" and getattr(namespace, "Zq_eval", None) is good_eval:
            monkeypatch.setattr(namespace, "Zq_eval", recorder)
    monkeypatch.setattr(evalq, "_combined_partial_sum", counted)
    reports = verify.suite_double_shuffle(max_weight=2)
    assert all(r.ok for r in reports) and len(reports) == 25
    swapped = {(w1, w2) for (w1, w2), _ in export.double_shuffle_relations(2) if w1 != w2}
    assert len(evaluations) == len(set(lookups)) == len(evalq._zeta_cache)
    assert len(lookups) - len(evaluations) >= len(swapped)
