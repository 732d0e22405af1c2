"""The bounded caches of the Ohno combinatorics: cached values are shared
and never mutated, clearing a cache changes no output, and every cache
has a bound."""
import sys

import pytest

from qharmonic import derivations, export, products, verify
from qharmonic.derivations import A_ksp

CACHES = [
    (derivations, "_dual_shift_sum"),
    (derivations, "_ohno_rhs"),
    (derivations, "_A_ksp"),
    (products, "l_map"),
]


def run_ohno_routes():
    """The Ohno, cyc-Ohno and Ohno export routes: the case reports without
    their times, and the export bytes."""
    reports = verify.suite_ohno(n_range=range(4, 6)) + verify.suite_cyc_ohno()
    text = export.render_json(export.ohno_records(6, 3))
    return [(r.suite, r.case, r.ok, r.witness) for r in reports], text


def clear_all():
    for mod, name in CACHES:
        getattr(mod, name).cache_clear()


def test_cached_values_equal_fresh_calls(monkeypatch):
    # Record every argument tuple that reaches a cache, through each
    # qharmonic namespace that binds it, then compare each cached value
    # with a fresh call of the uncached function.
    clear_all()
    seen = {}
    for mod, name in CACHES:
        cached = getattr(mod, name)
        args_seen = seen[name] = set()

        def recorder(*args, cached=cached, args_seen=args_seen):
            args_seen.add(args)
            return cached(*args)

        for mod_name, namespace in list(sys.modules.items()):
            if mod_name.split(".")[0] == "qharmonic" and getattr(namespace, name, None) is cached:
                monkeypatch.setattr(namespace, name, recorder)
    run_ohno_routes()
    monkeypatch.undo()
    for mod, name in CACHES:
        cached = getattr(mod, name)
        assert len(seen[name]) == cached.cache_info().currsize > 0, name
        for args in seen[name]:
            assert cached(*args) == cached.__wrapped__(*args), (name, args)


def test_clearing_changes_no_output():
    first = run_ohno_routes()
    clear_all()
    assert run_ohno_routes() == first


@pytest.mark.parametrize("mod, name", CACHES, ids=[name for _, name in CACHES])
def test_cache_is_bounded(mod, name):
    assert getattr(mod, name).cache_parameters()["maxsize"] is not None


def test_A_ksp_takes_a_list_index():
    got = A_ksp([2, 1], 1, 1)
    assert not got.is_zero()
    assert got == A_ksp((2, 1), 1, 1)
