"""The names the benchmark's per-layer tracer reads from qharmonic exist.

perfbench/trace_layers.py looks up functions, class attributes, caches
and cache dicts of the package by name. A refactor that renames or drops
one of them would break every traced benchmark run, so this checks them
here, without installing the tracer.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_trace_layers", TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _layer(layer):
    return importlib.import_module(f"qharmonic.{layer}")


@pytest.mark.parametrize("target", sorted(tracer.CALL_COUNTS.values()))
def test_call_count_targets_are_wrapped_names(target):
    # the tracer keys a wrapper by "layer:name" for a public function of the
    # module, and by "layer:Class.attr" for a public method or arithmetic
    # dunder found in vars(Class)
    layer, _, qualname = target.partition(":")
    mod = _layer(layer)
    owner, _, name = qualname.rpartition(".")
    if owner:
        cls = vars(mod)[owner]
        assert isinstance(cls, type) and cls.__module__ == mod.__name__
        attr = vars(cls)[name]
        assert name in tracer.DUNDERS or not name.startswith("_")
    else:
        attr = vars(mod)[name]
        assert attr.__module__ == mod.__name__ and not name.startswith("_")
    assert callable(attr)


@pytest.mark.parametrize("target", sorted(tracer.HIT_RATIOS.values()))
def test_hit_ratio_targets_are_caches(target):
    layer, name = target
    info = getattr(_layer(layer), name).cache_info()
    assert info.hits >= 0 and info.misses >= 0


@pytest.mark.parametrize(
    "layer, name",
    [
        ("products", "_stuffle_cache"),
        ("products", "_shuffle_cache"),
        ("products", "_classical_cache"),
        ("evalq", "_zeta_cache"),
    ],
)
def test_cache_dicts_exist(layer, name):
    assert isinstance(getattr(_layer(layer), name), dict)
