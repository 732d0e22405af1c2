"""Per-layer tracing of qharmonic from outside the package.

``Tracer.install()`` wraps every public function of the ten layer
modules, and the arithmetic dunders and public methods of the classes
they define, with a timer. Because the modules import each other's
functions by name (``from .products import stuffle_q``), each wrapper is
rebound in every ``qharmonic*`` module namespace, and in module-level
dicts such as ``verify.SUITES``, that holds the original.

Each wrapped call is charged to the layer of the module that defines the
function. A layer's self time is the time spent inside its wrapped calls
minus the time covered by wrapped calls nested in them, so the ten self
times plus the time spent outside every wrapped call add up to the pass
time. Calls near the top of the call tree (``SPAN_DEPTH``) are kept as
spans in memory and written out by ``write()``; deeper calls are only
aggregated per function.
"""
import contextlib
import functools
import importlib
import json
import os
import sys
from enum import Enum
from time import perf_counter

LAYERS = (
    "coeff", "algebra", "products", "series", "derivations",
    "evalq", "cyclo", "verify", "export", "cli",
)

#: Arithmetic dunders wrapped on every class a layer defines. Equality,
#: hashing and construction are left alone: they run inside dict and set
#: operations far more often than they do algebra.
DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__divmod__", "__mod__", "__truediv__",
})

#: Calls at this depth or shallower are recorded as spans; depth 1 is the
#: benchmark's own step span, depth 2 the first call into a layer.
SPAN_DEPTH = 3

#: Per-layer metric name -> wrapped function whose call count it reports.
CALL_COUNTS = {
    "coeff.laurent_mul.calls": "coeff:Laurent.__mul__",
    "coeff.laurent_add.calls": "coeff:Laurent.__add__",
    "coeff.unipoly_divmod.calls": "coeff:UniPoly.__divmod__",
    "coeff.modpoly_mul.calls": "coeff:ModPoly.__mul__",
    "algebra.word_to_e.calls": "algebra:word_to_e",
    "products.stuffle_q.calls": "products:stuffle_q",
    "products.shuffle_q.calls": "products:shuffle_q",
    "series.ts_mul.calls": "series:ts_mul",
    "derivations.delta_x.calls": "derivations:Delta_X",
    "cyclo.zn_map.calls": "cyclo:zn_map",
}

#: Per-layer metric name -> (module, functools.lru_cache function).
HIT_RATIOS = {
    "algebra.word_to_e_single.hit_ratio": ("algebra", "_word_to_e_single"),
    "evalq.suffix_numerators.hit_ratio": ("evalq", "_suffix_numerators"),
    "cyclo.zn_cum.hit_ratio": ("cyclo", "_zn_cum"),
}


def _module(layer):
    return importlib.import_module(f"qharmonic.{layer}")


class Tracer:
    def __init__(self):
        self.calls = {}  # "layer:qualname" -> count
        self.total = {}  # "layer:qualname" -> seconds inside
        self.self_time = {}  # "layer:qualname" -> seconds inside, minus nested calls
        self.spans = []  # [name, parent span id, start, end]
        self._stack = [[0.0, -1]]  # per open call: [nested time, span id]
        self._wrappers = {}  # id(original) -> wrapper
        self._t0 = perf_counter()

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key):
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known
        calls, total, self_time, spans, stack = (
            self.calls, self.total, self.self_time, self.spans, self._stack)
        calls[key] = 0
        total[key] = self_time[key] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = -1
            if len(stack) <= SPAN_DEPTH:
                span = len(spans)
                spans.append([key, stack[-1][1], 0.0, 0.0])
            frame = [0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[key] += 1
                total[key] += elapsed
                self_time[key] += elapsed - frame[0]
                if span >= 0:
                    spans[span][2:] = [start, start + elapsed]

        self._wrappers[id(fn)] = wrapper
        return wrapper

    @contextlib.contextmanager
    def span(self, key):
        """A span around one benchmark step; its self time is unattributed."""
        stack, spans = self._stack, self.spans
        span = len(spans)
        spans.append([key, stack[-1][1], 0.0, 0.0])
        stack.append([0.0, span])
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            stack[-1][0] += elapsed
            spans[span][2:] = [start, start + elapsed]

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name not in DUNDERS and name.startswith("_"):
                continue
            key = f"{layer}:{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, key)))
            elif callable(attr) and not isinstance(attr, type):
                setattr(cls, name, self._wrap(attr, key))

    def install(self):
        """Wrap the ten layers and rebind the wrappers across the package."""
        for layer in LAYERS:
            mod = _module(layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, (Enum, BaseException)):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    self._wrap(obj, f"{layer}:{name}")
        for name, mod in list(sys.modules.items()):
            if name == "qharmonic" or name.startswith("qharmonic."):
                self._rebind(vars(mod))

    def _rebind(self, namespace):
        for name, obj in list(namespace.items()):
            if isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if id(v) in self._wrappers and not isinstance(v, type):
                        obj[k] = self._wrappers[id(v)]
            elif id(obj) in self._wrappers:
                namespace[name] = self._wrappers[id(obj)]

    # --- reading ------------------------------------------------------------

    def report(self, pass_s, cases):
        """Per-layer metrics for a traced pass of pass_s seconds."""
        out = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k.startswith(layer + ":")]
            out[f"{layer}.calls"] = sum(self.calls[k] for k in keys)
            out[f"{layer}.self_s"] = sum(self.self_time[k] for k in keys)
        out["trace.unattributed_s"] = pass_s - sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["trace.pass_s"] = pass_s
        for metric, key in CALL_COUNTS.items():
            out[metric] = self.calls[key]
        for metric, (layer, name) in HIT_RATIOS.items():
            info = getattr(_module(layer), name).cache_info()
            lookups = info.hits + info.misses
            out[metric] = info.hits / lookups if lookups else 0.0
        products, evalq = _module("products"), _module("evalq")
        out["products.cache_entries"] = (
            len(products._stuffle_cache) + len(products._shuffle_cache)
            + len(products._classical_cache)
        )
        out["evalq.zeta_cache_entries"] = len(evalq._zeta_cache)
        out["verify.cases"] = cases
        return out

    def write(self, path):
        """Write the spans and the per-function totals as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        functions = {
            key: {"calls": self.calls[key], "total_s": self.total[key],
                  "self_s": self.self_time[key]}
            for key in sorted(self.calls) if self.calls[key]
        }
        spans = [[i, parent, key, start - self._t0, end - self._t0]
                 for i, (key, parent, start, end) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"span_fields": ["id", "parent", "function", "start_s", "end_s"],
                       "spans": spans, "functions": functions}, fh)
