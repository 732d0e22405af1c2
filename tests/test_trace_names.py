"""The benchmark's per-layer tracer works on qharmonic.

perfbench/trace_layers.py looks up functions, class attributes, caches
and cache dicts of the package by name. A refactor that renames or drops
one of them would break every traced benchmark run, so this checks them
here, without installing the tracer. The tracer also rebinds every public
function to a wrapper, so code that keys on a function's identity can
fail only when traced: a subprocess runs qsh commands under the tracer and
compares them with untraced runs.
"""
import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qharmonic import cli

ROOT = Path(__file__).resolve().parents[1]
TRACE_LAYERS = ROOT / "perfbench" / "trace_layers.py"
WORKLOADS = ROOT / "perfbench" / "workloads.json"


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


#: The tiny benchmark commands, and three more that reach Psi_X, Delta_X and
#: both logarithms.
TRACED_ARGVS = [
    step["argv"]
    for steps in json.loads(WORKLOADS.read_text(encoding="utf-8"))["tiny"].values()
    for step in steps
    if "argv" in step
] + [
    ["series", "psi", "2,1", "--order", "4"],
    ["series", "delta", "2,1", "--order", "3"],
    ["verify", "log-formulas", "--order", "3"],
]

#: Run in a fresh interpreter: install the tracer, run every command twice
#: (cold, then warm) and print the exit codes, the outputs and the tracer's
#: report as JSON.
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("trace_layers", sys.argv[1])
trace_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace_layers)
from qharmonic import cli

tracer = trace_layers.Tracer()
tracer.install()
runs = []
for _ in range(2):
    for argv in json.loads(sys.argv[2]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            runs.append([cli.main(argv)])
        runs[-1].append(buf.getvalue())
print(json.dumps({"runs": runs, "report": tracer.report(0.0, 0)}))
"""


def _strip_ms(run):
    code, out = run
    return [code, re.sub(r" \(\d+\.\d ms\)$", "", out, flags=re.M)]


def _untraced(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return _strip_ms([code, buf.getvalue()])


def test_traced_commands_match_untraced():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACE_LAYERS), json.dumps(TRACED_ARGVS)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    want = [_untraced(argv) for argv in TRACED_ARGVS]
    assert all(code == 0 for code, _ in want)
    assert [_strip_ms(run) for run in traced["runs"]] == want + want
    assert traced["report"]["derivations.calls"] > 0
