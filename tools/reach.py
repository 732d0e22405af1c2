"""List the functions of src/qharmonic that no qsh traffic enters.

Run from anywhere, with the standard library only:

    python3 tools/reach.py

One process runs, under sys.setprofile:
- every argv of perfbench/workloads.json (both sizes), through the
  benchmark child's own steps, so an export is also parsed, re-rendered
  and re-verified and a round trip step runs word_to_e(e_to_word(e_k));
- every `qsh ...` command the README shows, in a code block or inline,
  each exported file written in a temporary directory;
- `qsh verify all`, and both export kinds in JSON and in CSV.

Every function, method and nested function defined in src/qharmonic
that was never entered is printed as `module.py:line qualified.name`,
followed by a count. A name on this list is reached by tests at most.
Then, after the same traffic, every functools.lru_cache defined at
module level in src/qharmonic is printed with its hits, misses, size and
bound (its maxsize), and every memo dict (a module-level dict named
`_*_cache`) with its size and bound: the module constant `*_CACHE_MAXSIZE`
named after it (`ZETA_CACHE_MAXSIZE` for `_zeta_cache`). An unbounded
cache shows the bound `none`. The counts are for one pass over the
traffic; the benchmark's warm passes repeat theirs, so a cache with few
hits here can still pay.
`qsh --profile` installs its own profiler, so the hook is put back after
each command.
"""
import ast
import contextlib
import importlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qharmonic"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

EXTRA_ARGVS = [
    ["verify", "all"],
    ["export", "--kind", "derivation"],
    ["export", "--kind", "derivation", "--format", "csv"],
    ["export", "--kind", "ohno"],
    ["export", "--kind", "ohno", "--format", "csv"],
]

_entered = set()


def _hook(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)


def definitions():
    """{(file, first line of the code object): (module.py, def line, qualified name)}."""
    out = {}
    for path in sorted(SRC.glob("*.py")):

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    name = prefix + child.name
                    out[str(path), first] = (path.name, child.lineno, name)
                    walk(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return out


def readme_argvs():
    """The argv of every qsh command in the README, code blocks and inline."""
    text = (ROOT / "README.md").read_text()
    found = re.findall(r"^qsh (.*?)(?:\s+#.*)?$", text, re.M)
    found += re.findall(r"`qsh ([^`]*)`", text)
    return [shlex.split(line) for line in dict.fromkeys(found)]


def caches():
    """Rows (name, hits, misses, size, bound) for each module-level lru_cache
    and memo dict of src/qharmonic; a memo dict has no hit count."""
    rows = []
    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module(f"qharmonic.{path.stem}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                info = obj.cache_info()
                bound = "none" if info.maxsize is None else info.maxsize
                rows.append((f"{path.stem}.{name}", info.hits, info.misses, info.currsize, bound))
            elif isinstance(obj, dict) and name.startswith("_") and name.endswith("_cache"):
                bound = getattr(mod, f"{name[1:].upper()}_MAXSIZE", "none")
                rows.append((f"{path.stem}.{name}", "-", "-", len(obj), bound))
    return rows


def run(argv):
    """qsh main(argv) with its output dropped, in the hook."""
    import qharmonic.cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            qharmonic.cli.main(argv)
        except SystemExit:  # argparse usage errors, shown in the README on purpose
            pass
    sys.setprofile(_hook)


def main():
    defs = definitions()
    sys.setprofile(_hook)
    import child  # perfbench/child.py: imports qharmonic.cli

    plan = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    checks = child.Checks()
    for size in plan.values():
        for steps in size.values():
            for step in steps:
                child.STEPS[step["kind"]](step, checks)
                sys.setprofile(_hook)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in readme_argvs() + EXTRA_ARGVS:
                run(argv)
        finally:
            os.chdir(cwd)
    sys.setprofile(None)
    reached = {(code.co_filename, code.co_firstlineno) for code in _entered}
    missed = sorted(v for k, v in defs.items() if k not in reached)
    for module, line, name in missed:
        print(f"{module}:{line} {name}")
    print(f"{len(missed)} of {len(defs)} functions in src/qharmonic never entered")
    print()
    print(f"{'cache':<36} {'hits':>8} {'misses':>8} {'size':>8} {'bound':>8}")
    for row in caches():
        print(f"{row[0]:<36} {row[1]:>8} {row[2]:>8} {row[3]:>8} {row[4]:>8}")
    if checks.failed:
        print(f"{checks.failed} benchmark output checks failed: {checks.misses}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
