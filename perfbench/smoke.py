"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout (about a minute on two cores):

    python3 perfbench/smoke.py

It measures every workload of BENCHMARK.json at the tiny size of
workloads.json, untraced and traced, through run.measure() and
run.measure_traced(), and asserts that each run is correct and reports
exactly the metrics BENCHMARK.json names, with their units. It then corrupts an
expected export digest and an expected case count and asserts that the
fail ratio rises above 0. It is a script, not a pytest module, so the
repository's test suite does not collect it.
"""
import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def check_metrics(spec):
    root = os.getcwd()
    for workload in (w["name"] for w in spec["workloads"]):
        steps = run.load_steps("tiny", workload, 3)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            if trace:
                result, metrics = run.measure_traced(
                    root, steps, 3, 0, run.trace_dir(root, workload))
            else:
                result, metrics = run.measure(root, steps, 3, 0)
            assert metrics is not None and result.failed == 0, (workload, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: unit for name, (_, unit) in metrics.items()}
            assert got == want, f"{workload} trace={trace}: {sorted(set(got) ^ set(want))}"
            for name, (value, _) in metrics.items():
                assert isinstance(value, (int, float)), (name, value)
            print(f"{workload} trace={trace}: {len(got)} metrics, {result.attempted} checks")


def fail_ratio(steps):
    result, _ = run.measure(os.getcwd(), steps, seed=0, seconds=0)
    return result.failed / result.attempted


def check_corruption():
    steps = run.load_steps("tiny", "cyclotomic", 0)
    bad_digest = copy.deepcopy(steps)
    next(s for s in bad_digest if s["kind"] == "export")["sha256"] = "0" * 64
    bad_count = copy.deepcopy(steps)
    next(s for s in bad_count if s["kind"] == "verify")["cases"] += 1
    for label, bad in (("export digest", bad_digest), ("case count", bad_count)):
        ratio = fail_ratio(bad)
        assert ratio > 0, f"a corrupted {label} left the fail ratio at 0"
        print(f"corrupted {label}: fail ratio {ratio:.4f}")
    assert fail_ratio(steps) == 0


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_corruption()
    print("smoke: ok")


if __name__ == "__main__":
    main()
