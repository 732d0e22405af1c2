"""qharmonic benchmark: cold and warm passes of three exact-algebra workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload formal --seed 0 --seconds 35 --trace 0

Every pass runs in a child interpreter (perfbench/child.py) that imports
the checkout's ``src/qharmonic``; one child runs at a time. The first
pass in a child is cold (empty caches), the ones after it are warm.
The driver keeps starting children until ``--seconds`` have passed and
reports medians, in reference seconds (perfbench/speed.py). ``--trace 1`` alternates untraced children with traced
ones (perfbench/trace_layers.py) and reports per-layer counts and times
instead. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count output checks (exit codes, PASS
verdicts, case and record counts, export digests and round trips); the
ratio of the two is the fail ratio. See perfbench/README.md.
"""
import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = os.path.join(HERE, "workloads.json")

#: Import-only children started before the passes, for setup_s.
SETUP_CHILDREN = 15
#: Warm passes each child runs after its cold pass.
WARM_PASSES = 1
#: Fewest children with passes per run, whatever --seconds says.
MIN_PASS_CHILDREN = 3
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60
#: No child runs past this many seconds after a run starts.
RUN_LIMIT_S = 150

UNITS = {"calls": "count", "cases": "count", "cache_entries": "count",
         "zeta_cache_entries": "count", "hit_ratio": "ratio"}


class ChildFailed(Exception):
    pass


def load_steps(size, workload, seed):
    """The steps of one pass, in the order the seed gives them."""
    with open(WORKLOADS, encoding="utf-8") as fh:
        steps = json.load(fh)[size][workload]
    random.Random(seed).shuffle(steps)
    return steps


def spawn(root, plan, hash_seed, timeout):
    """Run one child; returns (set-up reference seconds, set-up wall seconds,
    the child's result dict)."""
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED=str(hash_seed % 2**32),
    )
    before = speed.calibrate()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD], input=json.dumps(plan), capture_output=True,
            text=True, env=env, cwd=root, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child killed after {timeout:.1f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    setup = result["ready"] - start
    return speed.to_reference(setup, before, result["ready_calibration"]), setup, result


class Run:
    """Children started so far in one benchmark run, and what they reported."""

    def __init__(self, root, steps, seed):
        self.root, self.steps, self.seed = root, steps, seed
        self.children = 0
        self.setup_ref = []
        self.setup_s = []
        self.attempted = 0
        self.failed = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def child(self, warm_passes=0, trace_out=None, steps=None):
        """Start one child; returns its result, or None if it failed."""
        plan = {"steps": self.steps if steps is None else steps, "warm_passes": warm_passes}
        if trace_out:
            plan.update(trace=True, trace_out=trace_out)
        self.children += 1
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.perf_counter())
        try:
            if timeout <= 0:
                raise ChildFailed(f"run limit of {RUN_LIMIT_S} s reached")
            setup_ref, setup_s, result = spawn(
                self.root, plan, self.seed * 1009 + self.children, timeout)
        except ChildFailed as exc:
            self.attempted += 1
            self.failed += 1
            print(exc, file=sys.stderr)
            return None
        self.setup_ref.append(setup_ref)
        self.setup_s.append(setup_s)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for miss in result["misses"]:
            print("check failed:", miss, file=sys.stderr)
        return result

    def prepare(self):
        """Compile bytecode once, untimed, then time import-only children."""
        self.child(steps=[])
        self.setup_ref.clear()
        self.setup_s.clear()
        for _ in range(SETUP_CHILDREN):
            self.child(steps=[])

    def until(self, seconds, one_round):
        """Call one_round() at least MIN_PASS_CHILDREN times, then while time is left."""
        start = time.perf_counter()
        rounds = 0
        longest = 0.0
        while rounds < MIN_PASS_CHILDREN or time.perf_counter() - start + longest <= seconds:
            t = time.perf_counter()
            one_round()
            longest = max(longest, time.perf_counter() - t)
            rounds += 1


def describe(name, values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{name}: {len(values)} samples, min {min(values):.4f}, quartiles "
            f"{q[0]:.4f} {q[1]:.4f} {q[2]:.4f}, max {max(values):.4f}")


def measure(root, steps, seed, seconds):
    """End-to-end metrics: medians of set-up, cold and warm times, and of RSS."""
    run = Run(root, steps, seed)
    run.prepare()
    cold, warm, rss = [], [], []
    cold_ref, warm_ref = [], []

    def one_round():
        res = run.child(warm_passes=WARM_PASSES)
        if res is not None:
            cold.append(res["cold_s"])
            cold_ref.append(res["cold_ref"])
            warm.extend(res["warm_s"])
            warm_ref.extend(res["warm_ref"])
            rss.append(res["peak_rss_mb"])

    run.until(seconds, one_round)
    if not cold:
        return run, None
    for name, values in (("setup_s", run.setup_ref), ("cold_s", cold_ref), ("warm_s", warm_ref),
                         ("setup wall s", run.setup_s), ("cold wall s", cold), ("warm wall s", warm)):
        print(describe(name, values))
    metrics = {
        "setup_s": (statistics.median(run.setup_ref), "s"),
        "cold_s": (statistics.median(cold_ref), "s"),
        "warm_s": (statistics.median(warm_ref), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return run, metrics


def trace_dir(root, workload):
    """Where traced runs of a workload write their spans."""
    return os.path.join(root, ".bench_build", "perfbench", workload)


def measure_traced(root, steps, seed, seconds, out_dir):
    """Per-layer metrics from traced cold passes, next to untraced ones.

    Times come from the traced pass with the median reference time, so
    that its layer self times and unattributed time add up to its pass
    time; they are scaled from wall to reference seconds by that pass's
    own ratio. Counts must repeat exactly in every traced pass.
    """
    run = Run(root, steps, seed)
    run.prepare()
    plain, traced = [], []
    trace_out = os.path.join(out_dir, f"trace-seed{seed}.json")

    def one_round():
        res = run.child()
        if res is not None:
            plain.append(res["cold_ref"])
        res = run.child(trace_out=trace_out)
        if res is not None:
            traced.append(res)

    run.until(seconds, one_round)
    if not plain or not traced:
        return run, None
    middle = sorted(traced, key=lambda res: res["cold_ref"])[(len(traced) - 1) // 2]
    scale = middle["cold_ref"] / middle["cold_s"]
    metrics = {}
    for name, value in middle["layers"].items():
        if name.endswith("_s"):
            metrics[name] = (value * scale, "s")
            continue
        run.attempted += 1
        values = [res["layers"][name] for res in traced]
        if len(set(values)) != 1:
            run.failed += 1
            print(f"check failed: {name} differs between traced passes: {values}", file=sys.stderr)
        metrics[name] = (value, UNITS[name.rsplit(".", 1)[-1]])
    metrics["trace.overhead_s"] = (middle["cold_ref"] - statistics.median(plain), "s")
    print(describe("untraced cold_s", plain))
    print(describe("traced cold_s", [res["cold_ref"] for res in traced]))
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; spans in {trace_out}")
    return run, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("formal", "cyclotomic", "certified"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qharmonic", "cli.py")):
        print("error: run from the root of a qharmonic checkout (src/qharmonic missing)",
              file=sys.stderr)
        return 2
    steps = load_steps("full", args.workload, args.seed)
    if args.trace:
        run, metrics = measure_traced(root, steps, args.seed, args.seconds,
                                      trace_dir(root, args.workload))
    else:
        run, metrics = measure(root, steps, args.seed, args.seconds)
    if metrics is None:
        print("error: no child finished a pass", file=sys.stderr)
        return 1
    fail_ratio = run.failed / run.attempted
    print(f"{args.workload} seed {args.seed}: fail_ratio {fail_ratio} "
          f"({run.failed} of {run.attempted} checks failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
