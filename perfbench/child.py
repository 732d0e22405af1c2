"""One benchmark child: a fresh interpreter that runs a workload's passes.

The driver (run.py) starts this script with the checkout's ``src`` on
PYTHONPATH, writes the plan as JSON on stdin and reads one JSON object
from the last line of stdout. The plan lists the steps of one pass; the
child runs the pass once cold, then ``warm_passes`` more times in the
same process, and checks every output against the expected values the
plan carries.

The first thing the child does is import ``qharmonic.cli``; it reports
the ``time.perf_counter()`` reading taken right after that import, so
the driver can subtract its own reading taken just before the spawn
(both read CLOCK_MONOTONIC) and obtain the set-up time of a fresh
``qsh`` process. Every interval is also reported in reference seconds
(see speed.py), from calibrations taken around it.
"""
import time

import qharmonic.cli  # the import that setup_s measures

READY = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from qharmonic import algebra, cyclo, evalq, export  # noqa: E402

import speed  # noqa: E402  (perfbench/ is sys.path[0])

SUMMARY = re.compile(r"^\S+: (\d+)/(\d+) cases verified$")


class Checks:
    """Counts attempted and failed output checks, keeping the first misses."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)


def run_cli(argv):
    """qsh main(argv) with stdout captured; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = qharmonic.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def step_verify(step, checks):
    """A ``qsh verify`` command: exit 0, every case PASS, N/N with the expected N."""
    code, text = run_cli(step["argv"])
    name = " ".join(step["argv"])
    checks.check(code == 0, f"{name}: exit code {code}")
    lines = text.splitlines()
    case_lines = [ln for ln in lines if ln.startswith("[")]
    passed = sum(ln.startswith("[PASS] ") for ln in case_lines)
    checks.check(passed == len(case_lines), f"{name}: {len(case_lines) - passed} cases not PASS")
    m = SUMMARY.match(lines[-1]) if lines else None
    want = step["cases"]
    checks.check(
        m is not None and int(m.group(1)) == int(m.group(2)) == want == len(case_lines),
        f"{name}: summary {lines[-1] if lines else ''!r}, expected {want}/{want}",
    )
    return len(case_lines)


def run_digest(step, checks):
    """Run a command whose whole stdout has a recorded sha256; returns stdout."""
    code, text = run_cli(step["argv"])
    name = " ".join(step["argv"])
    checks.check(code == 0, f"{name}: exit code {code}")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    checks.check(digest == step["sha256"], f"{name}: sha256 {digest}")
    return text


def _reverify(kind, rec):
    comb = export.record_combination(rec)
    if kind == "derivation":
        cv = evalq.Zq_eval(comb, evalq.QValue(evalq.DEFAULT_Q), evalq.DEFAULT_M)
        return abs(cv.value) <= cv.tail_bound
    return cyclo.zn_map(comb, rec["n"]).is_zero()


def step_export(step, checks):
    """A ``qsh export`` command: digest, record count, byte round trip, re-verification."""
    text = run_digest(step, checks)
    name = " ".join(step["argv"])
    try:
        records = export.parse_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        checks.check(False, f"{name}: parse failed: {exc}")
        return 0
    checks.check(len(records) == step["records"], f"{name}: {len(records)} records")
    checks.check(export.render_json(records) == text, f"{name}: render(parse(text)) != text")
    kind = step["argv"][step["argv"].index("--kind") + 1]
    for rec in records:
        checks.check(
            rec["verified"] is True and _reverify(kind, rec),
            f"{name}: record n={rec['n']} word={rec['word']} does not re-verify",
        )
    return 0


def step_calc(step, checks):
    """A ``qsh`` calculator command: exit 0 and stdout equal to the recorded digest."""
    run_digest(step, checks)
    return 0


def step_roundtrip(step, checks):
    """word_to_e(e_to_word(e_k)) == e_k for every k in Ihat up to a weight."""
    count = 0
    for k in algebra.enumerate_indices_up_to(step["max_weight"], "Ihat"):
        x = algebra.EPoly({k: 1})
        count += algebra.word_to_e(algebra.e_to_word(x)) == x
    checks.check(count == step["count"], f"round trips: {count} of {step['count']} hold")
    return 0


STEPS = {
    "verify": step_verify,
    "export": step_export,
    "calc": step_calc,
    "roundtrip": step_roundtrip,
}


def step_label(step):
    return " ".join(step["argv"]) if "argv" in step else step["kind"]


def run_pass(steps, checks, span=contextlib.nullcontext):
    """One full pass, with a speed calibration before and after each step.

    Returns (wall seconds, reference seconds, verification cases run);
    the calibrations themselves are not part of the pass time.
    """
    cases = 0
    wall = ref = 0.0
    before = speed.calibrate()
    for step in steps:
        with span(step_label(step)):
            t0 = time.perf_counter()
            cases += STEPS[step["kind"]](step, checks)
            elapsed = time.perf_counter() - t0
        after = speed.calibrate()
        wall += elapsed
        ref += speed.to_reference(elapsed, before, after)
        before = after
    return wall, ref, cases


def main():
    ready_calibration = speed.calibrate()
    plan = json.load(sys.stdin)
    tracer = None
    if plan.get("trace"):
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    checks = Checks()
    span = tracer.span if tracer is not None else contextlib.nullcontext
    cold_s, cold_ref, cases = run_pass(plan["steps"], checks, span)
    warm = [run_pass(plan["steps"], checks) for _ in range(plan["warm_passes"])]
    result = {
        "ready": READY,
        "ready_calibration": ready_calibration,
        "cold_s": cold_s,
        "cold_ref": cold_ref,
        "warm_s": [w[0] for w in warm],
        "warm_ref": [w[1] for w in warm],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "misses": checks.misses,
    }
    if tracer is not None:
        result["layers"] = tracer.report(cold_s, cases)
        tracer.write(plan["trace_out"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
