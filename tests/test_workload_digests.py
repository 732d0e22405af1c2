"""Byte guard: every calculator and export step of the benchmark workloads
prints exactly the output whose sha256 perfbench/workloads.json records.

The benchmark checks the same digests, but only in its slow timed runs;
here an output change fails the test suite first. The file is only read.
"""
import hashlib
import json
from pathlib import Path

import pytest

from qharmonic.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


def digest_steps():
    sizes = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    for size, workloads in sizes.items():
        for workload, steps in workloads.items():
            for step in steps:
                if step["kind"] in ("calc", "export"):
                    yield pytest.param(step, id=f"{size}-{workload}-{' '.join(step['argv'])}")


@pytest.mark.parametrize("step", list(digest_steps()))
def test_output_digest(capsys, step):
    code = main(list(step["argv"]))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == step["sha256"]
