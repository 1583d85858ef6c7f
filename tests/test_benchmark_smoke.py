"""Smoke test of the out-of-package benchmark: one-second runs of each workload.

Each case runs ``benchmark/run.py`` as its users do, from the repository
root, plain and traced, and checks that the run exits 0, that its gates pass
and that no operation fails.  A run also exits nonzero when a metric that
``BENCHMARK.json`` declares is missing from what ``run.py`` computes.  That
does not catch a traced function that was renamed or removed: its metrics
are still computed, and read 0.  No case asserts a timing or a metric's
value.  The plain ``verify`` run checks the case counts of all six checks at
2j <= 8, and the plain ``table`` run the CSV digests of all four routes on
one cell with 2j1 + 2j2 = 60.  The traced ``table`` and ``verify`` runs take
10-15 s each and are marked ``extended``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, trace",
    [
        ("coeff", 0),
        ("coeff", 1),
        ("verify", 0),
        ("table", 0),
        pytest.param("table", 1, marks=pytest.mark.extended),
        pytest.param("verify", 1, marks=pytest.mark.extended),
    ],
)
def test_benchmark_run_passes_its_gates(workload, trace):
    run = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
