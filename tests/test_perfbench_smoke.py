"""A short run of the end-to-end benchmark in perfbench/, as its own
driver starts it: three processes over loopback TCP, whose client checks
every session's outputs against the fixed-point reference and its frame
bytes against the method's closed forms (GC_TABLES, OT_PAIRS, DA_MASKED,
GMW_DE). A change that breaks one of those checks fails here, in the
test suite, and not only in a benchmark run. The benchmark's
online_flights, which it counts on its own, must equal role 1's flights
as the program counts them (BENCHMARKED_FLIGHTS, which test_ml pins)."""

import json
import os
import subprocess
import sys

import pytest
from conftest import BENCHMARKED_FLIGHTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", sorted(BENCHMARKED_FLIGHTS))
def test_benchmark_runs_correct_and_without_failures(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["online_flights"]["value"] == BENCHMARKED_FLIGHTS[workload][1]
