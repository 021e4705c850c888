"""Smoke test of the benchmark harness in bench/.

One traced round of the `scan` workload must come back correct with no
failed operation and with local-sign calls counted, so a rename that the
tracer's wrapping no longer finds fails here rather than in a benchmark
run.  The harness's own unit tests (stdlib unittest, run from bench/) run
too.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_one_traced_scan_round_is_correct():
    r = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "scan",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout.splitlines()[-1])
    assert doc["correct"] is True
    assert doc["failed"] == 0
    assert doc["metrics"]["local_signs.w_star.calls"]["value"] > 0


def test_bench_reference_checks():
    r = subprocess.run(
        [sys.executable, "-m", "unittest", "test_reference"],
        cwd=BENCH, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
