"""Runs of the demonstration scripts, from the repo root as documented.

Each runs with RuntimeWarnings as errors, as the in-process tests do, and
its stdout is compared with its file in the report corpus
(conftest.compare_report).
"""
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import compare_report

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/stationarity_experiment.py", "--n-series", "6", "--n-steps", "400"],
    ["scripts/q_band_experiment.py", "--n-series", "10", "--n-steps", "400",
     "--t1", "50", "--t2", "50", "--replicas", "30"],
])
def test_script_runs(argv, request):
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *argv], cwd=ROOT,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    compare_report(proc.stdout, f"script_{Path(argv[0]).stem}.txt", request)
