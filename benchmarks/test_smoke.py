"""Smoke test of the benchmark itself: ``python -m pytest benchmarks``.

Runs every workload once in each mode at tiny sizes; ``run.py --smoke``
fails unless every metric of BENCHMARK.json is printed with its unit and no
operation failed.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_every_workload_both_modes():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
