"""The benchmark's own check: all three workload shapes at L=16, both trace modes.

Runs ``run.py --smoke``, which checks the result schema against BENCHMARK.json
and that the correctness gate passes good artifacts and rejects altered ones.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
