"""The benchmark's smoke mode runs every workload at a tiny scale, with the
fingerprint and output checks; it must keep passing so the script does not
rot. No timing is asserted."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    result = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--smoke"], cwd=_ROOT,
        capture_output=True, text=True, timeout=900)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert "smoke OK" in result.stdout
