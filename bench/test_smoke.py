"""The benchmark's smoke mode: every workload once on tiny inputs, untraced
and traced, with all of its output checks and no timing gates."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_runs_every_workload_with_its_checks():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("smoke ")]
    assert len(lines) == 6 and all(" ok " in ln for ln in lines), proc.stdout
    # Only trace-fit has an operation allowed to fail (the strict-JSON `stats`
    # call); the runner turns any other failure into a failed check.
    assert all("failed=0" in ln for ln in lines if "trace-fit" not in ln), proc.stdout
