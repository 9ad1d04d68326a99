"""The benchmark harness still runs every workload at a tiny size."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_smoke_runs():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "smoke: ok"
