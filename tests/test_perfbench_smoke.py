"""The benchmark harness still runs every workload at a tiny size."""

import importlib.util
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


def test_tracer_finds_every_layer():
    # The tracer wraps cbdsim names by string and reports a missing one as
    # an absent layer, so a rename would otherwise go unnoticed.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().absent == []
