"""The benchmark harness still runs every workload at a tiny size."""

import subprocess
import sys

import pytest

from conftest import ROOT, perfbench_module


@pytest.fixture(scope="module")
def smoke():
    """One ``--smoke`` run, shared by the tests of this module."""
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_perfbench_smoke_runs(smoke):
    assert smoke.returncode == 0, smoke.stdout + smoke.stderr
    assert smoke.stdout.splitlines()[-1] == "smoke: ok"


def test_every_traced_layer_reads_time(smoke):
    # A refactor that stops calling a traced name leaves its layer at 0 on
    # every workload, which the tracer's name check alone does not see.
    # Metric lines read ``workload name value unit``.
    most: dict[str, float] = {}
    for line in smoke.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[1].endswith(".self_s"):
            most[fields[1]] = max(most.get(fields[1], 0.0), float(fields[2]))
    assert most, smoke.stdout
    assert [name for name, value in most.items() if not value > 0.0] == []


def test_tracer_finds_every_layer():
    # The tracer wraps cbdsim names by string and reports a missing one as
    # an absent layer, so a rename would otherwise go unnoticed.
    assert perfbench_module("tracer").Tracer().absent == []
