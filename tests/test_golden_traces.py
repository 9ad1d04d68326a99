"""Bit-identity pins: SHA-256 of the files ``cbdsim run`` writes.

Each case runs a bundled model through the command line in one mode and
hashes the trace (CSV and JSON) and the impulse log it writes.  A change
to the evaluator or to the writers that alters one bit of a value, of the
time grid or of the file layout fails here.  The ball runs past its second
contact, so both located events and their impulses are covered.  The
benchmark's workloads are pinned the same way: one operation of each at
its smoke size and seed 1, hashing every trace file it writes.
"""

import hashlib
import importlib.util
import pathlib
import sys
import time

import pytest

from cbdsim import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

CASES = {
    # (model file, top, step, end)
    "ball": ("bouncing_ball.cbd", "Main", "1e-3", "4.5"),
    "chain": ("step_chain.cbd", "Chain", "0.01", "1"),
}

GOLDEN = {
    ("ball", "numerical"): {
        "trace.csv": "03e7814b614fc3af54e67626f1eb5f96e46d4e58b90b3387f1555c3e2db43d44",
        "trace.json": "a4d8b5f7597e69b2f947a386e562bac46946330e612b3893d25934f3f97af382",
        "impulses.csv": "f1f3ee27da8699134d36aa2c1f32de734746229a42bd25e48259071b6c37654b",
    },
    ("ball", "symbolic"): {
        "trace.csv": "7acc6cef235458249632b0e1c43e08e3cc5f00a1c6957c2c00550d55657ad017",
        "trace.json": "233ab4dce08ff44a967e095a817539cc831d0904037778823bad247c4a40be0e",
        "impulses.csv": "bdf915e322d73e1110c6ccb10584a099bd3497cd4a0778a786fc97f9e14f5e90",
    },
    ("chain", "numerical"): {
        "trace.csv": "6c073238cb3f56cac84be3b1434c3a93862596ec5f446d2b9b454b4b72394040",
        "trace.json": "0e7740be41aa17f7c2eb5bf4b5f08a2c5fe3352769af2c8d844120988f056bba",
        "impulses.csv": "f1f3ee27da8699134d36aa2c1f32de734746229a42bd25e48259071b6c37654b",
    },
    ("chain", "symbolic"): {
        "trace.csv": "981648d9e4410fe22b222fc2ccdbe1deb1733cccb2a25036c16ea2237cdde16b",
        "trace.json": "b775c9445d17d27d10e8dfdc2c1c4ecf0945df7bee0599ed07e1dde00d438a05",
        "impulses.csv": "cbcbcac11319485b830911fb42d91b0e0c246ba3a1aa8ecd8a8cd07b2aa685eb",
    },
}


def _run(model, mode, fmt, out_dir, capsys):
    path, top, step, end = CASES[model]
    out = out_dir / f"trace.{fmt}"
    impulses = out_dir / f"impulses.{fmt}"
    code = cli.main([
        "run", str(MODELS / path), "--top", top, "--mode", mode,
        "--step", step, "--end", end,
        "--out", str(out), "--impulses", str(impulses),
    ])
    capsys.readouterr()
    assert code == 0
    return out, impulses


@pytest.mark.parametrize("model, mode", sorted(GOLDEN))
def test_written_files_are_pinned(model, mode, tmp_path, capsys):
    written = {}
    for fmt in ("csv", "json"):
        out, impulses = _run(model, mode, fmt, tmp_path, capsys)
        written[f"trace.{fmt}"] = out
        if fmt == "csv":
            written["impulses.csv"] = impulses
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in written.items()}
    assert digests == GOLDEN[(model, mode)]


WORKLOAD_GOLDEN = {
    "ball_verify": {
        "symbolic.csv": "ad5a55c3624bbf808562f109fe49ee97c8ffd25ae755abbece3f9cb2103879b3",
        "numerical.csv": "41eef1d5fde63a945638bfcd41ba040a2475cc427398301fa3b3b026e083d800",
        "symbolic_impulses.csv": "a13cf17bb0d74a614447e15f1203384b0409f63a863902edde54484eec0a1979",
        "numerical_impulses.csv": "f1f3ee27da8699134d36aa2c1f32de734746229a42bd25e48259071b6c37654b",
    },
    "chain200": {
        "chain.csv": "ca94ca97cb7cd802eae86e2c5f24441aa5a0230c005cd8d153960832f91a48ab",
    },
    "loop40": {
        "loop.csv": "d3a1849c88e5efa5dc3d91f27ece9e916372b3375bb35f310deb22715fc7b986",
    },
    "switch_dense": {
        "numerical.csv": "052ee0114cd87568adfefb3cde25a68129a815462363ddeb7d5f0895c69b4d7a",
    },
}


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "workloads.py")
        # dataclasses looks the defining module up in sys.modules.
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("name", sorted(WORKLOAD_GOLDEN))
def test_workload_trace_files_are_pinned(name, tmp_path):
    workload = _workloads().WORKLOADS[name](ROOT, 1, True)
    result = workload.operation(tmp_path, time.perf_counter)
    assert workload.check(result) == []
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in result.trace_files + result.impulse_files}
    assert digests == WORKLOAD_GOLDEN[name]
