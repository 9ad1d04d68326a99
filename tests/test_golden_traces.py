"""Bit-identity pins: SHA-256 of the files ``cbdsim run`` writes.

Each case runs a bundled model through the command line in one mode and
hashes the trace (CSV and JSON) and the impulse log it writes.  A change
to the evaluator or to the writers that alters one bit of a value, of the
time grid or of the file layout fails here.  The ball runs past its second
contact, so both located events and their impulses are covered.
"""

import hashlib
import pathlib

import pytest

from cbdsim import cli

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

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
        "--step", step, "--end", end, "--format", fmt,
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
