import functools
import importlib.util
import pathlib
import sys

import pytest
from hypothesis import settings

from cbdsim import dsl

# The reference stepper's comparison asserts; pytest shows their operands.
pytest.register_assert_rewrite("reference")
# ``--hypothesis-profile=ci`` prints a failing example's blob, which
# ``@reproduce_failure`` replays; examples, deadlines and seeds are as by default.
settings.register_profile("ci", print_blob=True)

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


@functools.cache
def perfbench_module(name: str):
    """The benchmark module ``perfbench/<name>.py``, loaded once by its
    file path, as ``perfbench`` is no package.  It is registered in
    ``sys.modules`` as ``perfbench_<name>``, where its dataclasses resolve
    their annotations."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

RAMP_EDGE_CHAIN = """
cbd Chain(out step, d1, d2, d3, d4, held) {
  block rate = Constant(1);
  block ramp = Integrator(-0.5);
  block sw   = Switch();
  block da   = Derivative();
  block db   = Derivative();
  block dc   = Derivative();
  block dd   = Derivative();
  block acc  = Integrator(0);
  rate.out -> ramp.in;
  ramp.out -> sw.c;
  sw.out -> da.in;
  da.out -> db.in;
  db.out -> dc.in;
  dc.out -> dd.in;
  da.out -> acc.in;
  sw.out -> step;
  da.out -> d1;
  db.out -> d2;
  dc.out -> d3;
  dd.out -> d4;
  acc.out -> held;
}
"""


@pytest.fixture(scope="session")
def ball_path() -> pathlib.Path:
    return MODELS / "bouncing_ball.cbd"


@pytest.fixture(scope="session")
def ball_text(ball_path) -> str:
    return ball_path.read_text()


@pytest.fixture(scope="session")
def ball_model(ball_text):
    return dsl.load_model(ball_text)


@pytest.fixture(scope="session")
def chain_model():
    return dsl.load_model(RAMP_EDGE_CHAIN)
