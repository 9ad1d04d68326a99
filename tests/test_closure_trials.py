"""The condition closure that bisection trials evaluate.

``Engine.locate_crossing`` bisects with ``Engine._closure_step``, which
runs phase 1 over the condition closure only: the schedule groups reached
backwards from every Switch and Decision condition input, stopping at
Integrators and Delays.  ``tests/test_quiet_step.py`` compares whole runs
against full-step trials; this file pins the closure's contents and the
one declared difference.
"""

import functools
import importlib.util
import pathlib
import sys
from unittest import mock

import pytest

from cbdsim import blocks as bk
from cbdsim import dsl
from cbdsim.engine import (Engine, ImpulseInLoop, SimConfig, SimulationError,
                           SingularLoop, simulate)
from cbdsim.graph import flatten

ROOT = pathlib.Path(__file__).resolve().parent.parent


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _engine(text, top="Main"):
    return Engine(flatten(dsl.load_model(text), top), SimConfig())


def _order(groups):
    return [idx for members, _ in groups for idx in members]


def _closure(engine):
    paths = [engine.nodes[idx].path for idx in _order(engine.closure)]
    # The closure is a run of whole schedule groups, in schedule order.
    assert _order(engine.closure) == [idx for idx in _order(engine.groups)
                                      if engine.nodes[idx].path in paths]
    assert all(group in engine.groups for group in engine.closure)
    return set(paths)


def test_switch_dense_closure_is_the_position_and_the_gaps():
    engine = _engine(_workloads().switch_dense(ROOT, 1, False).text)
    paths = _closure(engine)
    assert (len(paths), len(engine.nodes)) == (81, 204)
    assert paths == {"pos"} | {f"{name}{k}" for name in ("gap", "level")
                               for k in range(40)}


def test_ball_closure_is_the_detector_input(ball_text):
    assert _closure(_engine(ball_text)) == {"det/negY", "ball/posInt"}


@pytest.mark.parametrize("workload", ["chain200", "loop40"])
def test_closure_is_empty_without_conditions(workload):
    engine = _engine(getattr(_workloads(), workload)(ROOT, 1, False).text)
    assert engine.closure == []


def test_walk_passes_a_derivative_and_stops_at_an_integrator():
    # Decision inputs u and v are not read by the crossing test.
    engine = _engine("""
    cbd Main(out y) {
      block rate = Constant(1);
      block ramp = Integrator(-0.25);
      block d = Derivative();
      block lim = Constant(0.5);
      block gap = Adder();
      block u = Constant(2);
      block v = Constant(3);
      block pick = Decision();
      rate.out -> ramp.in;
      ramp.out -> d.in;
      d.out -> gap.in1;
      lim.out -> gap.in2;
      u.out -> pick.u;
      v.out -> pick.v;
      gap.out -> pick.c;
      pick.out -> y;
    }
    """)
    assert _closure(engine) == {"ramp", "d", "lim", "gap"}


def test_cyclic_group_is_taken_whole():
    # a = ramp + 0.5 a: the loop {a, m} feeds the switch condition.
    engine = _engine("""
    cbd Main(out y) {
      block rate = Constant(1);
      block ramp = Integrator(-0.25);
      block a = Adder();
      block m = Multiplier();
      block g = Constant(0.5);
      block sw = Switch();
      rate.out -> ramp.in;
      ramp.out -> a.in1;
      m.out -> a.in2;
      a.out -> m.in1;
      g.out -> m.in2;
      a.out -> sw.c;
      sw.out -> y;
    }
    """)
    assert _closure(engine) == {"ramp", "a", "m", "g"}
    assert [cyclic for _, cyclic in engine.closure].count(True) == 1


# q crosses zero at t = 0.3; p reaches zero at t = 0.5, where the first
# bisection trial of the step h = 1 would invert it.
DISCARDED_TRIAL = """
cbd Main(out y, c) {
  block one = Constant(1);
  block q = Integrator(-0.3);
  block p = Integrator(-0.5);
  block sw = Switch();
  block inv = Inverter();
  one.out -> q.in;
  one.out -> p.in;
  q.out -> sw.c;
  p.out -> inv.in;
  inv.out -> y;
  sw.out -> c;
}
"""


def test_discarded_trial_skips_blocks_outside_the_closure():
    model = dsl.load_model(DISCARDED_TRIAL)
    config = SimConfig(h=1.0, t_end=2.0)
    trace = simulate(model, "Main", config)
    assert abs(trace.times[1] - 0.3) <= 1e-9
    assert [(s.left, s.right) for s in trace.signals["c"]][1] == (0.0, 1.0)
    assert trace.signals["y"].left[1] == pytest.approx(1.0 / -0.2)
    # Full-step trials evaluate the inverter at p = 0 and stop the run.
    with mock.patch.object(Engine, "_closure_step", Engine.compute_step):
        with pytest.raises(SimulationError) as excinfo:
            simulate(model, "Main", config)
    assert excinfo.value.block_path == "inv"
    assert isinstance(excinfo.value.cause, bk.DivisionNearZero)


def test_failing_full_trial_is_discarded_like_a_bisection_trial():
    # p reaches zero at the full trial t = 1, where the inverter fails; the
    # event at t = 0.3 commits first, and no later step reaches p = 0.
    model = dsl.load_model(DISCARDED_TRIAL.replace("Integrator(-0.5)",
                                                   "Integrator(-1.0)"))
    config = SimConfig(h=1.0, t_end=2.0)
    trace = simulate(model, "Main", config)
    assert abs(trace.times[1] - 0.3) <= 1e-9
    assert len(trace.times) == 3
    assert [(s.left, s.right) for s in trace.signals["c"]][1] == (0.0, 1.0)
    assert trace.signals["y"].left[1] == pytest.approx(1.0 / -0.7)
    with mock.patch.object(Engine, "_closure_step", Engine.compute_step):
        with pytest.raises(SimulationError) as excinfo:
            simulate(model, "Main", config)
    assert excinfo.value.block_path == "inv"


@pytest.mark.parametrize("q0", [
    0.3,    # no condition flips over the failing step
    -1.0,   # q crosses zero exactly at the failing step's end
])
def test_failing_full_trial_stands_unless_an_earlier_event_commits(q0):
    model = dsl.load_model(DISCARDED_TRIAL.replace(
        "Integrator(-0.5)", "Integrator(-1.0)").replace(
        "Integrator(-0.3)", f"Integrator({q0})"))
    with pytest.raises(SimulationError) as excinfo:
        simulate(model, "Main", SimConfig(h=1.0, t_end=2.0))
    assert excinfo.value.block_path == "inv"


# DISCARDED_TRIAL's event alone, q crossing zero at t = 0.3, ahead of a
# loop that fails only at the full trial t = 1, which no commit reaches.
Q_EVENT = """
cbd Main(out y, c) {{
  block one = Constant(1);
  block q = Integrator(-0.3);
  block sw = Switch();
  one.out -> q.in;
  q.out -> sw.c;
  sw.out -> c;
  {blocks}
  a.out -> y;
}}
"""
# sw2 reads r - the integral of sw, r = t - 0.8: 0.2 at t = 1, but -0.5 at
# t = 0.3 and 1.3.  Its edge at t = 1 gives e an impulse into a = e + 0.5 a.
IMPULSE_INTO_LOOP = """
  block r = Integrator(-0.8); block i = Integrator(0); block n = Negator();
  block gap = Adder(); block sw2 = Switch(); block e = Derivative();
  block a = Adder(); block m = Multiplier(); block g = Constant(0.5);
  one.out -> r.in; sw.out -> i.in; i.out -> n.in; r.out -> gap.in1;
  n.out -> gap.in2; gap.out -> sw2.c; sw2.out -> e.in; e.out -> a.in1;
  m.out -> a.in2; a.out -> m.in1; g.out -> m.in2;
"""
# a = 3 + g a with g = t, singular at t = 1.
SINGULAR_AT_ONE = """
  block g = Integrator(0); block three = Constant(3);
  block a = Adder(); block m = Multiplier();
  one.out -> g.in; three.out -> a.in1; m.out -> a.in2;
  a.out -> m.in1; g.out -> m.in2;
"""


@pytest.mark.parametrize("blocks, error", [
    (IMPULSE_INTO_LOOP, ImpulseInLoop),
    (SINGULAR_AT_ONE, SingularLoop),
])
def test_any_failing_full_trial_is_discarded_when_an_earlier_event_commits(
        blocks, error):
    text = Q_EVENT.format(blocks=blocks)
    # The full step t = 1, committed, fails in phase 1 or in phase 2.
    engine = _engine(text)
    with pytest.raises(error, match="^a: "):
        engine.commit(1.0, *engine.compute_step(1.0))
    trace = simulate(dsl.load_model(text), "Main", SimConfig(h=1.0, t_end=2.0))
    assert len(trace.times) == 3
    assert abs(trace.times[1] - 0.3) <= 1e-9
    assert abs(trace.times[2] - 1.3) <= 1e-9


@pytest.mark.parametrize("workload", ["ball", "switch_dense"])
def test_phase2_runs_once_per_committed_step(workload, ball_text):
    if workload == "ball":
        text, config = ball_text, SimConfig(h=1e-3, t_end=2.0)
    else:
        text = _workloads().switch_dense(ROOT, 1, False).text
        config = SimConfig(h=1e-3, t_end=1.0, zc_tol=1e-9, h_min=1e-12)
    with mock.patch.object(Engine, "_sweep_groups", autospec=True,
                           side_effect=Engine._sweep_groups) as sweeps:
        trace = simulate(dsl.load_model(text), "Main", config)
    assert sweeps.call_count == len(trace.times) - 1
