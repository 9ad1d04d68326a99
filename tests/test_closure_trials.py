"""The condition closure that bisection trials evaluate.

``Engine.locate_crossing`` bisects with trials of the condition closure
only: the schedule groups reached backwards from every Switch and Decision
condition input, stopping at Integrators and Delays.  The later-steps
function runs those groups first and stops after them in such a trial;
given ``locate``, it runs every trial of a bisection in its one body.
``tests/test_quiet_step.py`` compares whole runs with the reference
stepper, ``tests/reference.py``, whose trials are full steps; this file
pins the closure's contents, its trials, replayed through
``reference.bisect``, and the declared differences.
"""

import functools
import sys
from unittest import mock

import pytest

import reference
from cbdsim import blocks as bk
from cbdsim import dsl
from cbdsim.engine import (Engine, ImpulseInLoop, SimConfig, SimulationError,
                           SingularLoop, simulate)
from cbdsim.graph import flatten

from conftest import ROOT, perfbench_module


def _workloads():
    return perfbench_module("workloads")


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
    # The first bisection trial, 0.5, as a full step evaluates the inverter
    # at p = 0: the run would stop there if it ran beyond the closure.
    with pytest.raises(SimulationError) as excinfo:
        _engine(DISCARDED_TRIAL).compute_step(0.5)
    assert excinfo.value.block_path == "inv"
    assert isinstance(excinfo.value.cause, bk.DivisionNearZero)


def test_failing_full_trial_is_discarded_like_a_bisection_trial():
    # p reaches zero at the full trial t = 1, where the inverter fails; the
    # event at t = 0.3 commits first, and no later step reaches p = 0.
    text = DISCARDED_TRIAL.replace("Integrator(-0.5)", "Integrator(-1.0)")
    model = dsl.load_model(text)
    config = SimConfig(h=1.0, t_end=2.0)
    trace = simulate(model, "Main", config)
    assert abs(trace.times[1] - 0.3) <= 1e-9
    assert len(trace.times) == 3
    assert [(s.left, s.right) for s in trace.signals["c"]][1] == (0.0, 1.0)
    assert trace.signals["y"].left[1] == pytest.approx(1.0 / -0.7)
    with pytest.raises(SimulationError) as excinfo:
        _engine(text).compute_step(1.0)
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


# The switch reads r - 0.05 + 0 * inner, crossing at t = 0.05; outer and
# inner both invert r - 0.1, which is 0 at t = 0.1.  outer is scheduled
# first, and only inner is in the condition closure.
TWO_INVERTERS = """
cbd Main(out y, c) {
  block one = Constant(1); block r = Integrator(0);
  block off = Constant(-0.1); block gap = Adder();
  block outer = Inverter(); block inner = Inverter();
  block zero = Constant(0); block m = Multiplier();
  block half = Constant(-0.05); block cond = Adder(); block sum = Adder();
  block sw = Switch();
  one.out -> r.in; r.out -> gap.in1; off.out -> gap.in2;
  gap.out -> outer.in; gap.out -> inner.in;
  inner.out -> m.in1; zero.out -> m.in2;
  r.out -> cond.in1; half.out -> cond.in2;
  cond.out -> sum.in1; m.out -> sum.in2;
  sum.out -> sw.c;
  outer.out -> y; sw.out -> c;
}
"""


@pytest.mark.parametrize("h", [
    1.0,  # the bisection stops at 0.0625, and the step is raised to h_min
    0.1,  # the full step's trial fails, and so does its closure trial
])
def test_a_step_failing_inside_and_outside_the_closure_names_the_closure(h):
    engine = _engine(TWO_INVERTERS)
    order = [engine.nodes[idx].path for idx in _order(engine.groups)]
    assert order.index("outer") < order.index("inner")
    assert "inner" in _closure(engine) and "outer" not in _closure(engine)
    with pytest.raises(SimulationError) as excinfo:
        simulate(dsl.load_model(TWO_INVERTERS), "Main",
                 SimConfig(h=h, t_end=2.0, h_min=0.1))
    assert excinfo.value.block_path == "inner"


# The benchmark's switch_dense workload at its configuration, and the 2-s
# ball: the models with a condition closure.
def _bisected_runs(ball_text):
    return {
        "ball": (ball_text, SimConfig(h=1e-3, t_end=2.0)),
        "switch_dense": (_workloads().switch_dense(ROOT, 1, False).text,
                         SimConfig(h=1e-3, t_end=1.0, zc_tol=1e-9,
                                   h_min=1e-12)),
    }


def _located_starts(located):
    """A ``locate_crossing`` that appends the start time of each step it
    locates to ``located``."""
    def locate(self, *args, locate_crossing=Engine.locate_crossing):
        located.append(self.past[-1].t)
        return locate_crossing(self, *args)
    return locate


@pytest.mark.parametrize("workload", ["ball", "switch_dense"])
def test_phase2_runs_once_per_committed_step(workload, ball_text):
    # A trial committed through phase 2 would add a time outside the trace
    # or repeat one; every located step commits through phase 2.
    text, config = _bisected_runs(ball_text)[workload]
    commits, located = [], []

    def commit(self, t, *args, commit=Engine.commit):
        commits.append(t)
        return commit(self, t, *args)

    with mock.patch.object(Engine, "commit", commit), \
            mock.patch.object(Engine, "locate_crossing",
                              _located_starts(located)):
        trace = simulate(dsl.load_model(text), "Main", config)
    assert commits == sorted(set(commits))
    assert set(commits) <= set(trace.times[1:])
    after = dict(zip(trace.times, trace.times[1:]))
    assert located and {after[t] for t in located} <= set(commits)


def _bisections(text, config):
    """A run's ``locate_crossing`` calls, each as the engine, a copy of its
    committed steps, the call's ``h``, ``lefts`` and ``flipped`` and the
    size it located."""
    calls = []

    def locate(self, h, lefts, flipped, locate_crossing=Engine.locate_crossing):
        past = list(self.past)
        located = locate_crossing(self, h, lefts, flipped)
        calls.append((self, past, h, lefts, flipped, located[0]))
        return located

    with mock.patch.object(Engine, "locate_crossing", locate):
        simulate(dsl.load_model(text), "Main", config)
    return calls


def _replay(call, config, trial):
    """``reference.bisect`` of a ``locate_crossing`` call, with
    ``trial(engine, past, dt)`` at each midpoint; asserts that it locates
    the engine's size, compared by ``float.hex``."""
    eng, past, h, lefts, flipped, located = call
    held = past[-1].rights
    size, _ = reference.bisect(
        functools.partial(trial, eng, past),
        lambda lefts: [c for _, c in eng.conditions
                       if (lefts[c] >= 0.0) != (held[c] >= 0.0)],
        h, lefts, config)
    assert size.hex() == located.hex()


@pytest.mark.parametrize("workload", ["ball", "switch_dense"])
def test_closure_trial_is_the_full_step_on_the_closure(workload, ball_text):
    # The generated phase 1 runs the bisection's trials itself; the replay
    # runs each midpoint's closure trial and full trial.
    text, config = _bisected_runs(ball_text)[workload]
    trials = []

    def checked(eng, past, dt):
        inside = sorted({idx for members, _ in eng.closure for idx in members})
        lefts, full = eng.phase1(past, dt, True), eng.phase1(past, dt)
        assert [idx for idx, x in enumerate(lefts) if x is not None] == inside
        assert [lefts[idx].hex() for idx in inside] \
            == [full[idx].hex() for idx in inside]
        trials.append(dt)
        return lefts

    for call in _bisections(text, config):
        _replay(call, config, checked)
    assert trials


# Each run's located events and bisection iterations.
@pytest.mark.parametrize("workload, events, iterations", [
    ("ball", 2, 48),
    ("switch_dense", 80, 1711),
])
def test_every_bisection_iteration_is_one_closure_trial(
        workload, events, iterations, ball_text):
    text, config = _bisected_runs(ball_text)[workload]
    trials = []

    def counted(eng, past, dt):
        trials.append(dt)
        return eng.phase1(past, dt, True)

    calls = _bisections(text, config)
    for call in calls:
        _replay(call, config, counted)
    assert len(calls) == events
    assert len(trials) == iterations


@pytest.mark.parametrize("workload", ["ball", "switch_dense"])
def test_every_located_step_ends_with_one_full_trial(workload, ball_text):
    # Only locate_crossing runs full trials, one a located step, at the
    # step's length in the trace.
    text, config = _bisected_runs(ball_text)[workload]
    full, located = [], []

    def counted(self, dt, closure=False, compute_step=Engine.compute_step):
        if not closure:
            full.append((sys._getframe(1).f_code, self.past[-1].t, dt))
        return compute_step(self, dt, closure)

    with mock.patch.object(Engine, "compute_step", counted), \
            mock.patch.object(Engine, "locate_crossing",
                              _located_starts(located)):
        trace = simulate(dsl.load_model(text), "Main", config)
    assert located
    assert [(code, t) for code, t, _ in full] == \
        [(Engine.locate_crossing.__code__, t) for t in located]
    after = dict(zip(trace.times, trace.times[1:]))
    assert [t + dt for _, t, dt in full] == [after[t] for t in located]
