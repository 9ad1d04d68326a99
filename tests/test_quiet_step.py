"""The evaluator's shortcuts against the reference stepper.

``Engine.commit`` sweeps only the cones of the sources that fire, and none
on a quiet step; ``Engine.locate_crossing`` bisects with trials of the
condition closure alone; ``engine._Recorder`` packs each step into rows.
``tests/reference.py`` runs the same semantics with none of these: every
trial a full phase 1, every commit a sweep of every group, every trace
column appended per signal.  Each case runs ``simulate`` and the stepper
in both modes and requires the same trace, impulse log and warnings,
compared through ``float.hex``, or the same error type, block path and
message.  When both modes complete, ``compare_traces`` must find their
traces equal at every step.  The bundled ball and the benchmark's
``switch_dense``, whose runs bisect, are compared the same way.
``Engine.firing``, the Delays that fire on the next step, which only a
swept commit sets, must equal a scan of the last committed step.  The
generated phase 1, given a recorder's buffers as ``run``, commits a step
exactly when ``Engine.flipped_conditions`` finds no flip; a run that it
ends by an error, or at its end time, leaves the reference's committed
steps and trace.
"""

import linecache
import math
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference
from cbdsim import blocks as bk, dsl, engine
from cbdsim.analysis import compare_traces
from cbdsim.blocks import Committed
from cbdsim.engine import (Engine, EngineError, NonIncreasingTime, SimConfig,
                           SimulationError, _Recorder, simulate)
from cbdsim.graph import flatten

from conftest import ROOT, perfbench_module
from strategies import BASE_SIGNALS, OSCILLATOR, diagrams

MODES = ("symbolic", "numerical")
# A run that locates an event at every step, as one does whose Switch
# never commits its flip, crawls towards t_end in steps of h_min; this
# h_min keeps such a run to a few thousand steps.
TOLERANCES = dict(zc_tol=1e-4, h_min=1e-4)


def _assert_fast_path_equivalent(text, watch, **config):
    """Compare ``simulate`` with the reference stepper in both modes, and
    the two modes' traces when both complete; return the symbolic outcome,
    its signals by name."""
    model = dsl.load_model(text)
    (symbolic, outcome), (numerical, _) = [
        reference.matches(model, "Main", SimConfig(
            mode=mode, watch=watch, **dict(TOLERANCES, **config)))
        for mode in MODES]
    if symbolic is not None and numerical is not None:
        # The symbolic trace with its impulse log folded in is the
        # numerical trace exactly.
        report = compare_traces(symbolic, numerical, 1e-12)
        assert report.ok, report.to_dict()
        assert all(d.max_relative == 0.0 for d in report.deviations)
    if symbolic is None:
        return outcome
    times, signals, *rest = outcome
    return times, dict(signals), *rest


# --- fixed cases: one per source kind -----------------------------------------

RAMP_INTO = """
cbd Main(out y) {{
  block rate = Constant(1);
  block ramp = Integrator(-0.25);
  block sw   = Switch();
  {blocks}
  rate.out -> ramp.in;
  ramp.out -> sw.c;
  {wiring}
}}
"""


def test_delay_replaying_a_jump():
    text = RAMP_INTO.format(
        blocks="block d = Delay(0); block acc = Integrator(0);",
        wiring="sw.out -> d.in; d.out -> acc.in; d.out -> y;",
    )
    _, signals, _, _ = _assert_fast_path_equivalent(
        text, ("d", "acc", "sw"), h=0.1, t_end=0.6)
    # The switch edge at t = 0.25 is replayed by the delay one step later.
    edges = {name: [k for k, s in enumerate(signals[name]) if s[0] != s[1]]
             for name in ("sw", "d")}
    assert len(edges["sw"]) == 1
    assert edges["d"] == [edges["sw"][0] + 1]


def test_delay_replaying_an_impulse():
    text = RAMP_INTO.format(
        blocks="block e = Derivative(); block d = Delay(0); "
               "block acc = Integrator(0);",
        wiring="sw.out -> e.in; e.out -> d.in; d.out -> acc.in; d.out -> y;",
    )
    _, signals, impulses, _ = _assert_fast_path_equivalent(
        text, ("e", "d", "acc"), h=0.1, t_end=0.6)
    assert [(signal, order) for _, signal, order, _ in impulses] == \
        [("e", 0), ("d", 0)]
    assert signals["acc"][-1][1] == (1.0).hex()


def test_decision_flip_between_different_branches():
    # The condition 0.2 - ramp flips at t = 0.45, apart from the switch.
    text = RAMP_INTO.format(
        blocks="block hold = Constant(5); block lim = Constant(0.2); "
               "block neg = Negator(); block cond = Adder(); "
               "block pick = Decision(); block acc = Integrator(0);",
        wiring="ramp.out -> neg.in; lim.out -> cond.in1; neg.out -> cond.in2; "
               "ramp.out -> pick.u; hold.out -> pick.v; cond.out -> pick.c; "
               "pick.out -> acc.in; pick.out -> y;",
    )
    _, signals, _, _ = _assert_fast_path_equivalent(
        text, ("pick", "acc"), h=0.1, t_end=0.6)
    flips = [s for s in signals["pick"] if s[0] != s[1]]
    assert len(flips) == 1 and flips[0][1] == (5.0).hex()


def test_switch_flip_at_a_bisection_trial_step():
    # The crossing at t = 0.25 lies inside the first step of size 0.3, so
    # it is found by trial steps of bisected sizes.
    text = RAMP_INTO.format(blocks="block e = Derivative();",
                            wiring="sw.out -> e.in; sw.out -> y;")
    times, signals, _, _ = _assert_fast_path_equivalent(
        text, ("sw", "e"), h=0.3, t_end=0.9)
    assert abs(float.fromhex(times[1]) - 0.25) <= 1e-4
    assert signals["sw"][1][0:2] == ((0.0).hex(), (1.0).hex())


# --- fixed cases: the shape of the cone ---------------------------------------

def test_two_switches_flipping_in_one_trial_step():
    # sw and sw2 read ramp and -ramp, so both flip at t = 0.25 and the
    # sweep is the union of two disjoint cones.
    text = RAMP_INTO.format(
        blocks="block neg = Negator(); block sw2 = Switch(); "
               "block e1 = Derivative(); block e2 = Derivative(); "
               "block acc1 = Integrator(0); block acc2 = Integrator(0);",
        wiring="ramp.out -> neg.in; neg.out -> sw2.c; sw.out -> e1.in; "
               "sw2.out -> e2.in; e1.out -> acc1.in; e2.out -> acc2.in; "
               "acc1.out -> y;",
    )
    _, signals, impulses, _ = _assert_fast_path_equivalent(
        text, ("e1", "e2", "acc1", "acc2"), h=0.1, t_end=0.6)
    assert [(signal, c) for _, signal, _, c in impulses] == \
        [("e1", (1.0).hex()), ("e2", (-1.0).hex())]
    assert impulses[0][0] == impulses[1][0]
    assert (signals["acc1"][-1][1], signals["acc2"][-1][1]) == \
        ((1.0).hex(), (-1.0).hex())


def test_switch_jump_through_a_decision():
    # pick holds u, the switch, on a constant condition: it is in the
    # switch's cone without being a source itself.
    text = RAMP_INTO.format(
        blocks="block one = Constant(1); block five = Constant(5); "
               "block pick = Decision();",
        wiring="sw.out -> pick.u; five.out -> pick.v; one.out -> pick.c; "
               "pick.out -> y;",
    )
    _, signals, _, _ = _assert_fast_path_equivalent(
        text, ("sw", "pick"), h=0.1, t_end=0.6)
    assert signals["pick"] == signals["sw"]
    assert [s for s in signals["pick"] if s[0] != s[1]] == \
        [((0.0).hex(), (1.0).hex())]


LOOP = ("block a = Adder(); block m = Multiplier(); block g = Constant(0.5); "
        "block e = Derivative(); block acc = Integrator(0);")
# a = in + 0.5 a: an algebraic loop, swept whole inside the cone.
LOOP_WIRING = "m.out -> a.in2; a.out -> m.in1; g.out -> m.in2; acc.out -> y;"


def test_switch_jump_through_an_adder_loop():
    text = RAMP_INTO.format(
        blocks=LOOP,
        wiring="sw.out -> a.in1; a.out -> e.in; e.out -> acc.in; " + LOOP_WIRING,
    )
    _, signals, _, _ = _assert_fast_path_equivalent(
        text, ("a", "e", "acc"), h=0.1, t_end=0.6)
    jumps = [s[0:2] for s in signals["a"] if s[0] != s[1]]
    assert jumps == [((0.0).hex(), (2.0).hex())]
    assert signals["acc"][-1][1] == (2.0).hex()


def test_switch_impulse_into_an_adder_loop_is_rejected():
    text = RAMP_INTO.format(
        blocks=LOOP,
        wiring="sw.out -> e.in; e.out -> a.in1; a.out -> acc.in; " + LOOP_WIRING,
    )
    outcome = _assert_fast_path_equivalent(text, ("a",), h=0.1, t_end=0.6)
    assert outcome[:2] == ("ImpulseInLoop", None)


def test_delay_cone_wrapping_around_the_schedule():
    # Ring d -> e -> i -> n -> add -> d.  The Integrator i is scheduled
    # before d, so d's cone holds blocks on both sides of it in the
    # schedule, and i takes the impulse only in the second sweep.
    text = RAMP_INTO.format(
        blocks="block i = Integrator(0); block n = Negator(); "
               "block add = Adder(); block d = Delay(0); "
               "block e = Derivative();",
        wiring="sw.out -> add.in1; n.out -> add.in2; add.out -> d.in; "
               "d.out -> e.in; e.out -> i.in; i.out -> n.in; i.out -> y;",
    )
    _, signals, _, _ = _assert_fast_path_equivalent(
        text, ("sw", "d", "i"), h=0.1, t_end=0.6)
    edges = {name: [k for k, s in enumerate(signals[name]) if s[0] != s[1]]
             for name in ("sw", "d", "i")}
    assert len(edges["sw"]) == 1
    # From the step after the flip on, d replays a jump and i jumps with it.
    assert edges["d"] == edges["i"] == \
        list(range(edges["sw"][0] + 1, len(signals["d"])))


def test_max_order_error_names_the_first_block_in_node_order(monkeypatch):
    # e3 is declared first but scheduled last; e2 and e3 both exceed
    # MAX_ORDER 0 and the error names e3 as the full sweep does.
    monkeypatch.setattr(engine, "MAX_ORDER", 0)
    text = RAMP_INTO.format(
        blocks="block e3 = Derivative(); block e2 = Derivative(); "
               "block e1 = Derivative();",
        wiring="sw.out -> e1.in; e1.out -> e2.in; e2.out -> e3.in; "
               "e3.out -> y;",
    )
    outcome = _assert_fast_path_equivalent(
        text, ("e3",), h=0.1, t_end=0.6)
    assert outcome[:2] == ("MaxOrderExceeded", None)
    assert outcome[2].startswith("e3: impulse order 2")


# A diagram drawn by the property below: two Products whose Switches read
# a Delay and an Adder of the spring system.  The Multiplier b5, outside
# the condition closure, raises in a full mid trial that is discarded.
TWO_PRODUCTS = """
cbd Main(out y) {
  block pos = Integrator(1.0);
  block vel = Integrator(-1.0);
  block stiff = Constant(-9);
  block spring = Multiplier();
  vel.out -> pos.in;
  pos.out -> spring.in1;
  stiff.out -> spring.in2;
  spring.out -> vel.in;
  block b0 = Derivative(-1.0); vel.out -> b0.in;
  block b1 = Derivative(-1.0); b0.out -> b1.in;
  block b2 = Adder(); spring.out -> b2.in1; b1.out -> b2.in2;
  block b3 = Delay(-1.0); b2.out -> b3.in;
  block b4s = Switch(); block b4d = Derivative(); block b4dd = Derivative();
  block b4 = Multiplier();
  b3.out -> b4s.c; b4s.out -> b4d.in; b4d.out -> b4dd.in;
  b4dd.out -> b4.in1; b3.out -> b4.in2;
  block b5s = Switch(); block b5d = Derivative(); block b5dd = Derivative();
  block b5 = Multiplier();
  b2.out -> b5s.c; b5s.out -> b5d.in; b5d.out -> b5dd.in;
  b5dd.out -> b5.in1; b4.out -> b5.in2;
  b5.out -> y;
}
"""


def test_full_trial_error_outside_the_closure_is_discarded():
    watch = ("pos", "vel", "spring", "b0", "b1", "b2", "b3", "b4", "b5")
    times, *_ = _assert_fast_path_equivalent(TWO_PRODUCTS, watch,
                                             h=0.25, t_end=2.0)
    assert times[1:3] == [(0.25).hex(), (0.25 + 1e-4).hex()]
    # Those two steps again, then the step h = 0.25 flips, and its first
    # bisection trial, 0.125, fails at b5 if it is committed.
    eng = Engine(flatten(dsl.load_model(TWO_PRODUCTS), "Main"),
                 SimConfig(h=0.25, **TOLERANCES))
    for dt in (0.25, 1e-4):
        eng.commit(eng.past[-1].t + dt, *eng.compute_step(dt))
    assert eng.compute_step(0.25)[1]
    with pytest.raises(SimulationError, match="^b5: "):
        eng.commit(eng.past[-1].t + 0.125, *eng.compute_step(0.125))


# A diagram drawn by the property below, pinned: a discarded bisection
# trial that ran phase 2 would raise ImpulseAtSwitchingInstant at the
# Decision b3, which a trial of phase 1 alone never checks.
DECISION_ON_A_PRODUCT = "cbd Main(out y) {" + OSCILLATOR.format(
    pos0=1.0, vel0=-1.0) + """
  block b0 = Multiplier(); pos.out -> b0.in1; vel.out -> b0.in2;
  block b1 = Integrator(-1.0, order=1); b4.out -> b1.in;
  block b2s = Switch(); block b2d = Derivative(); block b2dd = Derivative();
  block b2 = Multiplier();
  b1.out -> b2s.c; b2s.out -> b2d.in; b2d.out -> b2dd.in;
  b2dd.out -> b2.in1; pos.out -> b2.in2;
  block b3 = Decision(); b2.out -> b3.u; b0.out -> b3.v; pos.out -> b3.c;
  block b4 = Multiplier(); b1.out -> b4.in1; b3.out -> b4.in2;
  block b5 = Switch(); b4.out -> b5.c;
  b5.out -> y;
}
"""


def test_decision_on_a_product_matches_full_trials():
    watch = BASE_SIGNALS + tuple(f"b{i}" for i in range(6))
    _assert_fast_path_equivalent(DECISION_ON_A_PRODUCT, watch,
                                 h=0.25, t_end=2.0)


# --- random diagrams ---------------------------------------------------------

# A "Product" Multiplier estimates the other input's derivatives from the
# committed steps; a last Delay replays the diagram's jumps and impulses.
@settings(max_examples=100, deadline=None)
@given(st.one_of(diagrams(), diagrams(last="Product"), diagrams(last="Delay")),
       st.sampled_from((0.1, 0.25)))
def test_random_diagrams_match_the_full_sweep(diagram, h):
    text, watch = diagram
    _assert_fast_path_equivalent(text, watch, h=h, t_end=2.0)


# --- the models whose runs bisect ----------------------------------------------

@pytest.mark.parametrize("model, mode", [
    ("ball", "symbolic"), ("ball", "numerical"), ("switch_dense", "numerical")])
def test_bisected_models_match_the_reference(model, mode, ball_text):
    # The bundled ball for 2 s, and the benchmark's switch_dense at seed 1,
    # as the benchmark runs it.
    if model == "ball":
        text, config = ball_text, dict(h=1e-3, t_end=2.0)
    else:
        text = perfbench_module("workloads").switch_dense(ROOT, 1, False).text
        config = dict(h=1e-3, t_end=1.0, zc_tol=1e-9, h_min=1e-12)
    trace, _ = reference.matches(dsl.load_model(text), "Main",
                                 SimConfig(mode=mode, **config))
    assert trace is not None


# --- the firing Delays ---------------------------------------------------------

def _delays_scanned(engine):
    """The Delays whose input jumped or carried impulses at the last
    commit, scanned from ``past[-1]``."""
    last = engine.past[-1]
    return [idx for idx, src in engine.delays
            if last.lefts[src] != last.rights[src]
            or not last.vectors[src].is_empty]


def _firing_sets(text, h):
    """``Engine.firing`` after every commit of a run of ``text``, each
    checked against the scan, before the commit as well as after."""
    seen = []

    def commit(self, *args, commit=Engine.commit):
        assert self.firing == _delays_scanned(self)
        step = commit(self, *args)
        assert self.firing == _delays_scanned(self)
        seen.append(list(self.firing))
        return step

    with mock.patch.object(Engine, "commit", commit):
        try:
            simulate(dsl.load_model(text), "Main",
                     SimConfig(h=h, t_end=2.0, **TOLERANCES))
        except EngineError:
            pass
    return seen


# A Delay reads a Switch of the oscillator's position: it fires on the
# step after each located flip.
DELAYED_SWITCH = "cbd Main(out y) {" + OSCILLATOR.format(
    pos0=1.0, vel0=0.0) + """
  block s = Switch(); pos.out -> s.c;
  block d = Delay(0.5); s.out -> d.in;
  d.out -> y;
}
"""


def test_a_delay_fires_after_its_switch_flips():
    # Two located flips in the 2 s, each followed by one firing step.
    assert sum(map(bool, _firing_sets(DELAYED_SWITCH, 0.1))) == 2


@settings(max_examples=100, deadline=None)
@given(st.one_of(diagrams(last="Delay"), diagrams()),
       st.sampled_from((0.1, 0.25)))
def test_firing_delays_match_the_scan_of_the_last_step(diagram, h):
    text, _ = diagram
    _firing_sets(text, h)  # it checks every commit the run makes


# --- the quiet run of the generated phase 1 -------------------------------------

def _run(recorder, t_stop):
    """The ``run`` argument of ``Engine.phase1``: ``recorder``'s buffers,
    up to ``t_stop``, cut at ``ROW_BUFFER``."""
    return (t_stop, recorder.trace.times, recorder.left, recorder.right,
            recorder.pack, recorder.flush, engine.ROW_BUFFER)


def _hand_step(text, h):
    """Step ``text`` to t = 2 one step at a time, until the run ends or
    fails; returns the engine, None if its t = 0 step failed.  While no
    Delay fires, ``phase1`` runs each step with ``run`` stopping after it,
    and must commit it exactly when the full trial finds no condition
    flipped, and otherwise return the trial's left limits uncommitted;
    ``locate_crossing`` and ``commit`` take the steps it returns."""
    eng = None
    try:
        eng = Engine(flatten(dsl.load_model(text), "Main"),
                     SimConfig(h=h, t_end=2.0, **TOLERANCES))
        recorder = _Recorder(eng.watched)
        while (t := eng.past[-1].t) + h <= 2.0 + 1e-9 * h:
            lefts, flipped = eng.compute_step(h)
            if not eng.firing:
                stopped = eng.phase1(eng.past, h, False, _run(recorder, t + h))
                if stopped is None:
                    assert not flipped
                    step = eng.past[-1]
                    assert (step.t, step.lefts, step.vectors) == \
                        (t + h, lefts, eng.quiet_vectors)
                    assert step.rights is step.lefts
                    assert recorder.trace.times[-1] == t + h
                    continue
                assert flipped and stopped == lefts and eng.past[-1].t == t
            h_star = h
            if flipped:
                h_star, lefts, flipped, _ = eng.locate_crossing(h, lefts, flipped)
            eng.commit(t + h_star, lefts, flipped)
    except EngineError:
        pass
    return eng


@settings(max_examples=100, deadline=None)
@given(st.one_of(diagrams(), diagrams(last="Delay")),
       st.sampled_from((0.1, 0.25)))
def test_flip_test_matches_the_flipped_conditions(diagram, h):
    text, _ = diagram
    _hand_step(text, h)


# A Switch whose condition, a Delay, replays a Constant's left limit: a
# hand-appended step sets both the next condition and its held sign.
DELAYED_CONDITION = """
cbd Main(out y) {
  block one = Constant(1);
  block d = Delay(0);
  block sw = Switch();
  one.out -> d.in;
  d.out -> sw.c;
  sw.out -> y;
}
"""


@pytest.mark.parametrize("left, held", [(0.0, -0.0), (-0.0, 0.0)])
def test_a_zero_of_either_sign_is_no_flip(left, held):
    eng = Engine(flatten(dsl.load_model(DELAYED_CONDITION), "Main"),
                 SimConfig(h=0.1))
    (sw, c), = eng.conditions
    (_, src), = eng.delays
    recorder = _Recorder(eng.watched)

    def step(t, condition):
        """Append a step at ``t`` holding ``held`` whose Delay replays
        ``condition``; returns the next step's left limits, and what
        ``phase1`` returns when it runs that step."""
        column = [1.0] * len(eng.nodes)
        column[src], column[c] = condition, held
        eng.past.append(Committed(t, column, column, eng.quiet_vectors))
        lefts = eng.phase1(eng.past, 0.1)
        assert lefts[c].hex() == condition.hex()
        return lefts, eng.phase1(eng.past, 0.1, False, _run(recorder, t + 0.1))

    lefts, stopped = step(0.1, left)
    assert eng.flipped_conditions(lefts) == [] and stopped is None
    assert eng.past[-1].t == 0.1 + 0.1
    lefts, stopped = step(0.3, -5e-324)  # the negative float nearest zero
    assert eng.flipped_conditions(lefts) == [(sw, c)]
    assert stopped == lefts and eng.past[-1].t == 0.3


# The oscillator alone: a model without conditions.
OSCILLATOR_ALONE = "cbd Main(out y) {" + OSCILLATOR.format(
    pos0=1.0, vel0=0.0) + "pos.out -> y; }"


def _oscillator(**config):
    """An engine of ``OSCILLATOR_ALONE`` and a recorder holding its t = 0
    step."""
    eng = Engine(flatten(dsl.load_model(OSCILLATOR_ALONE), "Main"),
                 SimConfig(**config))
    recorder = _Recorder(eng.watched)
    recorder.record(eng.past[-1])
    return eng, recorder


def test_a_model_without_conditions_never_flips():
    config = dict(h=0.1, t_end=2.0)
    eng, recorder = _oscillator(**config)
    assert eng.conditions == []
    # One call commits every step.
    assert eng.phase1(eng.past, 0.1, False, _run(recorder, 2.0 + 1e-10)) is None
    trace = recorder.flush()
    assert len(trace.times) == 21 and eng.past[-1].t == trace.times[-1]
    assert reference.outcome(lambda: trace)[1] == reference.outcome(
        reference.run, dsl.load_model(OSCILLATOR_ALONE), "Main",
        SimConfig(**config))[1]


def test_a_step_that_does_not_advance_is_returned_uncommitted():
    # 2**53 + 1.0 rounds to 2**53: commit, not the run, refuses the step.
    eng, recorder = _oscillator(h=1.0)
    last = eng.past[-1]
    eng.past.append(Committed(2.0 ** 53, last.lefts, last.rights,
                              eng.quiet_vectors))
    stopped = eng.phase1(eng.past, 1.0, False, _run(recorder, math.inf))
    assert stopped == eng.phase1(eng.past, 1.0)
    assert (len(eng.past), eng.past[-1].t) == (2, 2.0 ** 53)
    assert recorder.trace.times == [0.0] and len(recorder.right) == 1
    with pytest.raises(NonIncreasingTime):
        eng.commit(2.0 ** 53 + 1.0, stopped, [])


# A ramp from -0.5 at h = 0.125 reaches 0.0 exactly at t = 0.5, after
# three quiet steps, where its Inverter's guard fails; the Switch reads the
# Inverter (inside the condition closure), the ramp's rate, which never
# flips, or the ramp 0.0625 ahead, flipping at t = 0.4375 within the
# failing step (both outside it).
INVERTED_RAMP = """
cbd Main(out y) {{
  block rate = Constant(1);
  block ramp = Integrator(-0.5);
  block inv = Inverter();
  block ahead = Constant(0.0625);
  block cond = Adder();
  block sw = Switch();
  rate.out -> ramp.in;
  ramp.out -> inv.in;
  ramp.out -> cond.in1;
  ahead.out -> cond.in2;
  {condition}.out -> sw.c;
  sw.out -> y;
}}
"""
INVERTED_WATCH = ("ramp", "inv", "cond", "sw")


@pytest.mark.parametrize("condition", ["inv", "rate"],
                         ids=["inside-the-closure", "outside-it"])
def test_a_guard_failing_with_no_flip_stops_the_run(condition):
    text = INVERTED_RAMP.format(condition=condition)
    outcome = _assert_fast_path_equivalent(text, INVERTED_WATCH,
                                           h=0.125, t_end=1.0)
    assert outcome[:2] == ("SimulationError", "inv")
    # The run commits three quiet steps, then fails in the step from
    # t = 0.375 with the reference's trace up to there.
    config = SimConfig(h=0.125, t_end=1.0, watch=INVERTED_WATCH)
    eng = Engine(flatten(model := dsl.load_model(text), "Main"), config)
    recorder = _Recorder(eng.watched)
    recorder.record(eng.past[-1])
    with pytest.raises(SimulationError, match="^inv: ") as failed:
        eng.phase1(eng.past, 0.125, False, _run(recorder, 1.0))
    assert str(failed.value) == outcome[2]
    assert eng.past[-1].t == 0.375
    prefix = reference.run(model, "Main", SimConfig(
        h=0.125, t_end=0.375, watch=INVERTED_WATCH))
    assert reference.outcome(recorder.flush)[1] == \
        reference.outcome(lambda: prefix)[1]


def test_a_guard_failing_outside_the_closure_retries_at_its_step():
    times, signals, _, _ = _assert_fast_path_equivalent(
        INVERTED_RAMP.format(condition="cond"), INVERTED_WATCH,
        h=0.125, t_end=1.0)
    # The closure retry of the step from 0.375 locates the flip at 0.4375.
    assert times[:5] == [x.hex() for x in (0.0, 0.125, 0.25, 0.375, 0.4375)]
    assert [s[0] != s[1] for s in signals["sw"]].index(True) == 4


def _hexed(steps):
    return [(s.t.hex(), [x.hex() for x in s.lefts], [x.hex() for x in s.rights],
             list(s.vectors)) for s in steps]


@pytest.mark.parametrize("case", ["ball", "delayed_switch", "two_products"])
def test_the_last_steps_are_the_references(case, ball_text):
    text, h = {"ball": (ball_text, 1e-3), "delayed_switch": (DELAYED_SWITCH, 0.1),
               "two_products": (TWO_PRODUCTS, 0.25)}[case]
    config = SimConfig(h=h, t_end=2.0, **TOLERANCES)
    engines = []

    class Kept(Engine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    model = dsl.load_model(text)
    with mock.patch.object(engine, "Engine", Kept):
        simulate(model, "Main", config)
    steps = []
    reference.run(model, "Main", config, steps)
    eng, = engines
    assert _hexed(eng.past) == _hexed(steps[-len(eng.past):])
    assert len(eng.past) == bk.HISTORY_DEPTH


@pytest.mark.parametrize("case", ["ball", "inverted_ramp", "loop40",
                                  "switch_dense"])
def test_the_later_steps_source_holds_each_block_once(case, ball_text):
    """The quiet run repeats the one body: every node's value, and every
    guard, is written once in the generated source."""
    text = {"ball": ball_text,
            "inverted_ramp": INVERTED_RAMP.format(condition="inv")}.get(case)
    if text is None:
        text = getattr(perfbench_module("workloads"), case)(ROOT, 1, False).text
    eng = Engine(flatten(dsl.load_model(text), "Main"), SimConfig())
    lines = [line.strip() for line in
             linecache.getlines(eng.phase1.__code__.co_filename)]
    written = Counter(int(v) for line in lines
                      if (target := re.match(r"((?:v\d+,? )+)= ", line))
                      for v in re.findall(r"v(\d+)", target[1]))
    assert written == Counter(range(len(eng.nodes)))
    guards = Counter(line for line in lines if line.startswith("fail("))
    assert sorted(guards.values()) == [1] * sum(
        bool(bk.KINDS[node.kind].guard) for node in eng.nodes)
    assert lines.count("while True:") == 1


# --- the bisection inside the generated phase 1 ---------------------------------

# A ramp from r0 at rate 1; the Switch reads ``condition``.
BISECTED = """
cbd Main(out y) {{
  block rate = Constant(1);
  block ramp = Integrator({r0});
  block sw = Switch();
  {blocks}
  rate.out -> ramp.in;
  {condition}.out -> sw.c;
  sw.out -> y;
}}
"""
INVERTED = "block inv = Inverter(); ramp.out -> inv.in;"
# 1e300 / (ramp at t = 0.5) overflows; at t = 0 and t = 1 it is 2e300.
OVERFLOWING = INVERTED + """
  block big = Constant(1e300); block m = Multiplier();
  inv.out -> m.in1; big.out -> m.in2;
"""
# The ramp squared, less 2, which no float t makes 0.
SQUARED = """
  block sq = Multiplier(); block two = Constant(-2); block cond = Adder();
  ramp.out -> sq.in1; ramp.out -> sq.in2; sq.out -> cond.in1; two.out -> cond.in2;
"""


@pytest.mark.parametrize("r0, blocks, condition", [
    (-0.5, INVERTED, "inv"),            # the ramp is 0.0 at the first midpoint
    (-0.4999999999, OVERFLOWING, "m"),  # m is inf at the first midpoint
], ids=["guard", "non-finite"])
def test_a_closure_trial_failing_at_a_midpoint_stops_the_run(r0, blocks, condition):
    text = BISECTED.format(r0=r0, blocks=blocks, condition=condition)
    outcome = _assert_fast_path_equivalent(text, ("ramp", condition), h=1.0,
                                           t_end=2.0)
    assert outcome[:2] == ("SimulationError", condition)
    eng = Engine(flatten(dsl.load_model(text), "Main"), SimConfig(h=1.0))
    lefts, flipped = eng.compute_step(1.0)
    assert flipped
    with pytest.raises(SimulationError) as failed:
        eng.locate_crossing(1.0, lefts, flipped)
    assert str(failed.value) == outcome[2]


def test_a_condition_zero_at_a_midpoint_ends_the_bisection():
    # The first midpoint, 0.5, is the crossing: 0.0 selects as a positive
    # condition does.
    times, signals, _, warnings = _assert_fast_path_equivalent(
        BISECTED.format(r0=-0.5, blocks="", condition="ramp"), ("ramp", "sw"),
        h=1.0, t_end=2.0, zc_tol=1e-9, h_min=1e-12)
    assert times[:2] == [0.0.hex(), 0.5.hex()]
    assert signals["sw"][1] == (0.0.hex(), 1.0.hex()) and warnings == []


@pytest.mark.parametrize("r0", [-0.3, -1e-4], ids=["bottoms-out", "raised-to-h_min"])
def test_a_bisection_down_to_h_min_warns(r0):
    # The ramp crosses at -r0; below h_min the located size is raised to it.
    times, _, _, warnings = _assert_fast_path_equivalent(
        BISECTED.format(r0=r0, blocks="", condition="ramp"), ("ramp", "sw"),
        h=1.0, t_end=2.0, zc_tol=1e-9, h_min=1e-3)
    located = float.fromhex(times[1])
    assert 0.0 < located + r0 <= 1e-3
    assert (located == 1e-3) == (-r0 < 1e-3)
    assert warnings == [f"step-underflow: tolerance not met at t={located!r}"]


def test_a_bisection_stops_where_no_float_lies_between():
    times, _, _, warnings = _assert_fast_path_equivalent(
        BISECTED.format(r0=0.0, blocks=SQUARED, condition="cond"),
        ("ramp", "cond"), h=2.0, t_end=2.0, zc_tol=1e-300, h_min=5e-324)
    located = float.fromhex(times[1])
    assert located * located - 2.0 > 0.0 > (below := math.nextafter(located, 0.0)) \
        * below - 2.0
    assert warnings == [f"step-underflow: tolerance not met at t={located!r}"]
