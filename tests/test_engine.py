import math
import sys
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cbdsim import blocks as bk
from cbdsim import dsl, engine
from cbdsim.analysis import compare_traces
from cbdsim.engine import (
    Engine,
    MaxOrderExceeded,
    NonIncreasingTime,
    SimConfig,
    SimulationError,
    Trace,
    UnstablePropagation,
    ZenoSuspected,
    _Node,
    _phase1_function,
    simulate,
)
from cbdsim.graph import (
    BlockDecl,
    Definition,
    InvalidParameter,
    Link,
    Model,
    ModelError,
    flatten,
)

G = 9.81

CONSTANT_ONLY = """
cbd Main(out y) {
  block c = Constant(4.25);
  block n = Negator();
  c.out -> n.in;
  n.out -> y;
}
"""

DESCENT = """
cbd Main(out y) {
  block rate = Constant(-1);
  block pos  = Integrator(0.5);
  block negY = Negator();
  block sw   = Switch();
  rate.out -> pos.in;
  pos.out -> negY.in;
  negY.out -> sw.c;
  pos.out -> y;
}
"""

FAST_DESCENT = DESCENT.replace("Constant(-1)", "Constant(-1e12)")

BIG_BESIDE_DESCENT = """
cbd Main(out y) {
  block big  = Constant(1e301);
  block rate = Constant(-1e6);
  block pos  = Integrator(0.001);
  block sw   = Switch();
  rate.out -> pos.in;
  pos.out -> sw.c;
  big.out -> y;
}
"""

ALTERNATOR = """
// Square wave +-1 via a negated self-delay; its sign flips between every
// pair of committed steps, so every step demands event location.
cbd Main(out q) {
  block d   = Delay(1);
  block neg = Negator();
  block sw  = Switch();
  d.out -> neg.in;
  neg.out -> d.in;
  neg.out -> sw.c;
  sw.out -> q;
}
"""

# The same square wave, forwarded by a Decision only once a ramp crosses
# zero at t = 0.255: the streak of located steps begins with that genuine
# crossing, and the chatter follows in steps of h_min.
LATE_ALTERNATOR = """
cbd Main(out q) {
  block rate = Constant(1);
  block ramp = Integrator(-0.255);
  block one  = Constant(1);
  block d    = Delay(1);
  block neg  = Negator();
  block pick = Decision();
  block sw   = Switch();
  rate.out -> ramp.in;
  d.out -> neg.in;
  neg.out -> d.in;
  neg.out -> pick.u;
  one.out -> pick.v;
  ramp.out -> pick.c;
  pick.out -> sw.c;
  sw.out -> q;
}
"""


class TestStepping:
    def test_constant_model_identical_samples(self):
        model = dsl.load_model(CONSTANT_ONLY)
        trace = simulate(model, "Main", SimConfig(h=0.1, t_end=1.0))
        assert len(trace.times) == 11
        assert all(s.left == -4.25 and s.right == -4.25
                   for s in trace.signals["y"])

    def test_free_fall_velocity(self, ball_model):
        trace = simulate(ball_model, "Main",
                         SimConfig(h=1e-3, t_end=0.01,
                                   watch=("v", "y", "force")))
        for k, s in enumerate(trace.signals["v"]):
            assert s.left == pytest.approx(-G * k * 1e-3, abs=1e-12)
        assert all(s.left == 0.0 for s in trace.signals["force"])

    def test_second_order_integrator_matches_block_kernel(self):
        # The input ramps and jumps by 1 at a located crossing, so the grid
        # is non-uniform and one input sample has left != right; the
        # variable-step two-step Adams-Bashforth recurrence over the
        # recorded input must give the engine's output, whose slope pairs
        # an input's left limit with the previous input's right limit and
        # so excludes the jump.
        model = dsl.load_model("""
        cbd Main(out u, x) {
          block one  = Constant(1);
          block ramp = Integrator(-0.33);
          block sw   = Switch();
          block sum  = Adder();
          block acc  = Integrator(0.5, order=2);
          one.out -> ramp.in;
          ramp.out -> sw.c;
          ramp.out -> sum.in1;
          sw.out -> sum.in2;
          sum.out -> acc.in;
          sum.out -> u;
          acc.out -> x;
        }
        """)
        trace = simulate(model, "Main", SimConfig(h=0.1, t_end=1.0))
        assert any(s.left != s.right for s in trace.signals["u"])
        u, x = trace.signals["u"], trace.signals["x"]
        times = trace.times
        # The order-0 coefficient of u at each step, from the impulse log.
        kicks = {e.time: e.coefficient for e in trace.impulses
                 if e.signal == "u" and e.order == 0}
        acc, slope = 0.5, 0.0
        for k in range(len(u)):
            if k >= 2:
                slope = ((u.left[k - 1] - u.right[k - 2])
                         / (times[k - 1] - times[k - 2]))
            if k:
                h = times[k] - times[k - 1]
                acc += h * u.right[k - 1] + 0.5 * h * h * slope
            left = acc
            acc += kicks.get(times[k], 0.0)
            assert (x.left[k], x.right[k]) == (pytest.approx(left, rel=1e-14),
                                         pytest.approx(acc, rel=1e-14))

    def test_t_end_below_h_yields_initial_step_only(self):
        model = dsl.load_model(CONSTANT_ONLY)
        trace = simulate(model, "Main", SimConfig(h=0.1, t_end=0.05))
        assert trace.times == [0.0]

    def test_step_helper_drives_flat_graph(self):
        model = dsl.load_model(CONSTANT_ONLY)
        flat = flatten(model, "Main")
        engine = Engine(flat, SimConfig(h=0.1, t_end=1.0))
        initial = engine.past[-1]
        assert initial.t == 0.0 and initial.rights is initial.lefts
        lefts, flipped = engine.compute_step(0.1)
        step = engine.commit(0.1, lefts, flipped)
        assert step is engine.past[-1] and step.lefts is lefts
        index = {node.path: node.idx for node in engine.nodes}
        assert step.lefts[index["n"]] == -4.25
        assert step.rights[index["c"]] == 4.25
        assert flipped == []

    def test_unknown_watch_rejected(self, ball_model):
        with pytest.raises(ModelError):
            simulate(ball_model, "Main",
                     SimConfig(h=1e-3, t_end=0.01, watch=("nope",)))

    def test_watch_accepts_block_paths(self, ball_model):
        trace = simulate(ball_model, "Main",
                         SimConfig(h=1e-3, t_end=0.01,
                                   watch=("y", "det/contact")))
        assert set(trace.signals) == {"y", "det/contact"}


class TestEventLocation:
    def test_crossing_located_within_tolerance(self):
        model = dsl.load_model(DESCENT)
        trace = simulate(model, "Main",
                         SimConfig(h=0.3, t_end=1.0, zc_tol=1e-9))
        # Position decreases at unit rate from 0.5: crossing at t = 0.5.
        assert min(abs(t - 0.5) for t in trace.times) <= 1e-9
        # Stepping resumes with the nominal size after the event.
        index = min(range(len(trace.times)),
                    key=lambda i: abs(trace.times[i] - 0.5))
        assert trace.times[index + 1] - trace.times[index] == pytest.approx(0.3)

    def test_crossing_on_grid_keeps_nominal_step(self, chain_model):
        trace = simulate(chain_model, "Chain",
                         SimConfig(h=0.125, t_end=1.0, watch=("step",)))
        assert trace.times == [k * 0.125 for k in range(9)]
        samples = trace.signals["step"]
        index = trace.times.index(0.5)
        assert (samples.left[index], samples.right[index]) == (0.0, 1.0)

    def test_no_crossing_means_uniform_grid(self):
        model = dsl.load_model(CONSTANT_ONLY)
        trace = simulate(model, "Main", SimConfig(h=0.25, t_end=1.0))
        assert trace.times == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_step_underflow_commits_and_warns(self):
        model = dsl.load_model(FAST_DESCENT)
        trace = simulate(model, "Main",
                         SimConfig(h=1e-3, t_end=0.01, zc_tol=1e-9,
                                   h_min=1e-12))
        assert any("step-underflow" in w for w in trace.warnings)

    def test_bisection_stops_when_no_midpoint_lies_inside(self):
        # With both tolerances at 1e-300 only the float grid ends the
        # bisection of the crossing at t = 1/3: it stops once the midpoint
        # of two adjacent times is one of them, and commits the later one.
        model = dsl.load_model("""
        cbd Main(out y) {
          block r  = Constant(0.3);
          block t  = Integrator(-0.1);
          block sw = Switch();
          r.out -> t.in;
          t.out -> sw.c;
          sw.out -> y;
        }
        """)
        trace = simulate(model, "Main", SimConfig(h=0.25, t_end=1.0,
                                                  zc_tol=1e-300, h_min=1e-300))
        assert trace.warnings == [
            "step-underflow: tolerance not met at t=0.33333333333333337"]
        assert trace.times[:3] == [0.0, 0.25, 0.33333333333333337]

    def test_overflow_warned_at_every_step(self):
        model = dsl.load_model(CONSTANT_ONLY.replace("4.25", "1e301"))
        trace = simulate(model, "Main",
                         SimConfig(mode="numerical", h=0.25, t_end=1.0))
        assert trace.warnings == [
            f"overflow-risk: |y| exceeds 1e+300 at t={t!r}" for t in trace.times
        ]

    def test_overflow_and_underflow_warnings_interleave_by_step(self):
        # The located step's underflow warning comes ahead of the overflow
        # warning at its time, after the one at t = 0.
        model = dsl.load_model(BIG_BESIDE_DESCENT)
        trace = simulate(model, "Main",
                         SimConfig(mode="numerical", h=1e-3, t_end=0.003,
                                   zc_tol=1e-30))
        overflow = [f"overflow-risk: |y| exceeds 1e+300 at t={t!r}"
                    for t in trace.times]
        assert trace.times[1] == 1.000240445137024e-09
        assert trace.warnings == overflow[:1] + [
            "step-underflow: tolerance not met at t=1.000240445137024e-09",
        ] + overflow[1:]

    def test_unshortened_located_step_ends_with_its_full_trial(self):
        # Position falls at rate 2 from 0.5 and crosses 0 at t = 0.25, on
        # the grid, with a zero condition there: bisection takes no
        # iteration, and the located step still runs its own full trial.
        trials = []

        def counted(self, dt, closure=False, compute_step=Engine.compute_step):
            trials.append((dt, closure))
            return compute_step(self, dt, closure)

        model = dsl.load_model(DESCENT.replace("Constant(-1)", "Constant(-2)"))
        with mock.patch.object(Engine, "compute_step", counted), \
                mock.patch.object(Engine, "locate_crossing", autospec=True,
                                  side_effect=Engine.locate_crossing) as located:
            trace = simulate(model, "Main", SimConfig(h=0.125, t_end=0.5))
        assert trace.times == [0.0, 0.125, 0.25, 0.375, 0.5]
        y = trace.signals["y"]
        assert list(y.left) == list(y.right) == [0.5, 0.25, 0.0, -0.25, -0.5]
        assert located.call_count == 1
        assert trials == [(0.125, False)] * located.call_count

    def test_locate_crossing_function(self):
        model = dsl.load_model(DESCENT)
        flat = flatten(model, "Main")
        config = SimConfig(h=0.3, t_end=1.0, zc_tol=1e-9)
        engine = Engine(flat, config)
        # Advance the committed state to t = 0.3 (position 0.2).
        engine.commit(0.3, *engine.compute_step(0.3))
        h_star, _, flipped, underflow = engine.locate_crossing(
            0.3, *engine.compute_step(0.3))
        assert len(flipped) == 1
        assert not underflow
        assert abs(h_star - 0.2) <= 1e-9

    def test_two_crossings_in_one_step_located_earliest_first(self):
        text = """
        cbd Main(out a, b) {
          block r1 = Constant(-1);
          block p1 = Integrator(0.4);
          block n1 = Negator();
          block s1 = Switch();
          block r2 = Constant(-1);
          block p2 = Integrator(0.55);
          block n2 = Negator();
          block s2 = Switch();
          r1.out -> p1.in; p1.out -> n1.in; n1.out -> s1.c; s1.out -> a;
          r2.out -> p2.in; p2.out -> n2.in; n2.out -> s2.c; s2.out -> b;
        }
        """
        model = dsl.load_model(text)
        trace = simulate(model, "Main",
                         SimConfig(h=1.0, t_end=2.0, zc_tol=1e-9))
        assert abs(trace.times[1] - 0.4) <= 1e-9
        assert abs(trace.times[2] - 0.55) <= 1e-9
        a, b = trace.signals["a"], trace.signals["b"]
        assert (a.left[1], a.right[1]) == (0.0, 1.0)
        assert (b.left[2], b.right[2]) == (0.0, 1.0)

    def test_zeno_alternation_aborts(self):
        model = dsl.load_model(ALTERNATOR)
        with pytest.raises(ZenoSuspected):
            simulate(model, "Main",
                     SimConfig(h=0.01, t_end=1.0, h_min=1e-9))

    @pytest.mark.parametrize("h_min", [1e-5, 1e-4])
    def test_zeno_after_a_genuine_crossing_aborts(self, h_min):
        model = dsl.load_model(LATE_ALTERNATOR)
        with pytest.raises(ZenoSuspected):
            simulate(model, "Main", SimConfig(h=0.01, t_end=0.5, h_min=h_min))


@pytest.fixture(scope="module")
def symbolic(ball_model) -> Trace:
    return simulate(ball_model, "Main",
                    SimConfig(mode="symbolic", h=1e-3, t_end=2.0,
                              zc_tol=1e-9, h_min=1e-12))


class TestBouncingBall:
    def test_single_contact_event(self, symbolic):
        assert len(symbolic.impulses) == 1
        event = symbolic.impulses[0]
        assert event.signal == "force" and event.order == 0
        assert abs(event.time - math.sqrt(2 * 10 / G)) < 1e-3

    def test_velocity_reflects_at_contact(self, symbolic):
        event = symbolic.impulses[0]
        index = symbolic.times.index(event.time)
        v = symbolic.signals["v"]
        assert v.right[index] == -v.left[index]
        assert event.coefficient == -2.0 * v.left[index]

    def test_position_recovers_after_contact(self, symbolic):
        event = symbolic.impulses[0]
        index = symbolic.times.index(event.time)
        assert symbolic.signals["y"].left[index + 5] > 0.0

    def test_no_spurious_force_after_contact(self, symbolic):
        event = symbolic.impulses[0]
        index = symbolic.times.index(event.time)
        force = symbolic.signals["force"]
        assert all(x == 0.0 for x in force.left[index + 1:]
                   + force.right[index + 1:])
        assert all(symbolic.times.index(e.time) <= index
                   for e in symbolic.impulses if e.signal == "force")

    def test_modes_share_grid_and_streams(self, ball_model, symbolic):
        numerical = simulate(ball_model, "Main",
                             SimConfig(mode="numerical", h=1e-3, t_end=2.0,
                                       zc_tol=1e-9, h_min=1e-12))
        assert numerical.impulses == []
        assert numerical.times == symbolic.times
        report = compare_traces(symbolic, numerical, rel_tol=1e-12)
        assert report.ok
        event = symbolic.impulses[0]
        index = symbolic.times.index(event.time)
        h_star = symbolic.times[index] - symbolic.times[index - 1]
        spike = numerical.signals["force"].left[index]
        assert spike == pytest.approx(event.coefficient / h_star,
                                           rel=1e-9)

    def test_flight_matches_discrete_closed_form(self, ball_text, symbolic):
        # Each integrator order has an exact closed form on a uniform grid,
        # with v(t_k) = -g k h for both.  The bundled ball uses order 2: its
        # first position step is explicit (y_1 = y0) and every later one
        # adds h v_{k-1} - g h^2 / 2, so y(t_k) = y0 - g t_k^2 / 2 + g h^2 / 2
        # for k >= 1.  Order 1 accumulates h v_{k-1} only, which sums to
        # y(t_k) = y0 - (g/2) t_k (t_k - h).
        assert ball_text.count("order=2") == 2
        euler_ball = dsl.load_model(ball_text.replace("order=2", "order=1"))
        euler = simulate(euler_ball, "Main",
                         SimConfig(mode="symbolic", h=1e-3, t_end=2.0,
                                   zc_tol=1e-9, h_min=1e-12))
        h = 1e-3
        for k in range(0, 1400, 97):
            t_k = symbolic.times[k]
            assert euler.times[k] == t_k
            ab2_y = 10.0 - 0.5 * G * t_k * t_k + 0.5 * G * h * h if k else 10.0
            euler_y = 10.0 - 0.5 * G * t_k * (t_k - h)
            for trace, y_exact in ((symbolic, ab2_y), (euler, euler_y)):
                v = trace.signals["v"].left[k]
                y = trace.signals["y"].left[k]
                assert v == pytest.approx(-G * k * h, rel=1e-11, abs=1e-12)
                assert y == pytest.approx(y_exact, rel=1e-11)

    def test_two_bounces_conserve_energy(self, ball_model):
        trace = simulate(ball_model, "Main",
                         SimConfig(mode="symbolic", h=1e-3, t_end=5.0))
        assert len(trace.impulses) == 2
        first, second = trace.impulses
        # Elastic contact: the second flight lasts twice the first fall.
        assert second.time == pytest.approx(3.0 * first.time, rel=2e-3)
        i1, i2 = trace.times.index(first.time), trace.times.index(second.time)
        apex = max(trace.signals["y"].left[i1:i2])
        assert apex == pytest.approx(10.0, abs=0.05)

    def test_determinism(self, ball_model, symbolic):
        again = simulate(ball_model, "Main",
                         SimConfig(mode="symbolic", h=1e-3, t_end=2.0,
                                   zc_tol=1e-9, h_min=1e-12))
        assert again.times == symbolic.times
        assert again.impulses == symbolic.impulses
        for name in symbolic.signals:
            assert again.signals[name] == symbolic.signals[name]


class TestGuards:
    def test_max_order_guard(self, chain_model, monkeypatch):
        monkeypatch.setattr(engine, "MAX_ORDER", 2)
        with pytest.raises(MaxOrderExceeded):
            simulate(chain_model, "Chain", SimConfig(h=0.125, t_end=1.0))

    def test_impulse_orders_within_guard_pass(self, chain_model, monkeypatch):
        monkeypatch.setattr(engine, "MAX_ORDER", 3)
        trace = simulate(chain_model, "Chain",
                         SimConfig(h=0.125, t_end=1.0, watch=("d4",)))
        assert [e.order for e in trace.impulses] == [3]

    def test_unknown_integrator_order_names_the_block(self):
        # A model built without the text front end still rejects an
        # integrator order other than 1 or 2 instead of running Euler:
        # check_model states the rule for both.
        model = dsl.load_model(DESCENT)
        model.definitions["Main"].blocks["pos"].params["order"] = 3.0
        with pytest.raises(InvalidParameter) as excinfo:
            simulate(model, "Main", SimConfig(h=0.1, t_end=0.3))
        assert str(excinfo.value) == (
            "Main: 'pos' (Integrator) order must be 1 or 2, got 3")

    def test_non_finite_left_limit_names_the_first_block(self):
        # (1e300)**2 overflows to inf in the Multiplier and the Adder forms
        # inf - inf = NaN, which used to keep phase 2 sweeping until it
        # gave up without naming a block.
        model = dsl.load_model("""
        cbd Main(out y) {
          block big = Constant(1e300);
          block sq  = Multiplier();
          block neg = Negator();
          block sum = Adder();
          block sw  = Switch();
          big.out -> sq.in1;
          big.out -> sq.in2;
          sq.out -> neg.in;
          sq.out -> sum.in1;
          neg.out -> sum.in2;
          sum.out -> sw.c;
          sw.out -> y;
        }
        """)
        with pytest.raises(SimulationError) as excinfo:
            simulate(model, "Main", SimConfig(h=0.1, t_end=0.3))
        assert excinfo.value.block_path == "sq"
        assert isinstance(excinfo.value.cause, bk.NonFiniteValue)

    def test_non_finite_right_limit_names_the_block(self):
        # The switch edge becomes an impulse of weight 1e308, which the
        # integrator adds to its 1e308 state as a jump: only the right
        # limit overflows, at the located crossing.
        model = dsl.load_model("""
        cbd Main(out y) {
          block rate  = Constant(1);
          block ramp  = Integrator(-0.25);
          block sw    = Switch();
          block edge  = Derivative();
          block huge  = Constant(1e308);
          block scale = Multiplier();
          block acc   = Integrator(1e308);
          rate.out -> ramp.in;
          ramp.out -> sw.c;
          sw.out -> edge.in;
          edge.out -> scale.in1;
          huge.out -> scale.in2;
          scale.out -> acc.in;
          acc.out -> y;
        }
        """)
        with pytest.raises(SimulationError) as excinfo:
            simulate(model, "Main", SimConfig(h=0.1, t_end=0.5))
        assert excinfo.value.block_path == "acc"
        assert isinstance(excinfo.value.cause, bk.NonFiniteValue)
        assert "right limit inf" in str(excinfo.value)

    @pytest.mark.parametrize("mode", ["symbolic", "numerical"])
    def test_non_finite_impulse_coefficient_names_the_block(self, mode):
        # The sum jumps from -1e308 to 1e308, both finite, so only the
        # derivative's impulse coefficient (2e308) overflows.
        model = dsl.load_model("""
        cbd Main(out y) {
          block rate = Constant(1);
          block ramp = Integrator(-0.5);
          block sw   = Switch();
          block huge = Constant(1e308);
          block a    = Multiplier();
          block low  = Constant(-1e308);
          block sum  = Adder();
          block d    = Derivative();
          rate.out -> ramp.in;
          ramp.out -> sw.c;
          sw.out -> a.in1;
          huge.out -> a.in2;
          low.out -> sum.in1;
          a.out -> sum.in2;
          a.out -> sum.in3;
          sum.out -> d.in;
          d.out -> y;
        }
        """)
        with pytest.raises(SimulationError) as excinfo:
            simulate(model, "Main", SimConfig(mode=mode, h=0.1, t_end=1.0))
        assert excinfo.value.block_path == "d"
        assert isinstance(excinfo.value.cause, bk.NonFiniteValue)
        assert str(excinfo.value) == (
            "d: order-0 impulse coefficient inf is not finite")

    @pytest.mark.parametrize("wiring", [
        "block acc = Integrator(0, order=2); one.out -> acc.in;",
        "block acc = Multiplier(); one.out -> acc.in1; one.out -> acc.in2;",
        "block acc = Integrator(0); one.out -> acc.in;",
    ])
    def test_commit_rejects_a_non_increasing_time(self, wiring):
        # Order-2 integrators and multipliers divide by the time between
        # the committed steps, so every engine rejects a commit at t = 0.0
        # after the initial instant, whatever its blocks.
        model = dsl.load_model(f"""
        cbd Main(out y) {{
          block one = Constant(1);
          {wiring}
          acc.out -> y;
        }}
        """)
        engine = Engine(flatten(model, "Main"), SimConfig(h=0.1, t_end=1.0))
        lefts, flipped = engine.compute_step(0.1)
        with pytest.raises(NonIncreasingTime, match=(
                "commit time 0.0 does not follow the previous commit at 0.0")):
            engine.commit(0.0, lefts, flipped)
        assert len(engine.past) == 1

    def test_unsettled_phase_two_names_a_block(self):
        # x feeds back into its own input through d: each sweep turns the
        # switch's jump into a larger impulse, so the jump grows forever.
        model = dsl.load_model("""
        cbd Main(out y) {
          block one = Constant(1);
          block t   = Integrator(-0.5);
          block sw  = Switch();
          block sum = Adder();
          block d   = Derivative();
          block x   = Integrator(0);
          one.out -> t.in;
          t.out -> sw.c;
          sw.out -> sum.in1;
          x.out -> sum.in2;
          sum.out -> d.in;
          d.out -> x.in;
          x.out -> y;
        }
        """)
        with pytest.raises(UnstablePropagation) as excinfo:
            simulate(model, "Main", SimConfig(h=0.25, t_end=1.0))
        # d is the last block of the schedule that the last sweep changed.
        assert str(excinfo.value) == (
            "d: impulse propagation failed to stabilise")

    def test_inverter_input_zeroed_by_a_jump_names_the_inverter(self):
        # At t = 0.5 the switch steps 0 -> 1, so 1 - sw jumps 1 -> 0: phase 1
        # divides by 1, the inverter's right limit by 0.
        model = dsl.load_model("""
        cbd Main(out y) {
          block one = Constant(1);
          block t   = Integrator(-0.5);
          block sw  = Switch();
          block neg = Negator();
          block s   = Adder();
          block inv = Inverter();
          one.out -> t.in;
          t.out -> sw.c;
          sw.out -> neg.in;
          neg.out -> s.in1;
          one.out -> s.in2;
          s.out -> inv.in;
          inv.out -> y;
        }
        """)
        engine = Engine(flatten(model, "Main"), SimConfig(h=0.25, t_end=1.0))
        engine.commit(0.25, *engine.compute_step(0.25))
        lefts, flipped = engine.compute_step(0.25)
        inv = next(n.idx for n in engine.nodes if n.path == "inv")
        assert flipped and lefts[inv] == 1.0
        with pytest.raises(SimulationError) as excinfo:
            engine.commit(0.5, lefts, flipped)
        assert excinfo.value.block_path == "inv"
        assert isinstance(excinfo.value.cause, bk.DivisionNearZero)
        assert str(excinfo.value) == "inv: inverter input magnitude 0.0 too small"


SECOND_DERIVATIVE_PRODUCT = """
cbd Main(out y) {
  block rate = Constant(1);
  block ramp = Integrator(-0.35);
  block sw   = Switch();
  block da   = Derivative();
  block db   = Derivative();
  block slope = Constant(2);
  block u    = Integrator(1);
  block m    = Multiplier();
  rate.out -> ramp.in;
  ramp.out -> sw.c;
  sw.out -> da.in;
  da.out -> db.in;
  slope.out -> u.in;
  u.out -> m.in1;
  db.out -> m.in2;
  m.out -> y;
}
"""


class TestMultiplierHistory:
    @pytest.mark.parametrize("mode", ["symbolic", "numerical"])
    def test_ball_multipliers_never_estimate_derivatives(self, ball_model,
                                                         mode):
        spy = mock.Mock(wraps=bk.estimate_derivatives)
        with mock.patch.object(bk, "estimate_derivatives", spy):
            trace = simulate(ball_model, "Main",
                             SimConfig(mode=mode, h=1e-3, t_end=2.0))
        # The contact at t = 1.43 s is an impulse in symbolic mode and a
        # spike in numerical mode.
        assert trace.impulses or max(trace.signals["force"].left) > 0.0
        assert spy.call_count == 0

    def test_order_one_impulse_expands_against_estimated_slope(self):
        # db carries an order-1 impulse at the edge t = 0.35, so m expands
        # u * delta' = u(t) delta' - u'(t) delta with u = 1 + 2 t.
        model = dsl.load_model(SECOND_DERIVATIVE_PRODUCT)
        trace = simulate(model, "Main",
                         SimConfig(h=0.1, t_end=0.6, zc_tol=1e-12))
        events = {e.order: e for e in trace.impulses if e.signal == "y"}
        assert sorted(events) == [0, 1]
        t_edge = events[1].time
        assert t_edge == pytest.approx(0.35, abs=1e-9)
        u_edge = 1.0 + 2.0 * t_edge
        assert events[1].coefficient == pytest.approx(u_edge, rel=1e-9)
        assert events[0].coefficient == pytest.approx(-2.0, rel=1e-9)


LOCATED_SECOND_ORDER = """
cbd Main(out d2) {
  block rate = Constant(-1);
  block pos  = Integrator(0.5);
  block negY = Negator();
  block sw   = Switch();
  block da   = Derivative();
  block db   = Derivative();
  rate.out -> pos.in;
  pos.out -> negY.in;
  negY.out -> sw.c;
  sw.out -> da.in;
  da.out -> db.in;
  db.out -> d2;
}
"""


class TestNumericalLoweringAtLocatedStep:
    def test_order_one_spike_pair_uses_event_step_size(self):
        model = dsl.load_model(LOCATED_SECOND_ORDER)
        config = dict(h=0.3, t_end=1.2, zc_tol=1e-9)
        symbolic = simulate(model, "Main", SimConfig(mode="symbolic", **config))
        numerical = simulate(model, "Main", SimConfig(mode="numerical", **config))
        (event,) = symbolic.impulses
        assert event.order == 1
        index = symbolic.times.index(event.time)
        h_star = symbolic.times[index] - symbolic.times[index - 1]
        left = numerical.signals["d2"].left
        assert left[index] == pytest.approx(1.0 / h_star ** 2)
        assert left[index + 1] == pytest.approx(-1.0 / h_star ** 2)
        assert left[index + 2] == 0.0
        assert left[index - 1] == 0.0


DECISION_CLIP = """
// Forward a rising ramp until it crosses 1.5, then hold a constant:
// the decision condition 1.5 - ramp flips sign mid-run.
cbd Main(out out) {
  block rate  = Constant(1);
  block ramp  = Integrator(0);
  block limit = Constant(1.5);
  block negR  = Negator();
  block cond  = Adder();
  block hold  = Constant(1.5);
  block pick  = Decision();
  rate.out -> ramp.in;
  ramp.out -> negR.in;
  limit.out -> cond.in1;
  negR.out -> cond.in2;
  ramp.out -> pick.u;
  hold.out -> pick.v;
  cond.out -> pick.c;
  pick.out -> out;
}
"""


class TestDecisionThroughEngine:
    def test_selection_flip_is_located_and_split(self):
        model = dsl.load_model(DECISION_CLIP)
        trace = simulate(model, "Main",
                         SimConfig(h=0.4, t_end=3.0, zc_tol=1e-9))
        # Condition 1.5 - t crosses zero at t = 1.5 (ramp integrates
        # exactly for a constant rate).
        index = min(range(len(trace.times)),
                    key=lambda i: abs(trace.times[i] - 1.5))
        assert abs(trace.times[index] - 1.5) <= 1e-9
        out = trace.signals["out"]
        # Left limit still tracks the ramp branch, right limit the held one.
        assert out.left[index] == pytest.approx(trace.times[index], abs=1e-9)
        assert out.right[index] == 1.5
        assert all(x == 1.5 for x in out.left[index + 1:]
                   + out.right[index + 1:])


class TestImpulseRouting:
    def test_decision_forwards_branch_impulse_to_integrator(self):
        text = """
        cbd Main(out y, held) {
          block rate = Constant(1);
          block ramp = Integrator(-0.5);
          block sw   = Switch();
          block edge = Derivative();
          block zero = Constant(0);
          block pos  = Constant(1);
          block pick = Decision();
          block acc  = Integrator(0);
          rate.out -> ramp.in;
          ramp.out -> sw.c;
          sw.out -> edge.in;
          edge.out -> pick.u;
          zero.out -> pick.v;
          pos.out -> pick.c;
          pick.out -> y;
          y -> acc.in;
          acc.out -> held;
        }
        """
        model = dsl.load_model(text)
        trace = simulate(model, "Main", SimConfig(h=0.125, t_end=1.0))
        assert [(e.signal, e.order) for e in trace.impulses] == [("y", 0)]
        index = trace.times.index(0.5)
        held = trace.signals["held"]
        assert (held.left[index], held.right[index]) == (0.0, 1.0)
        assert held.left[index + 1] == 1.0


class TestErrorWrapping:
    def test_block_errors_carry_the_block_path(self):
        text = """
        cbd Inner(in u; out y) {
          block inv = Inverter();
          u -> inv.in;
          inv.out -> y;
        }
        cbd Main(out y) {
          block zero = Constant(0);
          block sub  = Inner();
          zero.out -> sub.u;
          sub.y -> y;
        }
        """
        model = dsl.load_model(text)
        from cbdsim.engine import SimulationError
        with pytest.raises(SimulationError) as excinfo:
            simulate(model, "Main", SimConfig(h=0.1, t_end=0.3))
        assert excinfo.value.block_path == "sub/inv"


class TestConfigValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SimConfig(h=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SimConfig(h=1e-3, h_min=1e-2, t_end=1.0)
        with pytest.raises(ValueError):
            SimConfig(h=1e-3, t_end=0.0)
        with pytest.raises(ValueError):
            SimConfig(h=1e-3, t_end=1.0, zc_tol=0.0)
        with pytest.raises(ValueError):
            SimConfig(mode="magic", h=1e-3, t_end=1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["h", "h_min", "t_end", "zc_tol"])
    def test_rejects_non_finite_values(self, name, value):
        config = dict(h=1e-3, h_min=1e-12, t_end=1.0, zc_tol=1e-9)
        config[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            SimConfig(**config)


# Every kind, an order-2 Integrator and an algebraic loop; the Switch and
# the Decision flip at t = 0.25, the Inverter's input stays above 2.
EVERY_KIND = """
cbd Main(out y) {
  block one  = Constant(1);
  block off  = Constant(2.5);
  block half = Constant(0.5);
  block ramp = Integrator(-0.25);
  block sw   = Switch();
  block sum  = Adder();
  block inv  = Inverter();
  block neg  = Negator();
  block m    = Multiplier();
  block d    = Derivative(0.75);
  block acc  = Integrator(0.5, order=2);
  block del  = Delay(-1.5);
  block pick = Decision();
  block loop = Adder();
  block gain = Multiplier();
  one.out -> ramp.in;
  ramp.out -> sw.c;
  ramp.out -> sum.in1;
  off.out -> sum.in2;
  sw.out -> sum.in3;
  sum.out -> inv.in;
  inv.out -> neg.in;
  neg.out -> m.in1;
  ramp.out -> m.in2;
  m.out -> d.in;
  d.out -> acc.in;
  acc.out -> del.in;
  del.out -> pick.u;
  acc.out -> pick.v;
  ramp.out -> pick.c;
  pick.out -> loop.in1;
  gain.out -> loop.in2;
  loop.out -> gain.in1;
  half.out -> gain.in2;
  loop.out -> y;
}
"""


def _engine(text, **config):
    return Engine(flatten(dsl.load_model(text), "Main"), SimConfig(**config))


def _codes(engine):
    first = _phase1_function(engine.nodes, engine.groups, engine.loop_plans,
                             first=True)
    return [f.__code__ for f in (first, engine.phase1)]


class TestGeneratedPhase1:
    def test_one_node_plans_give_the_whole_plan_floats(self):
        # The initial instant and step 1 run the first-step and the
        # explicit forms, step 2 the order-2 Integrator's slope from two
        # committed steps; the uneven steps cross t = 0.25.
        engine = _engine(EVERY_KIND, h=0.1, t_end=1.0)
        assert {n.kind for n in engine.nodes} == set(bk.KINDS)
        past = engine.past
        for t, dt in [(0.0, 0.1), (0.1, 0.1), (0.3, 0.2), (0.35, 0.05),
                      (0.6, 0.25)]:
            first = t == 0.0
            history = deque() if first else past
            whole = past[0].lefts if first else engine.phase1(past, dt)
            for group in engine.groups:
                # The group alone, after a Constant stand-in for every other
                # node holding the whole plan's value.
                table = [node if node.idx in group[0] else _Node(
                    node.idx, node.path, "Constant", {"value": whole[node.idx]},
                    ()) for node in engine.nodes]
                stand_ins = [((node.idx,), False) for node in table
                             if node.idx not in group[0]]
                alone = _phase1_function(table, stand_ins + [group],
                                         engine.loop_plans, first=first)
                lefts = alone(history, dt)
                for idx in group[0]:
                    assert lefts[idx].hex() == whole[idx].hex(), \
                        (t, engine.nodes[idx].path)
            if not first:
                lefts, flipped = engine.compute_step(dt)
                assert lefts == whole
                engine.commit(t, lefts, flipped)

    def test_code_depends_on_the_structure_only(self):
        base = _codes(_engine(DESCENT, h=0.1))
        for text, config in [
                (DESCENT.replace("Constant(-1)", "Constant(-3)"), {}),
                (DESCENT.replace("Integrator(0.5)", "Integrator(0.75)"), {}),
                (DESCENT, {"mode": "numerical"})]:
            assert all(a is b for a, b in zip(
                base, _codes(_engine(text, h=0.1, **config))))
        for text in [
                DESCENT.replace("Integrator(0.5)", "Integrator(0.5, order=2)"),
                DESCENT.replace("negY.out -> sw.c", "pos.out -> sw.c")]:
            assert base[1] is not _codes(_engine(text, h=0.1))[1]

    def test_concurrent_simulations_share_the_code_cache(self):
        texts = [DESCENT.replace("Constant(-1)", f"Constant(-{k})")
                 for k in range(1, 7)]

        def run(text):
            return simulate(dsl.load_model(text), "Main",
                            SimConfig(h=0.01, t_end=0.5))

        expected = [run(text) for text in texts]
        engine._compile.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(texts)) as pool:
                traces = list(pool.map(run, texts, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert traces == expected

    def test_constant_built_in_code_keeps_its_value_object(self):
        model = dsl.load_model(CONSTANT_ONLY)
        value = 10 ** 20
        model.definitions["Main"].blocks["c"] = BlockDecl(
            "Constant", {"value": value})
        engine = Engine(flatten(model, "Main"), SimConfig(h=0.1))
        lefts, _ = engine.compute_step(0.1)
        index = {node.path: node.idx for node in engine.nodes}
        assert lefts[index["c"]] is value

    def test_wide_adder_compiles(self):
        # One Constant wired to every port of a 5,000-input Adder: an
        # ``a + b + …`` source that wide nests too deep to compile.
        width = 5000
        main = Definition(
            name="Main", out_ports=("y",),
            blocks={"c": BlockDecl("Constant", {"value": 1}),
                    "a": BlockDecl("Adder")},
            links=[Link(("c", "out"), ("a", f"in{k + 1}")) for k in range(width)]
            + [Link(("a", "out"), (None, "y"))],
        )
        trace = simulate(Model(definitions={"Main": main}), "Main",
                         SimConfig(h=0.1, t_end=0.2))
        assert trace.signals["y"].left.tolist() == [5000.0] * 3

    @pytest.mark.parametrize("width", [bk.WIDE_ADDER - 1, bk.WIDE_ADDER, 5000])
    def test_wide_multiplier_compiles(self, width):
        # One Constant wired to every port of a Multiplier: from WIDE_ADDER
        # inputs on its template is ``prod``, as ``a * b * …`` that wide
        # nests too deep to compile.
        main = Definition(
            name="Main", out_ports=("y",),
            blocks={"c": BlockDecl("Constant", {"value": -1}),
                    "m": BlockDecl("Multiplier")},
            links=[Link(("c", "out"), ("m", f"in{k + 1}")) for k in range(width)]
            + [Link(("m", "out"), (None, "y"))],
        )
        trace = simulate(Model(definitions={"Main": main}), "Main",
                         SimConfig(h=0.1, t_end=0.2))
        assert trace.signals["y"].left.tolist() == [(-1.0) ** width] * 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1, -1, 0, 3, 0.5, -2.5, 1e200, -1e-200]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-10 ** 6, 10 ** 6)), min_size=2, max_size=6))
    def test_multiplier_gives_the_values_of_prod(self, factors):
        # Code-built Constants keep int values: ``a * b`` must give what
        # ``math.prod`` gives, its type and the sign of a zero included.
        blocks = {f"c{k}": BlockDecl("Constant", {"value": value})
                  for k, value in enumerate(factors)}
        blocks["m"] = BlockDecl("Multiplier")
        links = [Link((f"c{k}", "out"), ("m", f"in{k + 1}"))
                 for k in range(len(factors))] + [Link(("m", "out"), (None, "y"))]
        model = Model(definitions={"Main": Definition(
            name="Main", out_ports=("y",), blocks=blocks, links=links)})
        expected = math.prod(factors)
        if not math.isfinite(expected):
            with pytest.raises(SimulationError, match="^m: "):
                Engine(flatten(model, "Main"), SimConfig(h=0.1))
            return
        engine = Engine(flatten(model, "Main"), SimConfig(h=0.1))
        m = next(node.idx for node in engine.nodes if node.path == "m")
        for lefts in engine.past[-1].lefts, engine.compute_step(0.1)[0]:
            assert (type(lefts[m]), repr(lefts[m])) == \
                (type(expected), repr(expected))

    def test_traceback_shows_the_generated_line(self):
        model = dsl.load_model("""
        cbd Main(out y) {
          block zero = Constant(0);
          block inv  = Inverter();
          zero.out -> inv.in;
          inv.out -> y;
        }
        """)
        with pytest.raises(SimulationError) as excinfo:
            simulate(model, "Main", SimConfig(h=0.1, t_end=0.3))
        frames = [frame for frame in traceback.extract_tb(excinfo.tb)
                  if frame.filename.startswith("<cbdsim generated code ")]
        assert [(frame.name, frame.line) for frame in frames] == [
            ("first_step", "fail(1, v0)")]
