import copy
import math
from types import SimpleNamespace

import pytest

from cbdsim import blocks as bk
from cbdsim.signals import EMPTY_IMPULSES, ImpulseVector, StepSample, sample

G = 9.81

STATEFUL = {"Multiplier", "Integrator", "Derivative", "Switch", "Decision", "Delay"}


def step(kind, inputs, state=None, t=0.0, dt=0.1, **params):
    """One step of a lone ``kind`` block fed ``inputs``, through its kernels.

    Runs ``left``, then ``right``, then ``commit`` at time ``t`` for a step
    of size ``dt``, the order the engine runs them in, and returns the
    output sample and ``state``, which ``commit`` updates in place.  The
    batch kernels get a batch of one.
    """
    info = bk.KINDS[kind]
    n = len(inputs)
    node = SimpleNamespace(idx=n, in_idx=tuple(range(n)), params=params)
    lefts = [s.left for s in inputs] + [None]
    rights = [s.right for s in inputs] + [None]
    vectors = [s.impulses for s in inputs] + [None]
    states = [None] * n + [state]
    if info.left_batch is not None:
        info.left_batch([(node, state)], lefts, dt)
    else:
        lefts[n] = info.left(node, states, lefts, dt)
    rights[n], vectors[n] = lefts[n], EMPTY_IMPULSES
    rights[n], vectors[n] = info.right(node, states, lefts, rights, vectors,
                                       t, dt)
    if info.commit is not None:
        info.commit([(node, state)], lefts, rights, vectors, t)
    return StepSample(lefts[n], rights[n], vectors[n]), state


@pytest.mark.parametrize("kind", sorted(bk.KINDS))
def test_every_kind_has_its_kernels(kind):
    info = bk.KINDS[kind]
    assert callable(info.right)
    # One phase-1 kernel: a batch one exactly for the state-only kinds.
    assert callable(info.left_batch if info.previous_input else info.left)
    assert (info.left is None) == info.previous_input
    assert (info.left_batch is None) != info.previous_input
    assert (info.commit is not None) == (kind in STATEFUL)
    assert (info.new_state is not None) == (kind in STATEFUL)


class TestConstant:
    @pytest.mark.parametrize("value", [9.81, 0.0, -1.0])
    def test_emits_both_limits(self, value):
        out, _ = step("Constant", [], value=value)
        assert out == sample(value, value)


class TestAdder:
    def test_folds_samples(self):
        out, _ = step("Adder", [sample(1, 1), sample(2, 2, {0: 3})])
        assert out == sample(3, 3, {0: 3})


class TestMultiplier:
    def test_plain_product(self):
        out, _ = step("Multiplier", [sample(2, 2), sample(3, 3)],
                      bk.MultiplierState())
        assert out == sample(6, 6)

    def test_contact_scaling(self):
        # Constant -2*v(tc-) against a unit contact impulse.
        v_minus = -math.sqrt(2.0 * G * 10.0)
        u = sample(-2.0 * v_minus, -2.0 * v_minus)
        out, _ = step("Multiplier", [u, sample(1, 1, {0: 1})],
                      bk.MultiplierState())
        assert out.impulses == ImpulseVector({0: -2.0 * v_minus})

    def test_linear_factor_against_order_two(self):
        # u(t) = -g t sampled up to t = 1.44 against {2: 20}.
        state = bk.MultiplierState()
        h = 0.01
        for k in (2, 1):
            t = 1.44 - k * h
            step("Multiplier", [sample(-G * t, -G * t), sample(1, 1)],
                 state, t=t)
        out, _ = step(
            "Multiplier",
            [sample(-G * 1.44, -G * 1.44), sample(1, 1, {2: 20})],
            state, t=1.44,
        )
        assert out.impulses.coefficient(2) == pytest.approx(-28.8 * G, rel=1e-12)
        assert out.impulses.coefficient(1) == pytest.approx(40.0 * G, rel=1e-12)

    def test_three_inputs_sample_the_product_of_the_rest(self):
        out, _ = step(
            "Multiplier",
            [sample(2, 2), sample(1, 1, {0: 5}), sample(3, 3)],
            bk.MultiplierState(),
        )
        assert out.left == out.right == 6.0
        assert out.impulses == ImpulseVector({0: 30.0})

    def test_two_impulsive_inputs_rejected(self):
        with pytest.raises(bk.BothInputsImpulsive):
            step(
                "Multiplier",
                [sample(1, 1, {0: 1}), sample(1, 1, {0: 1})],
                bk.MultiplierState(),
            )

    def test_insufficient_history(self):
        with pytest.raises(bk.InsufficientHistory):
            step(
                "Multiplier",
                [sample(2, 2), sample(1, 1, {1: 1})], bk.MultiplierState()
            )


class TestInverter:
    def test_reciprocal(self):
        assert step("Inverter", [sample(2, 2)])[0] == sample(0.5, 0.5)

    def test_limit_wise(self):
        assert step("Inverter", [sample(4, -4)])[0] == sample(0.25, -0.25)

    def test_impulse_rejected(self):
        with pytest.raises(bk.ImpulseOnInverter):
            step("Inverter", [sample(1, 1, {0: 3})])

    def test_near_zero_rejected(self):
        with pytest.raises(bk.DivisionNearZero):
            step("Inverter", [sample(0.0, 1.0)])


class TestIntegrator:
    def test_riemann_step(self):
        state = bk.IntegratorState(accumulator=0.0, prev_right=1.0)
        out, state = step("Integrator", [sample(1, 1)], state, dt=0.1)
        assert out == sample(0.1, 0.1)
        assert state.accumulator == pytest.approx(0.1)

    def test_first_step_emits_initial_condition(self):
        state = bk.IntegratorState(accumulator=5.0)
        out, _ = step("Integrator", [sample(99, 99)], state, dt=0.1)
        assert out == sample(5.0, 5.0)

    def test_contact_jump_reflects_velocity(self):
        v_minus = -math.sqrt(2.0 * G * 10.0)
        state = bk.IntegratorState(accumulator=v_minus)
        out, state = step(
            "Integrator", [sample(0, 0, {0: -2.0 * v_minus})], state, dt=1e-3
        )
        assert out.left == v_minus
        assert out.right == -v_minus
        assert out.impulses.is_empty
        assert state.accumulator == -v_minus

    def test_higher_orders_shift_down(self):
        state = bk.IntegratorState(accumulator=0.0, prev_right=0.0)
        out, _ = step("Integrator", [sample(0, 0, {1: 5})], state, dt=0.1)
        assert out.impulses == ImpulseVector({0: 5})
        assert out.left == out.right == 0.0

    def test_unit_impulse_gives_unit_step(self):
        state = bk.IntegratorState(accumulator=0.0, prev_right=0.0)
        out, state = step("Integrator", [sample(0, 0, {0: 1})], state, dt=0.1)
        assert (out.left, out.right) == (0.0, 1.0)
        out, state = step("Integrator", [sample(0, 0)], state, dt=0.1)
        assert (out.left, out.right) == (1.0, 1.0)


    def test_order_two_is_exact_on_a_ramp_and_ignores_impulses(self):
        # On a non-uniform grid every step after the explicit second one
        # adds the exact integral of a ramp input u(t) = a + b t.  Commits
        # happen at the grid times, from which the slope takes its step.
        a, b = 0.75, -2.0
        times = [0.0, 0.1, 0.35, 0.4, 0.7, 1.0]
        state = bk.IntegratorState(accumulator=1.0, order=2)
        out, state = step("Integrator", [sample(a, a)], state, t=0.0, dt=0.1)
        assert out == sample(1.0, 1.0)
        x1 = 1.0 + 0.1 * a
        for t_prev, t in zip(times, times[1:]):
            u = a + b * t
            out, state = step("Integrator", [sample(u, u)], state,
                              t=t, dt=t - t_prev)
            exact = x1 + a * (t - 0.1) + 0.5 * b * (t * t - 0.01)
            assert out.left == pytest.approx(exact, rel=1e-12)
        # A jump inside the input sample and an order-0 impulse on it move
        # the output's right limit but stay out of the next step's slope.
        state = bk.IntegratorState(accumulator=0.0, order=2)
        t = 0.0
        for value in (sample(1, 1), sample(1, 1), sample(1, 3, {0: 5})):
            out, state = step("Integrator", [value], state, t=t, dt=0.1)
            t += 0.1
        assert (out.left, out.right) == (pytest.approx(0.2), pytest.approx(5.2))
        assert state.slope == 0.0
        out, state = step("Integrator", [sample(3, 3)], state, t=t, dt=0.1)
        assert out.left == pytest.approx(5.5, rel=1e-15)
        assert state.slope == 0.0


class TestDerivative:
    def test_slope(self):
        state = bk.DerivativeState(initial=0.0, prev_right=0.0)
        out, _ = step("Derivative", [sample(0.3, 0.3)], state, dt=0.1)
        assert out.left == out.right == pytest.approx(3.0)
        assert out.impulses.is_empty

    def test_jump_becomes_impulse(self):
        v0, g, td = 5.0, G, 0.4
        before = v0 - g * td
        state = bk.DerivativeState(initial=0.0, prev_right=before)
        out, _ = step("Derivative", [sample(before, -before)], state, dt=0.1)
        assert out.impulses == ImpulseVector({0: -2.0 * before})

    def test_orders_shift_up(self):
        state = bk.DerivativeState(initial=0.0, prev_right=0.0)
        out, _ = step("Derivative", [sample(0, 0, {0: 2})], state, dt=0.1)
        assert out.impulses == ImpulseVector({1: 2})

    def test_first_step_emits_initial_output(self):
        state = bk.DerivativeState(initial=7.5)
        out, _ = step("Derivative", [sample(1, 2)], state, dt=0.1)
        assert out == sample(7.5, 7.5)


class TestSwitch:
    def test_negative_condition(self):
        out, _ = step("Switch", [sample(-1, -1)], bk.SelectionState())
        assert out == sample(0, 0)

    def test_boundary_is_high(self):
        out, _ = step("Switch", [sample(0, 0)], bk.SelectionState())
        assert out == sample(1, 1)

    def test_split_condition(self):
        out, _ = step("Switch", [sample(-0.5, 0.5)], bk.SelectionState())
        assert out == sample(0, 1)

    def test_between_step_flip_creates_edge(self):
        _, state = step("Switch", [sample(-1, -1)], bk.SelectionState())
        out, _ = step("Switch", [sample(0.5, 0.5)], state)
        assert out == sample(0, 1)

    def test_impulse_condition_rejected(self):
        with pytest.raises(bk.ImpulseOnCondition):
            step("Switch", [sample(1, 1, {0: 3})], bk.SelectionState())


class TestDecision:
    def test_selects_u(self):
        out, _ = step("Decision", [sample(1, 1), sample(2, 2), sample(3, 3)],
                      bk.SelectionState())
        assert out == sample(1, 1)

    def test_limit_wise_selection(self):
        out, _ = step("Decision", [sample(1, 1), sample(2, 2), sample(-1, 1)],
                      bk.SelectionState())
        assert out == sample(2, 1)

    def test_impulse_at_switching_instant_rejected(self):
        with pytest.raises(bk.ImpulseAtSwitchingInstant):
            step("Decision",
                 [sample(1, 1, {0: 1}), sample(2, 2), sample(-1, 1)],
                 bk.SelectionState())

    def test_forwards_selected_branch_impulses(self):
        out, _ = step("Decision",
                      [sample(1, 1, {1: 4}), sample(2, 2), sample(1, 1)],
                      bk.SelectionState())
        assert out.impulses == ImpulseVector({1: 4})

    def test_impulse_condition_rejected(self):
        with pytest.raises(bk.ImpulseOnCondition):
            step("Decision",
                 [sample(1, 1), sample(2, 2), sample(1, 1, {0: 1})],
                 bk.SelectionState())


class TestDelay:
    def test_first_step_initial(self):
        out, state = step("Delay", [sample(9, 9)], bk.DelayState(initial=0.0))
        assert out == sample(0, 0)

    def test_previous_sample_verbatim(self):
        _, state = step("Delay", [sample(3, 4, {0: 1})],
                        bk.DelayState(initial=0.0))
        out, _ = step("Delay", [sample(7, 7)], state)
        assert out == sample(3, 4, {0: 1})

    def test_two_delays_shift_two_steps(self):
        s1, s2 = bk.DelayState(initial=0.0), bk.DelayState(initial=0.0)
        seen = []
        for value in (1.0, 2.0, 3.0, 4.0):
            mid, s1 = step("Delay", [sample(value, value)], s1)
            out, s2 = step("Delay", [mid], s2)
            seen.append(out.left)
        assert seen == [0.0, 0.0, 1.0, 2.0]


class TestChainInvariants:
    def test_derivative_integrator_reproduce_in_sample_jump(self):
        """A jump travelling through d/dt then integration lands exactly."""
        der = bk.DerivativeState(initial=0.0)
        integ = bk.IntegratorState(accumulator=0.0)
        h = 0.25
        stream = [sample(0, 0), sample(0, 0), sample(0, 1), sample(1, 1)]
        outputs = []
        for value in stream:
            mid, der = step("Derivative", [value], der, dt=h)
            out, integ = step("Integrator", [mid], integ, dt=h)
            outputs.append(out)
        assert [o.right for o in outputs] == [v.right for v in stream]


class TestDerivativeEstimates:
    def test_order_k_exact_on_degree_k_data(self):
        # The order-k divided difference of degree-k data is its exact
        # k-th derivative; lower orders carry the usual backward bias.
        times = [0.0, 0.1, 0.25, 0.3]
        linear = [4.0 - 3.0 * t for t in times]
        derivs = bk.estimate_derivatives(times, linear, 2)
        assert derivs[0] == pytest.approx(4.0 - 0.9, rel=1e-12)
        assert derivs[1] == pytest.approx(-3.0, rel=1e-12)
        assert derivs[2] == pytest.approx(0.0, abs=1e-9)

        quadratic = [2.0 - 3.0 * t + 0.5 * t * t for t in times]
        derivs = bk.estimate_derivatives(times, quadratic, 2)
        assert derivs[2] == pytest.approx(1.0, rel=1e-9)

    def test_requires_enough_points(self):
        with pytest.raises(bk.InsufficientHistory):
            bk.estimate_derivatives([0.0, 0.1], [1.0, 2.0], 2)


def _hexed(sample):
    return (sample.left.hex(), sample.right.hex(),
            [(order, c.hex()) for order, c in sample.impulses.items()])


def test_batches_match_batches_of_one():
    """Integrators of order 1 and 2 and Delays, stepped as one batch per
    kind over three steps (fresh, after their first commit, after their
    second), give the floats of the batch-of-one harness."""
    blocks = [("Integrator", bk.IntegratorState(accumulator=1.5)),
              ("Delay", bk.DelayState(initial=-2.0)),
              ("Integrator", bk.IntegratorState(accumulator=0.25, order=2)),
              ("Integrator", bk.IntegratorState(accumulator=-3.0,
                                                prev_right=0.5)),
              ("Delay", bk.DelayState(initial=0.0)),
              ("Integrator", bk.IntegratorState(accumulator=0.0, order=2))]
    alone = [copy.deepcopy(state) for _, state in blocks]
    n = len(blocks)
    nodes = [SimpleNamespace(idx=n + k, in_idx=(k,), params={})
             for k in range(n)]
    t, dt = 0.0, 0.1
    for step_no in range(3):
        inputs = [sample(0.3 * k - 0.7 * (k + 1) * step_no,
                         0.3 * k + 0.5 * k * k * step_no,
                         {0: 0.5} if (k + step_no) % 3 == 0 else None)
                  for k in range(n)]
        lefts = [s.left for s in inputs] + [None] * n
        for kind in ("Integrator", "Delay"):
            bk.KINDS[kind].left_batch([(node, state) for node, (k, state)
                                       in zip(nodes, blocks) if k == kind],
                                      lefts, dt)
        rights = [s.right for s in inputs] + lefts[n:]
        vectors = [s.impulses for s in inputs] + [EMPTY_IMPULSES] * n
        states = [None] * n + [state for _, state in blocks]
        for node, (kind, _) in zip(nodes, blocks):
            rights[node.idx], vectors[node.idx] = bk.KINDS[kind].right(
                node, states, lefts, rights, vectors, t, dt)
        for kind in ("Integrator", "Delay"):
            bk.KINDS[kind].commit([(node, state) for node, (k, state)
                                   in zip(nodes, blocks) if k == kind],
                                  lefts, rights, vectors, t)
        for k, (kind, _) in enumerate(blocks):
            out, alone[k] = step(kind, [inputs[k]], alone[k], t=t, dt=dt)
            batch_out = StepSample(lefts[n + k], rights[n + k], vectors[n + k])
            assert _hexed(batch_out) == _hexed(out), (step_no, k)
        t += dt
        dt *= 1.5
    for (_, state), single in zip(blocks, alone):
        assert repr(state) == repr(single)
