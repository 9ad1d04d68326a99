import math

import pytest
from hypothesis import given, strategies as st

from cbdsim import blocks as bk
from cbdsim.signals import EMPTY_IMPULSES, ImpulseVector, StepSample, sample

G = 9.81


class TestConstant:
    @pytest.mark.parametrize("value", [9.81, 0.0, -1.0])
    def test_emits_both_limits(self, value):
        assert bk.step_constant(value) == sample(value, value)


class TestAdder:
    def test_folds_samples(self):
        out = bk.step_adder([sample(1, 1), sample(2, 2, {0: 3})])
        assert out == sample(3, 3, {0: 3})

    def test_requires_two_inputs(self):
        with pytest.raises(bk.BlockError):
            bk.step_adder([sample(1, 1)])


class TestMultiplier:
    def test_plain_product(self):
        out, _ = bk.step_multiplier([sample(2, 2), sample(3, 3)],
                                    bk.MultiplierState())
        assert out == sample(6, 6)

    def test_contact_scaling(self):
        # Constant -2*v(tc-) against a unit contact impulse.
        v_minus = -math.sqrt(2.0 * G * 10.0)
        u = sample(-2.0 * v_minus, -2.0 * v_minus)
        out, _ = bk.step_multiplier([u, sample(1, 1, {0: 1})],
                                    bk.MultiplierState())
        assert out.impulses == ImpulseVector({0: -2.0 * v_minus})

    def test_linear_factor_against_order_two(self):
        # u(t) = -g t sampled up to t = 1.44 against {2: 20}.
        state = bk.MultiplierState()
        h = 0.01
        for k in (2, 1):
            t = 1.44 - k * h
            bk.step_multiplier([sample(-G * t, -G * t), sample(1, 1)],
                               state, t=t)
        out, _ = bk.step_multiplier(
            [sample(-G * 1.44, -G * 1.44), sample(1, 1, {2: 20})],
            state, t=1.44,
        )
        assert out.impulses.coefficient(2) == pytest.approx(-28.8 * G, rel=1e-12)
        assert out.impulses.coefficient(1) == pytest.approx(40.0 * G, rel=1e-12)

    def test_three_inputs_sample_the_product_of_the_rest(self):
        out, _ = bk.step_multiplier(
            [sample(2, 2), sample(1, 1, {0: 5}), sample(3, 3)],
            bk.MultiplierState(),
        )
        assert out.left == out.right == 6.0
        assert out.impulses == ImpulseVector({0: 30.0})

    def test_two_impulsive_inputs_rejected(self):
        with pytest.raises(bk.BothInputsImpulsive):
            bk.step_multiplier(
                [sample(1, 1, {0: 1}), sample(1, 1, {0: 1})],
                bk.MultiplierState(),
            )

    def test_insufficient_history(self):
        with pytest.raises(bk.InsufficientHistory):
            bk.step_multiplier(
                [sample(2, 2), sample(1, 1, {1: 1})], bk.MultiplierState()
            )


class TestInverter:
    def test_reciprocal(self):
        assert bk.step_inverter(sample(2, 2)) == sample(0.5, 0.5)

    def test_limit_wise(self):
        assert bk.step_inverter(sample(4, -4)) == sample(0.25, -0.25)

    def test_impulse_rejected(self):
        with pytest.raises(bk.ImpulseOnInverter):
            bk.step_inverter(sample(1, 1, {0: 3}))

    def test_near_zero_rejected(self):
        with pytest.raises(bk.DivisionNearZero):
            bk.step_inverter(sample(0.0, 1.0))


class TestIntegrator:
    def test_riemann_step(self):
        state = bk.IntegratorState(accumulator=0.0, prev_right=1.0)
        out, state = bk.step_integrator(sample(1, 1), state, h=0.1)
        assert out == sample(0.1, 0.1)
        assert state.accumulator == pytest.approx(0.1)

    def test_first_step_emits_initial_condition(self):
        state = bk.IntegratorState(accumulator=5.0)
        out, _ = bk.step_integrator(sample(99, 99), state, h=0.1)
        assert out == sample(5.0, 5.0)

    def test_contact_jump_reflects_velocity(self):
        v_minus = -math.sqrt(2.0 * G * 10.0)
        state = bk.IntegratorState(accumulator=v_minus)
        out, state = bk.step_integrator(
            sample(0, 0, {0: -2.0 * v_minus}), state, h=1e-3
        )
        assert out.left == v_minus
        assert out.right == -v_minus
        assert not out.has_impulses
        assert state.accumulator == -v_minus

    def test_higher_orders_shift_down(self):
        state = bk.IntegratorState(accumulator=0.0, prev_right=0.0)
        out, _ = bk.step_integrator(sample(0, 0, {1: 5}), state, h=0.1)
        assert out.impulses == ImpulseVector({0: 5})
        assert out.left == out.right == 0.0

    def test_unit_impulse_gives_unit_step(self):
        state = bk.IntegratorState(accumulator=0.0, prev_right=0.0)
        out, state = bk.step_integrator(sample(0, 0, {0: 1}), state, h=0.1)
        assert (out.left, out.right) == (0.0, 1.0)
        out, state = bk.step_integrator(sample(0, 0), state, h=0.1)
        assert (out.left, out.right) == (1.0, 1.0)


    def test_order_two_is_exact_on_a_ramp_and_ignores_impulses(self):
        # On a non-uniform grid every step after the explicit second one
        # adds the exact integral of a ramp input u(t) = a + b t.
        a, b = 0.75, -2.0
        times = [0.0, 0.1, 0.35, 0.4, 0.7, 1.0]
        state = bk.IntegratorState(accumulator=1.0, order=2)
        out, state = bk.step_integrator(sample(a, a), state, h=0.1)
        assert out == sample(1.0, 1.0)
        x1 = 1.0 + 0.1 * a
        for t_prev, t in zip(times, times[1:]):
            u = a + b * t
            out, state = bk.step_integrator(sample(u, u), state, h=t - t_prev)
            exact = x1 + a * (t - 0.1) + 0.5 * b * (t * t - 0.01)
            assert out.left == pytest.approx(exact, rel=1e-12)
        # A jump inside the input sample and an order-0 impulse on it move
        # the output's right limit but stay out of the next step's slope.
        state = bk.IntegratorState(accumulator=0.0, order=2)
        for value in (sample(1, 1), sample(1, 1), sample(1, 3, {0: 5})):
            out, state = bk.step_integrator(value, state, h=0.1)
        assert (out.left, out.right) == (pytest.approx(0.2), pytest.approx(5.2))
        assert state.slope == 0.0
        out, state = bk.step_integrator(sample(3, 3), state, h=0.1)
        assert out.left == pytest.approx(5.5, rel=1e-15)
        assert state.slope == 0.0


class TestDerivative:
    def test_slope(self):
        state = bk.DerivativeState(initial=0.0, prev_right=0.0)
        out, _ = bk.step_derivative(sample(0.3, 0.3), state, h=0.1)
        assert out.left == out.right == pytest.approx(3.0)
        assert not out.has_impulses

    def test_jump_becomes_impulse(self):
        v0, g, td = 5.0, G, 0.4
        before = v0 - g * td
        state = bk.DerivativeState(initial=0.0, prev_right=before)
        out, _ = bk.step_derivative(sample(before, -before), state, h=0.1)
        assert out.impulses == ImpulseVector({0: -2.0 * before})

    def test_orders_shift_up(self):
        state = bk.DerivativeState(initial=0.0, prev_right=0.0)
        out, _ = bk.step_derivative(sample(0, 0, {0: 2}), state, h=0.1)
        assert out.impulses == ImpulseVector({1: 2})

    def test_first_step_emits_initial_output(self):
        state = bk.DerivativeState(initial=7.5)
        out, _ = bk.step_derivative(sample(1, 2), state, h=0.1)
        assert out == sample(7.5, 7.5)


class TestSwitch:
    def test_negative_condition(self):
        out, _ = bk.step_switch(sample(-1, -1))
        assert out == sample(0, 0)

    def test_boundary_is_high(self):
        out, _ = bk.step_switch(sample(0, 0))
        assert out == sample(1, 1)

    def test_split_condition(self):
        out, _ = bk.step_switch(sample(-0.5, 0.5))
        assert out == sample(0, 1)

    def test_between_step_flip_creates_edge(self):
        _, state = bk.step_switch(sample(-1, -1))
        out, _ = bk.step_switch(sample(0.5, 0.5), state)
        assert out == sample(0, 1)

    def test_impulse_condition_rejected(self):
        with pytest.raises(bk.ImpulseOnCondition):
            bk.step_switch(sample(1, 1, {0: 3}))


class TestDecision:
    def test_selects_u(self):
        out, _ = bk.step_decision(sample(1, 1), sample(2, 2), sample(3, 3))
        assert out == sample(1, 1)

    def test_limit_wise_selection(self):
        out, _ = bk.step_decision(sample(1, 1), sample(2, 2), sample(-1, 1))
        assert out == sample(2, 1)

    def test_impulse_at_switching_instant_rejected(self):
        with pytest.raises(bk.ImpulseAtSwitchingInstant):
            bk.step_decision(sample(1, 1, {0: 1}), sample(2, 2), sample(-1, 1))

    def test_forwards_selected_branch_impulses(self):
        out, _ = bk.step_decision(sample(1, 1, {1: 4}), sample(2, 2),
                                  sample(1, 1))
        assert out.impulses == ImpulseVector({1: 4})

    def test_impulse_condition_rejected(self):
        with pytest.raises(bk.ImpulseOnCondition):
            bk.step_decision(sample(1, 1), sample(2, 2), sample(1, 1, {0: 1}))


class TestDelay:
    def test_first_step_initial(self):
        out, state = bk.step_delay(sample(9, 9), bk.DelayState(initial=0.0))
        assert out == sample(0, 0)

    def test_previous_sample_verbatim(self):
        _, state = bk.step_delay(sample(3, 4, {0: 1}), bk.DelayState(initial=0.0))
        out, _ = bk.step_delay(sample(7, 7), state)
        assert out == sample(3, 4, {0: 1})

    def test_two_delays_shift_two_steps(self):
        s1, s2 = bk.DelayState(initial=0.0), bk.DelayState(initial=0.0)
        seen = []
        for value in (1.0, 2.0, 3.0, 4.0):
            mid, s1 = bk.step_delay(sample(value, value), s1)
            out, s2 = bk.step_delay(mid, s2)
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
            mid, der = bk.step_derivative(value, der, h)
            out, integ = bk.step_integrator(mid, integ, h)
            outputs.append(out)
        assert [o.right for o in outputs] == [v.right for v in stream]

    def test_numerical_chain_delays_jump_one_step(self):
        der = bk.DerivativeState(initial=0.0)
        integ = bk.IntegratorState(accumulator=0.0)
        h = 0.25
        stream = [sample(0, 0), sample(0, 0), sample(1, 1), sample(1, 1),
                  sample(1, 1)]
        rights = []
        for value in stream:
            mid, der = bk.step_derivative(value, der, h, mode=bk.NUMERICAL)
            out, integ = bk.step_integrator(mid, integ, h, mode=bk.NUMERICAL)
            rights.append(out.right)
        assert rights == [0.0, 0.0, 0.0, 1.0, 1.0]


class TestNumericalModeGuard:
    def test_operations_reject_impulses(self):
        impulsive = sample(1, 1, {0: 1})
        clean = sample(1, 1)
        with pytest.raises(bk.ImpulseInNumericalMode):
            bk.step_adder([impulsive, clean], mode=bk.NUMERICAL)
        with pytest.raises(bk.ImpulseInNumericalMode):
            bk.step_negator(impulsive, mode=bk.NUMERICAL)
        with pytest.raises(bk.ImpulseInNumericalMode):
            bk.step_multiplier([impulsive, clean], bk.MultiplierState(),
                               mode=bk.NUMERICAL)
        with pytest.raises(bk.ImpulseInNumericalMode):
            bk.step_integrator(impulsive, bk.IntegratorState(0.0),
                               h=0.1, mode=bk.NUMERICAL)
        with pytest.raises(bk.ImpulseInNumericalMode):
            bk.step_derivative(impulsive, bk.DerivativeState(0.0),
                               h=0.1, mode=bk.NUMERICAL)
        with pytest.raises(bk.ImpulseInNumericalMode):
            bk.step_delay(impulsive, bk.DelayState(0.0), mode=bk.NUMERICAL)


plain = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
plain_samples = st.builds(lambda a, b: sample(a, b), plain, plain)


@given(plain_samples, plain_samples)
def test_modes_agree_bitwise_on_impulse_free_inputs(a, b):
    assert bk.step_adder([a, b]) == bk.step_adder([a, b], mode=bk.NUMERICAL)
    assert bk.step_negator(a) == bk.step_negator(a, mode=bk.NUMERICAL)
    sym, _ = bk.step_multiplier([a, b], bk.MultiplierState())
    num, _ = bk.step_multiplier([a, b], bk.MultiplierState(), mode=bk.NUMERICAL)
    assert sym == num
    for mode_pair in [
        (bk.step_integrator(a, bk.IntegratorState(1.5, prev_right=b.right), 0.1),
         bk.step_integrator(a, bk.IntegratorState(1.5, prev_right=b.right), 0.1,
                            mode=bk.NUMERICAL)),
        (bk.step_derivative(a, bk.DerivativeState(0.0, prev_right=b.right), 0.1),
         bk.step_derivative(a, bk.DerivativeState(0.0, prev_right=b.right), 0.1,
                            mode=bk.NUMERICAL)),
    ]:
        (sym, _), (num, _) = mode_pair
        assert (sym.left, sym.right) == (num.left, num.right)


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
