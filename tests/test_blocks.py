import math
from collections import deque

import pytest

from cbdsim import blocks as bk
from cbdsim.engine import SimulationError, _Cells, _Node, _phase1_function
from cbdsim.signals import EMPTY_IMPULSES, ImpulseVector, StepSample, sample

G = 9.81


def new_node(kind, idx, in_idx, params):
    return _Node(idx, f"b{idx}", kind, params, in_idx)


def phase1(nodes, past, lefts, dt):
    """Fill in ``lefts`` at ``nodes``, each its own schedule group, from one
    whole plan generated from their templates, in which every other entry
    of ``lefts``, an input's left limit, is a Constant holding it, scheduled
    first.  Raises the block's own error."""
    own = {node.idx: node for node in nodes}
    table = [own.get(idx) or new_node("Constant", idx, (), {"value": left})
             for idx, left in enumerate(lefts)]
    groups = [((idx,), False) for idx in range(len(lefts)) if idx not in own]
    groups += [((node.idx,), False) for node in nodes]
    function = _phase1_function(table, groups, {}, first=not past)
    try:
        computed = function(past, dt)
    except SimulationError as err:
        raise err.cause
    for node in nodes:
        lefts[node.idx] = computed[node.idx]


def committed(t, samples):
    """A committed step at ``t`` whose columns hold ``samples``."""
    return bk.Committed(t, [s.left for s in samples],
                        [s.right for s in samples],
                        [s.impulses for s in samples])


def seeded(*samples, t=-0.1):
    """A ``past`` ring holding one committed step at ``t``: the inputs'
    samples, then the block's own."""
    return deque([committed(t, samples)], maxlen=bk.HISTORY_DEPTH)


def step(kind, inputs, past=None, t=0.0, dt=0.1, **params):
    """One step of a lone ``kind`` block fed ``inputs``.

    Runs a one-node phase-1 plan compiled from its template, then its
    ``right`` kernel, at time ``t`` for a step of size ``dt`` after the
    committed steps ``past``, then commits the step to ``past`` as the
    engine does, and returns the output sample and ``past``.  With no
    ``past`` the step is the engine's initial instant: the first-step
    template alone, the right limit equal to the left and no impulses.
    The node's inputs are nodes ``0 .. n - 1`` and the block is node ``n``.
    """
    info = bk.KINDS[kind]
    if past is None:
        past = deque(maxlen=bk.HISTORY_DEPTH)
    n = len(inputs)
    node = new_node(kind, n, tuple(range(n)), params)
    lefts = [s.left for s in inputs] + [None]
    rights = [s.right for s in inputs] + [None]
    vectors = [s.impulses for s in inputs] + [None]
    phase1([node], past, lefts, dt)
    rights[n], vectors[n] = lefts[n], EMPTY_IMPULSES
    if past:
        rights[n], vectors[n] = info.right(node, past, lefts, rights,
                                           vectors, t)
    past.append(bk.Committed(t, lefts, rights, vectors))
    return StepSample(lefts[n], rights[n], vectors[n]), past


@pytest.mark.parametrize("kind", sorted(bk.KINDS))
def test_every_kind_has_its_kernels(kind):
    info = bk.KINDS[kind]
    assert callable(info.right)
    # One phase-1 template, picked by the Integrator's order or the Adder's
    # width, whose every form is one expression; a first-step form for the
    # kinds that replay the committed steps.
    forms = [info.template] if isinstance(info.template, str) else [
        info.template(new_node(kind, n, tuple(range(n)), params))
        for n, params in ((3, {}), (3, {"order": 2}), (bk.WIDE_ADDER, {}))]
    forms += [info.first] if info.first else []
    fields = dict(x=_Cells(("a", "b", "c")), s=(0, 1, 2), i=3, k="k")
    for form in forms:
        compile(form.format(**fields), kind, "eval")
    assert info.first is not None or not info.previous_input
    assert (info.const is None) == (not info.params)


class TestConstant:
    @pytest.mark.parametrize("value", [9.81, 0.0, -1.0])
    def test_emits_both_limits(self, value):
        out, _ = step("Constant", [], seeded(sample(0, 0)), value=value)
        assert out == sample(value, value)


class TestAdder:
    def test_folds_samples(self):
        past = seeded(sample(0, 0), sample(0, 0), sample(0, 0))
        out, _ = step("Adder", [sample(1, 1), sample(2, 2, {0: 3})], past)
        assert out == sample(3, 3, {0: 3})

    @pytest.mark.parametrize("values", [
        [-0.0] * 150,
        [1e16, 1.0, -1e16, 1.0, 0.1, -0.0] * 25,
    ])
    def test_wide_adder_keeps_the_left_fold(self, values):
        # From WIDE_ADDER inputs on the template changes, not the floats: the
        # sum of -0.0s stays -0.0 and the rounding follows port order.
        assert len(values) >= bk.WIDE_ADDER
        expected = values[0]
        for value in values[1:]:
            expected = expected + value
        past = seeded(*[sample(0, 0)] * (len(values) + 1))
        out, _ = step("Adder", [sample(v, v) for v in values], past)
        assert out.left.hex() == out.right.hex() == expected.hex()


class TestMultiplier:
    def test_plain_product(self):
        past = seeded(sample(2, 2), sample(3, 3), sample(6, 6))
        out, _ = step("Multiplier", [sample(2, 2), sample(3, 3)], past)
        assert out == sample(6, 6)

    def test_contact_scaling(self):
        # Constant -2*v(tc-) against a unit contact impulse.
        v_minus = -math.sqrt(2.0 * G * 10.0)
        u = sample(-2.0 * v_minus, -2.0 * v_minus)
        past = seeded(u, sample(1, 1), sample(0, 0))
        out, _ = step("Multiplier", [u, sample(1, 1, {0: 1})], past)
        assert out.impulses == ImpulseVector({0: -2.0 * v_minus})

    def test_linear_factor_against_order_two(self):
        # u(t) = -g t sampled up to t = 1.44 against {2: 20}.
        past = None
        h = 0.01
        for k in (2, 1):
            t = 1.44 - k * h
            _, past = step("Multiplier",
                           [sample(-G * t, -G * t), sample(1, 1)], past, t=t)
        out, _ = step(
            "Multiplier",
            [sample(-G * 1.44, -G * 1.44), sample(1, 1, {2: 20})],
            past, t=1.44,
        )
        assert out.impulses.coefficient(2) == pytest.approx(-28.8 * G, rel=1e-12)
        assert out.impulses.coefficient(1) == pytest.approx(40.0 * G, rel=1e-12)

    def test_three_inputs_sample_the_product_of_the_rest(self):
        out, _ = step(
            "Multiplier",
            [sample(2, 2), sample(1, 1, {0: 5}), sample(3, 3)],
            seeded(sample(2, 2), sample(1, 1), sample(3, 3), sample(6, 6)),
        )
        assert out.left == out.right == 6.0
        assert out.impulses == ImpulseVector({0: 30.0})

    def test_two_impulsive_inputs_rejected(self):
        with pytest.raises(bk.BothInputsImpulsive):
            step(
                "Multiplier",
                [sample(1, 1, {0: 1}), sample(1, 1, {0: 1})],
                seeded(sample(1, 1), sample(1, 1), sample(1, 1)),
            )

    def test_insufficient_history(self):
        # An order-2 impulse needs three samples: one committed step and
        # this step's left limits are two.
        past = seeded(sample(2, 2), sample(1, 1), sample(2, 2))
        with pytest.raises(bk.InsufficientHistory):
            step("Multiplier", [sample(2, 2), sample(1, 1, {2: 1})], past)


class TestInverter:
    PAST = (sample(1, 1), sample(1, 1))

    def test_reciprocal(self):
        out, _ = step("Inverter", [sample(2, 2)], seeded(*self.PAST))
        assert out == sample(0.5, 0.5)

    def test_limit_wise(self):
        out, _ = step("Inverter", [sample(4, -4)], seeded(*self.PAST))
        assert out == sample(0.25, -0.25)

    def test_impulse_rejected(self):
        with pytest.raises(bk.ImpulseOnInverter):
            step("Inverter", [sample(1, 1, {0: 3})], seeded(*self.PAST))

    def test_near_zero_rejected(self):
        with pytest.raises(bk.DivisionNearZero):
            step("Inverter", [sample(0.0, 1.0)], seeded(*self.PAST))


class TestIntegrator:
    def test_riemann_step(self):
        past = seeded(sample(1, 1), sample(0, 0))
        out, past = step("Integrator", [sample(1, 1)], past, dt=0.1)
        assert out == sample(0.1, 0.1)
        assert past[-1].rights[1] == pytest.approx(0.1)

    def test_first_step_emits_initial_condition(self):
        out, _ = step("Integrator", [sample(99, 99)], dt=0.1, init=5.0)
        assert out == sample(5.0, 5.0)

    def test_contact_jump_reflects_velocity(self):
        v_minus = -math.sqrt(2.0 * G * 10.0)
        past = seeded(sample(0, 0), sample(v_minus, v_minus))
        out, past = step(
            "Integrator", [sample(0, 0, {0: -2.0 * v_minus})], past, dt=1e-3,
            init=v_minus,
        )
        assert out.left == v_minus
        assert out.right == -v_minus
        assert out.impulses.is_empty
        assert past[-1].rights[1] == -v_minus

    def test_higher_orders_shift_down(self):
        past = seeded(sample(0, 0), sample(0, 0))
        out, _ = step("Integrator", [sample(0, 0, {1: 5})], past, dt=0.1)
        assert out.impulses == ImpulseVector({0: 5})
        assert out.left == out.right == 0.0

    def test_unit_impulse_gives_unit_step(self):
        past = seeded(sample(0, 0), sample(0, 0))
        out, past = step("Integrator", [sample(0, 0, {0: 1})], past, dt=0.1)
        assert (out.left, out.right) == (0.0, 1.0)
        out, past = step("Integrator", [sample(0, 0)], past, dt=0.1)
        assert (out.left, out.right) == (1.0, 1.0)


    def test_order_two_is_exact_on_a_ramp_and_ignores_impulses(self):
        # On a non-uniform grid every step after the explicit second one
        # adds the exact integral of a ramp input u(t) = a + b t.  Commits
        # happen at the grid times, from which the slope takes its step.
        a, b = 0.75, -2.0
        times = [0.0, 0.1, 0.35, 0.4, 0.7, 1.0]
        out, past = step("Integrator", [sample(a, a)], t=0.0, dt=0.1,
                         init=1.0, order=2)
        assert out == sample(1.0, 1.0)
        x1 = 1.0 + 0.1 * a
        for t_prev, t in zip(times, times[1:]):
            u = a + b * t
            out, past = step("Integrator", [sample(u, u)], past,
                             t=t, dt=t - t_prev, order=2)
            exact = x1 + a * (t - 0.1) + 0.5 * b * (t * t - 0.01)
            assert out.left == pytest.approx(exact, rel=1e-12)
        # A jump inside the input sample and an order-0 impulse on it move
        # the output's right limit but stay out of the next step's slope.
        past = None
        t = 0.0
        for value in (sample(1, 1), sample(1, 1), sample(1, 3, {0: 5})):
            out, past = step("Integrator", [value], past, t=t, dt=0.1,
                             order=2)
            t += 0.1
        assert (out.left, out.right) == (pytest.approx(0.2), pytest.approx(5.2))
        assert committed_slope(past) == 0.0
        out, past = step("Integrator", [sample(3, 3)], past, t=t, dt=0.1,
                         order=2)
        assert out.left == pytest.approx(5.5, rel=1e-15)
        assert committed_slope(past) == 0.0


def committed_slope(past):
    """The input slope over the last committed step that an order-2
    Integrator fed by node 0 adds to its next step."""
    last, before = past[-1], past[-2]
    return (last.lefts[0] - before.rights[0]) / (last.t - before.t)


class TestDerivative:
    def test_slope(self):
        past = seeded(sample(0, 0), sample(0, 0))
        out, _ = step("Derivative", [sample(0.3, 0.3)], past, dt=0.1)
        assert out.left == out.right == pytest.approx(3.0)
        assert out.impulses.is_empty

    def test_jump_becomes_impulse(self):
        v0, g, td = 5.0, G, 0.4
        before = v0 - g * td
        past = seeded(sample(before, before), sample(0, 0))
        out, _ = step("Derivative", [sample(before, -before)], past, dt=0.1)
        assert out.impulses == ImpulseVector({0: -2.0 * before})

    def test_orders_shift_up(self):
        past = seeded(sample(0, 0), sample(0, 0))
        out, _ = step("Derivative", [sample(0, 0, {0: 2})], past, dt=0.1)
        assert out.impulses == ImpulseVector({1: 2})

    def test_first_step_emits_initial_output(self):
        out, _ = step("Derivative", [sample(1, 2)], dt=0.1, init=7.5)
        assert out == sample(7.5, 7.5)


class TestSwitch:
    # The condition held negative at the last commit, or non-negative.
    LOW = (sample(-1, -1), sample(0, 0))
    HIGH = (sample(1, 1), sample(1, 1))

    def test_negative_condition(self):
        out, _ = step("Switch", [sample(-1, -1)], seeded(*self.LOW))
        assert out == sample(0, 0)

    def test_boundary_is_high(self):
        out, _ = step("Switch", [sample(0, 0)], seeded(*self.HIGH))
        assert out == sample(1, 1)

    def test_split_condition(self):
        out, _ = step("Switch", [sample(-0.5, 0.5)], seeded(*self.LOW))
        assert out == sample(0, 1)

    def test_initial_instant_reads_the_condition_left_limit(self):
        for value, selected in ((-1, 0), (0, 1), (-0.5, 0)):
            out, _ = step("Switch", [sample(value, -value)])
            assert out == sample(selected, selected)

    def test_between_step_flip_creates_edge(self):
        _, past = step("Switch", [sample(-1, -1)])
        out, _ = step("Switch", [sample(0.5, 0.5)], past)
        assert out == sample(0, 1)

    def test_impulse_condition_rejected(self):
        with pytest.raises(bk.ImpulseOnCondition):
            step("Switch", [sample(1, 1, {0: 3})], seeded(*self.HIGH))


class TestDecision:
    # Branches u = 1 and v = 2, the condition held non-negative at the
    # last commit, or negative.
    HELD_U = (sample(1, 1), sample(2, 2), sample(3, 3), sample(1, 1))
    HELD_V = (sample(1, 1), sample(2, 2), sample(-1, -1), sample(2, 2))

    def test_selects_u(self):
        out, _ = step("Decision", [sample(1, 1), sample(2, 2), sample(3, 3)],
                      seeded(*self.HELD_U))
        assert out == sample(1, 1)

    def test_limit_wise_selection(self):
        out, _ = step("Decision", [sample(1, 1), sample(2, 2), sample(-1, 1)],
                      seeded(*self.HELD_V))
        assert out == sample(2, 1)

    def test_initial_instant_reads_the_condition_left_limit(self):
        out, _ = step("Decision", [sample(1, 1), sample(2, 2), sample(-1, 1)])
        assert out == sample(2, 2)

    def test_impulse_at_switching_instant_rejected(self):
        with pytest.raises(bk.ImpulseAtSwitchingInstant):
            step("Decision",
                 [sample(1, 1, {0: 1}), sample(2, 2), sample(-1, 1)],
                 seeded(*self.HELD_V))

    def test_forwards_selected_branch_impulses(self):
        out, _ = step("Decision",
                      [sample(1, 1, {1: 4}), sample(2, 2), sample(1, 1)],
                      seeded(*self.HELD_U))
        assert out.impulses == ImpulseVector({1: 4})

    def test_impulse_condition_rejected(self):
        with pytest.raises(bk.ImpulseOnCondition):
            step("Decision",
                 [sample(1, 1), sample(2, 2), sample(1, 1, {0: 1})],
                 seeded(*self.HELD_U))


class TestDelay:
    def test_first_step_initial(self):
        out, _ = step("Delay", [sample(9, 9)], init=0.0)
        assert out == sample(0, 0)

    def test_previous_sample_verbatim(self):
        _, past = step("Delay", [sample(3, 4, {0: 1})], init=0.0)
        out, _ = step("Delay", [sample(7, 7)], past)
        assert out == sample(3, 4, {0: 1})

    def test_two_delays_shift_two_steps(self):
        p1 = p2 = None
        seen = []
        for value in (1.0, 2.0, 3.0, 4.0):
            mid, p1 = step("Delay", [sample(value, value)], p1, init=0.0)
            out, p2 = step("Delay", [mid], p2, init=0.0)
            seen.append(out.left)
        assert seen == [0.0, 0.0, 1.0, 2.0]


class TestChainInvariants:
    def test_derivative_integrator_reproduce_in_sample_jump(self):
        """A jump travelling through d/dt then integration lands exactly."""
        der = integ = None
        h = 0.25
        stream = [sample(0, 0), sample(0, 0), sample(0, 1), sample(1, 1)]
        outputs = []
        for value in stream:
            mid, der = step("Derivative", [value], der, dt=h, init=0.0)
            out, integ = step("Integrator", [mid], integ, dt=h, init=0.0)
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
    """Integrators of order 1 and 2 and Delays, stepped by one phase-1
    function over three steps (fresh or after a seeded committed step,
    then after their first commit, after their second), give the floats
    of the one-node harness."""
    for seed in (False, True):
        _check_batches(seed)


def _check_batches(seed):
    blocks = [("Integrator", {"init": 1.5}),
              ("Delay", {"init": -2.0}),
              ("Integrator", {"init": 0.25, "order": 2}),
              ("Integrator", {"init": -3.0}),
              ("Delay", {"init": 0.0}),
              ("Integrator", {"init": 0.0, "order": 2})]
    n = len(blocks)
    nodes = [new_node(kind, n + k, (k,), params)
             for k, (kind, params) in enumerate(blocks)]
    past = deque(maxlen=bk.HISTORY_DEPTH)
    alone = [None] * n
    if seed:
        # The previous inputs jump, one carries an impulse; the fourth
        # block's output was -3.0 with its input's right limit at 0.5.
        before_in = [sample(0.1 * k, 0.5, {0: 0.25} if k == 1 else None)
                     for k in range(n)]
        before_out = [sample(v, v) for v in (1.5, -2.0, 0.25, -3.0, 0.0, 0.0)]
        past.append(committed(-0.1, before_in + before_out))
        alone = [seeded(i, o) for i, o in zip(before_in, before_out)]
    t, dt = 0.0, 0.1
    for step_no in range(3):
        inputs = [sample(0.3 * k - 0.7 * (k + 1) * step_no,
                         0.3 * k + 0.5 * k * k * step_no,
                         {0: 0.5} if (k + step_no) % 3 == 0 else None)
                  for k in range(n)]
        lefts = [s.left for s in inputs] + [None] * n
        phase1(nodes, past, lefts, dt)
        rights = [s.right for s in inputs] + lefts[n:]
        vectors = [s.impulses for s in inputs] + [EMPTY_IMPULSES] * n
        # The initial instant, an empty past, runs no kernel.
        for node, (kind, _) in zip(nodes, blocks) if past else ():
            rights[node.idx], vectors[node.idx] = bk.KINDS[kind].right(
                node, past, lefts, rights, vectors, t)
        past.append(bk.Committed(t, lefts, rights, vectors))
        for k, (kind, params) in enumerate(blocks):
            out, alone[k] = step(kind, [inputs[k]], alone[k], t=t, dt=dt,
                                 **params)
            batch_out = StepSample(lefts[n + k], rights[n + k], vectors[n + k])
            assert _hexed(batch_out) == _hexed(out), (step_no, k)
        t += dt
        dt *= 1.5
