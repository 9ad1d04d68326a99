"""Algebraic-loop solve plans against the reference elimination."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbdsim import dsl, engine
from cbdsim.engine import (
    SINGULAR_TOLERANCE,
    Engine,
    NonlinearLoop,
    SimConfig,
    SingularLoop,
    _LoopPlan,
    _Node,
    resolve_watches,
    simulate,
)
from cbdsim.graph import flatten


# --- reference: assemble the augmented system and eliminate it per solve ----

def reference_gauss_jordan(matrix, rhs):
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot_row][col]) < SINGULAR_TOLERANCE:
            raise SingularLoop("algebraic loop system is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        a[col] = [value / pivot for value in a[col]]
        for row in range(n):
            if row != col and a[row][col] != 0.0:
                factor = a[row][col]
                a[row] = [rv - factor * cv for rv, cv in zip(a[row], a[col])]
    return [a[i][n] for i in range(n)]


def reference_solve(nodes, members, known):
    position = {idx: j for j, idx in enumerate(members)}
    n = len(members)
    matrix = [[0.0] * n for _ in range(n)]
    rhs = [0.0] * n
    for row, idx in enumerate(members):
        node = nodes[idx]
        matrix[row][row] = 1.0
        if node.kind == "Adder":
            for dep in node.in_idx:
                if dep in position:
                    matrix[row][position[dep]] -= 1.0
                else:
                    rhs[row] += known(dep)
        elif node.kind == "Negator":
            dep = node.in_idx[0]
            if dep in position:
                matrix[row][position[dep]] += 1.0
            else:
                rhs[row] -= known(dep)
        else:
            loop_deps = [d for d in node.in_idx if d in position]
            if len(loop_deps) != 1:
                raise NonlinearLoop(
                    f"{node.path}: multiplier with {len(loop_deps)} in-loop inputs"
                )
            factor = math.prod(
                known(d) for d in node.in_idx if d not in position
            )
            matrix[row][position[loop_deps[0]]] -= factor
    return reference_gauss_jordan(matrix, rhs)


# --- random loops -----------------------------------------------------------

# Small values repeat often, so consecutive solves share factorisations and
# hit exact cancellations (singular systems) as well as general values.
# Magnitudes whose gain products overflow or underflow (±1e200, ±1e-200)
# make inf and nan pivots, factors and outcomes.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0]),
    st.sampled_from([1e200, -1e200, 1e-200, -1e-200]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def loops(draw):
    """A ring of Adder, Negator and Multiplier rows with random extra edges.

    Each member reads its predecessor in the ring, so every system is a
    genuine loop; Adders also read random members and outside inputs.
    """
    n = draw(st.integers(1, 7))
    outside = draw(st.integers(1, 4))
    every = st.integers(0, n + outside - 1)
    from_outside = st.integers(n, n + outside - 1)
    nodes = []
    for idx in range(n):
        prev = (idx - 1) % n
        kind = draw(st.sampled_from(["Adder", "Negator", "Multiplier"]))
        if kind == "Adder":
            in_idx = [prev] + draw(st.lists(every, max_size=3))
        elif kind == "Negator":
            in_idx = [draw(st.one_of(st.just(prev), every))]
        else:
            # Mostly one in-loop input (linear), sometimes none or two.
            loop_inputs = draw(st.sampled_from([[prev]] * 6 + [[], [prev, prev]]))
            in_idx = loop_inputs + draw(st.lists(from_outside, max_size=2))
        in_idx = draw(st.permutations(in_idx))
        nodes.append(_Node(idx, f"b{idx}", kind, {}, tuple(in_idx)))
    nodes += [_Node(idx, f"u{idx}", "Constant", {"value": 0.0}, ())
              for idx in range(n, n + outside)]
    members = draw(st.permutations(range(n)))
    solves = draw(st.lists(
        st.lists(VALUES, min_size=outside, max_size=outside),
        min_size=1, max_size=4,
    ))
    return nodes, members, n, solves


def _outcome(solve):
    try:
        return [value.hex() for value in solve()]
    except SingularLoop:
        return SingularLoop


@settings(max_examples=300, deadline=None)
@given(loops())
def test_plan_replay_is_bitwise_equal_to_reference(case):
    nodes, members, n, solves = case
    try:
        plan = _LoopPlan(nodes, members)
    except NonlinearLoop:
        with pytest.raises(NonlinearLoop):
            reference_solve(nodes, members, lambda dep: 1.0)
        return
    for values in solves:
        known = lambda dep: values[dep - n]  # noqa: E731
        assert _outcome(lambda: plan.solve(*map(known, plan.inputs))) == \
            _outcome(lambda: reference_solve(nodes, members, known))


@settings(max_examples=300, deadline=None)
@given(loops())
def test_gain_factors_are_the_products_of_math_prod(case):
    # Each gain's factor is its Multiplier's outside inputs multiplied as
    # ``math.prod`` multiplies them, type and sign of zero included.
    nodes, members, n, solves = case
    try:
        plan = _LoopPlan(nodes, members)
    except NonlinearLoop:
        return
    inside = set(members)
    for values in solves:
        known = lambda dep: values[dep - n]  # noqa: E731
        expected = [math.prod(known(d) for d in nodes[idx].in_idx if d not in inside)
                    for idx in members if nodes[idx].kind == "Multiplier"]
        factors = plan.gain_factors(*map(known, plan.inputs))
        assert [(type(f), repr(f)) for f in factors] == \
            [(type(f), repr(f)) for f in expected]


# --- a time-varying gain ------------------------------------------------------

RAMP_GAIN = """
cbd Main(out y, g) {
  block rate = Constant(1);
  block gain = Integrator(0);
  block r    = Constant(3);
  block m    = Multiplier();
  block a    = Adder();
  rate.out -> gain.in;
  gain.out -> m.in1;
  a.out -> m.in2;
  m.out -> a.in1;
  r.out -> a.in2;
  a.out -> y;
  gain.out -> g;
}
"""


def test_ramp_gain_refactors_every_step_until_singular():
    h = 0.125
    flat = flatten(dsl.load_model(RAMP_GAIN), "Main")
    engine = Engine(flat, SimConfig(h=h, t_end=2.0))
    watched = resolve_watches(flat, ())
    y, g = watched["y"], watched["g"]
    for k in range(8):
        if k:  # the engine commits t = 0 itself
            engine.commit(k * h, *engine.compute_step(h))
        columns = engine.past[-1]
        gain = columns.lefts[g]
        assert gain == k * h
        expected = 3.0 / (1.0 - gain)
        assert columns.lefts[y] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert columns.rights[y] == pytest.approx(expected, rel=1e-12, abs=0.0)
        (plan,) = engine.loop_plans.values()
        assert plan.factors == (gain,)
    with pytest.raises(SingularLoop):
        engine.compute_step(h)


def test_constant_gain_is_factored_once(monkeypatch):
    calls = []
    factor = _LoopPlan._factor

    def counting(plan, factors):
        calls.append(factors)
        factor(plan, factors)

    monkeypatch.setattr(_LoopPlan, "_factor", counting)
    text = RAMP_GAIN.replace("Constant(1);", "Constant(0);", 1)
    trace = simulate(dsl.load_model(text), "Main", SimConfig(h=0.1, t_end=1.0))
    assert len(trace.times) == 11
    assert calls == [(0.0,)]


def test_ramp_gain_generates_the_replay_once(monkeypatch):
    # The gain runs 2, 2.125, ...: a new factorisation every step, each of
    # the same shape, so only the first generates code.
    factored, generated = [], []
    factor, generate = _LoopPlan._factor, engine._generate

    def counting_factor(plan, factors):
        factored.append(factors)
        factor(plan, factors)

    def counting_generate(params, signature, body):
        generated.append(signature)
        return generate(params, signature, body)

    monkeypatch.setattr(_LoopPlan, "_factor", counting_factor)
    monkeypatch.setattr(engine, "_generate", counting_generate)
    text = RAMP_GAIN.replace("Integrator(0);", "Integrator(2);", 1)
    trace = simulate(dsl.load_model(text), "Main",
                     SimConfig(h=0.125, t_end=2.0))
    assert len(trace.times) == len(factored) == 17
    assert len(set(factored)) == 17
    assert [s.partition("(")[0] for s in generated].count("replay") == 1
    y, g = trace.signals["y"], trace.signals["g"]
    for gain, value in zip(g.left, y.left):
        assert value == pytest.approx(3.0 / (1.0 - gain), rel=1e-12, abs=0.0)


def _ring(adders, width):
    """Nodes of ``adders`` Adders in a ring closed by a Multiplier: the
    first Adder reads the Multiplier and ``width`` outside inputs, each
    other Adder its predecessor and one; the Multiplier reads the last
    Adder and the outside gain, the last node."""
    m, first = adders, adders + 1
    nodes = [_Node(0, "a0", "Adder", {}, (m,) + tuple(range(first, first + width)))]
    nodes += [_Node(k, f"a{k}", "Adder", {}, (k - 1, first)) for k in range(1, adders)]
    gain = first + width
    nodes.append(_Node(m, "m", "Multiplier", {}, (adders - 1, gain)))
    nodes += [_Node(idx, f"u{idx}", "Constant", {"value": 0.0}, ())
              for idx in range(first, gain + 1)]
    return nodes, list(range(adders + 1)), gain


@pytest.mark.parametrize("adders, width", [(1, 5000), (300, 1)])
def test_large_loops_compile_and_match_the_reference(adders, width):
    # One flat statement per operation: a nested ``a + b + …`` this long
    # would not compile.
    nodes, members, gain = _ring(adders, width)
    plan = _LoopPlan(nodes, members)
    for g in (-0.4, 0.25):
        known = lambda dep: g if dep == gain else 0.5 + dep % 7  # noqa: E731
        assert _outcome(lambda: plan.solve(*map(known, plan.inputs))) == \
            _outcome(lambda: reference_solve(nodes, members, known))
