"""Per-step operational semantics of the primitive blocks.

Each block kind is described by a :class:`KindInfo` entry (ports, parameters)
and implemented as a pair of phase kernels:

* ``phase1`` produces the output's left limit from the inputs' left limits
  (integrators and delays emit state and ignore current inputs),
* ``phase2`` produces the right limit and the impulse vector from the full
  input samples.

The ``step_<kind>`` functions compose both phases into the one-shot form
used by unit tests and by anyone driving blocks outside the engine.  In
numerical mode they first assert that inputs carry no impulse vectors and
then operate on plain values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from .signals import (
    EMPTY_IMPULSES,
    ImpulseVector,
    StepSample,
    add_samples,
    add_vectors,
    extract_order_zero,
    leibniz_product,
    negate_sample,
    shift_orders_up,
)

SYMBOLIC = "symbolic"
NUMERICAL = "numerical"

DIV_TOLERANCE = 1e-300
DEFAULT_HISTORY_DEPTH = 4


class BlockError(ValueError):
    """Base class for per-block stepping errors."""


class BothInputsImpulsive(BlockError):
    """A product of two impulse-carrying signals is not defined."""


class InsufficientHistory(BlockError):
    """Not enough retained samples to estimate the required derivatives."""


class ImpulseOnInverter(BlockError):
    """The Inverter requires an impulse-free input."""


class DivisionNearZero(BlockError):
    """Inverter input magnitude at or below the division tolerance."""


class ImpulseOnCondition(BlockError):
    """Switch and Decision conditions must be impulse-free."""


class ImpulseAtSwitchingInstant(BlockError):
    """Decision branches may not carry impulses while the selection flips."""


class ImpulseInNumericalMode(BlockError):
    """Numerical mode received an input with a non-empty impulse vector."""


class NonFiniteValue(BlockError):
    """A block produced an infinite or NaN limit."""


class NonIncreasingTime(BlockError):
    """A commit time did not exceed the block's previous commit time."""


def require_later(t: float, previous: float) -> None:
    """Reject a commit at ``t`` that does not follow one at ``previous``."""
    if not t > previous:
        raise NonIncreasingTime(
            f"commit time {t!r} does not follow the previous commit at {previous!r}"
        )


def heaviside(x: float) -> float:
    """Unit step, 1 for x >= 0."""
    return 1.0 if x >= 0.0 else 0.0


@dataclass(frozen=True)
class KindInfo:
    name: str
    inputs: tuple[str, ...]   # fixed port names; empty tuple + variadic for n-ary kinds
    variadic: bool = False
    params: tuple[str, ...] = ()
    stateful: bool = False
    # True when the block consumes its data input one step late, which
    # removes it from the current-step dependency graph.
    previous_input: bool = False


KINDS: dict[str, KindInfo] = {
    "Constant": KindInfo("Constant", (), params=("value",)),
    "Adder": KindInfo("Adder", (), variadic=True),
    "Negator": KindInfo("Negator", ("in",)),
    "Multiplier": KindInfo("Multiplier", (), variadic=True, stateful=True),
    "Inverter": KindInfo("Inverter", ("in",)),
    "Integrator": KindInfo("Integrator", ("in",), params=("init", "order"),
                           stateful=True, previous_input=True),
    "Derivative": KindInfo("Derivative", ("in",), params=("init",), stateful=True),
    "Switch": KindInfo("Switch", ("c",), stateful=True),
    "Decision": KindInfo("Decision", ("u", "v", "c"), stateful=True),
    "Delay": KindInfo("Delay", ("in",), params=("init",),
                      stateful=True, previous_input=True),
}

VARIADIC_MIN_INPUTS = 2
INTEGRATOR_ORDERS = (1, 2)


def input_ports(kind: str, count: int) -> tuple[str, ...]:
    """Port names for an instance of ``kind`` with ``count`` inputs."""
    info = KINDS[kind]
    if info.variadic:
        return tuple(f"in{i + 1}" for i in range(count))
    return info.inputs


# --- per-kind state -------------------------------------------------------

@dataclass
class IntegratorState:
    """Committed integrator state.

    ``prev_right`` is the right limit of the last committed input, ``None``
    before the first commit.  ``slope`` is the order-2 input slope
    ``(prev.left - prevprev.right) / h_prev`` over the last committed step;
    it stays ``None`` for order 1 and until two inputs have been committed.
    ``time`` is the commit time of the last input, from which the engine
    takes ``h_prev``.
    """
    accumulator: float
    prev_right: float | None = None
    order: int = 1
    slope: float | None = None
    time: float | None = None


@dataclass
class DerivativeState:
    initial: float
    prev_right: float | None = None


@dataclass
class DelayState:
    initial: float
    prev_input: StepSample | None = None


@dataclass
class MultiplierState:
    depth: int = DEFAULT_HISTORY_DEPTH
    times: list[float] = field(default_factory=list)
    lefts: list[tuple[float, ...]] = field(default_factory=list)

    def record(self, t: float, values: tuple[float, ...]) -> None:
        if self.times:
            require_later(t, self.times[-1])
        self.times.append(t)
        self.lefts.append(values)
        if len(self.times) > self.depth:
            del self.times[0]
            del self.lefts[0]


@dataclass
class SwitchState:
    prev_output: float | None = None


@dataclass
class DecisionState:
    prev_selects_u: bool | None = None


def initial_state(kind: str, params: dict[str, float],
                  history_depth: int = DEFAULT_HISTORY_DEPTH):
    if kind == "Integrator":
        order = params.get("order", 1)
        if order not in INTEGRATOR_ORDERS:
            raise BlockError(f"Integrator order must be 1 or 2, got {order!r}")
        return IntegratorState(accumulator=params.get("init", 0.0),
                               order=int(order))
    if kind == "Derivative":
        return DerivativeState(initial=params.get("init", 0.0))
    if kind == "Delay":
        return DelayState(initial=params.get("init", 0.0))
    if kind == "Multiplier":
        return MultiplierState(depth=history_depth)
    if kind == "Switch":
        return SwitchState()
    if kind == "Decision":
        return DecisionState()
    return None


# --- derivative estimation for the Multiplier ----------------------------

def estimate_derivatives(times: Sequence[float], values: Sequence[float],
                         max_order: int) -> list[float]:
    """Backward estimates of value derivatives at the newest time.

    Uses Newton divided differences over the trailing samples, which reduce
    to plain backward finite differences on a uniform grid and stay correct
    across event-shortened steps.  Estimating order k consumes the newest
    k + 1 samples.
    """
    if len(values) < max_order + 1:
        raise InsufficientHistory(
            f"need {max_order + 1} retained samples for derivative order "
            f"{max_order}, have {len(values)}"
        )
    derivs = [values[-1]]
    for k in range(1, max_order + 1):
        ts = times[-(k + 1):]
        table = list(values[-(k + 1):])
        for level in range(1, k + 1):
            for i in range(len(table) - 1, level - 1, -1):
                table[i] = (table[i] - table[i - 1]) / (ts[i] - ts[i - level])
        derivs.append(table[-1] * math.factorial(k))
    return derivs


def _multiplier_impulses(inputs: Sequence[StepSample], state: MultiplierState,
                         t: float) -> ImpulseVector:
    impulsive = [i for i, s in enumerate(inputs) if s.has_impulses]
    if not impulsive:
        return EMPTY_IMPULSES
    if len(impulsive) > 1:
        raise BothInputsImpulsive(
            "more than one multiplier input carries impulses"
        )
    j = impulsive[0]
    vector = inputs[j].impulses
    order = vector.max_order
    # Smooth factor u = product of the other inputs, sampled at left limits.
    current = math.prod(s.left for i, s in enumerate(inputs) if i != j)
    if order == 0:
        return leibniz_product([current], vector)
    times = list(state.times) + [t]
    series = [
        math.prod(row[i] for i in range(len(inputs)) if i != j)
        for row in state.lefts
    ] + [current]
    u_derivs = estimate_derivatives(times, series, order)
    return leibniz_product(u_derivs, vector)


# --- numerical-mode guard -------------------------------------------------

def _require_impulse_free(inputs: Sequence[StepSample], kind: str) -> None:
    for s in inputs:
        if s.has_impulses:
            raise ImpulseInNumericalMode(
                f"{kind} received an impulse-carrying input in numerical mode"
            )


# --- one-shot step operations --------------------------------------------

def step_constant(value: float) -> StepSample:
    return StepSample(float(value), float(value), EMPTY_IMPULSES)


def step_adder(inputs: Sequence[StepSample], mode: str = SYMBOLIC) -> StepSample:
    if mode == NUMERICAL:
        _require_impulse_free(inputs, "Adder")
    if len(inputs) < VARIADIC_MIN_INPUTS:
        raise BlockError("Adder needs at least two inputs")
    out = inputs[0]
    for s in inputs[1:]:
        out = add_samples(out, s)
    return out


def step_negator(value: StepSample, mode: str = SYMBOLIC) -> StepSample:
    if mode == NUMERICAL:
        _require_impulse_free([value], "Negator")
    return negate_sample(value)


def step_multiplier(inputs: Sequence[StepSample], state: MultiplierState,
                    t: float = 0.0, mode: str = SYMBOLIC,
                    ) -> tuple[StepSample, MultiplierState]:
    if len(inputs) < VARIADIC_MIN_INPUTS:
        raise BlockError("Multiplier needs at least two inputs")
    if mode == NUMERICAL:
        _require_impulse_free(inputs, "Multiplier")
    left = math.prod(s.left for s in inputs)
    right = math.prod(s.right for s in inputs)
    vector = _multiplier_impulses(inputs, state, t) if mode == SYMBOLIC \
        else EMPTY_IMPULSES
    state.record(t, tuple(s.left for s in inputs))
    return StepSample(left, right, vector), state


def step_inverter(value: StepSample, mode: str = SYMBOLIC,
                  div_tolerance: float = DIV_TOLERANCE) -> StepSample:
    if mode == NUMERICAL:
        _require_impulse_free([value], "Inverter")
    if value.has_impulses:
        raise ImpulseOnInverter("cannot invert an impulse-carrying signal")
    for limit in (value.left, value.right):
        if abs(limit) <= div_tolerance:
            raise DivisionNearZero(f"inverter input magnitude {limit!r} too small")
    return StepSample(1.0 / value.left, 1.0 / value.right, EMPTY_IMPULSES)


def step_integrator(value: StepSample, state: IntegratorState, h: float,
                    mode: str = SYMBOLIC) -> tuple[StepSample, IntegratorState]:
    """Advance one step: accumulate the previous input, then apply impulses.

    Order 1 accumulates explicitly (previous step's right limit times the
    step size).  Order 2 adds ``h**2 / 2`` times the committed slope, the
    variable-step two-step Adams-Bashforth update; the slope pairs the
    previous input's left limit with the one before's right limit, so a jump
    inside a sample never enters it.  The first step emits the initial
    condition unchanged and the second, having no slope yet, is explicit.
    An order-0 impulse on the current input becomes a jump carried by the
    right limit, higher orders shift down one order and pass through.
    ``h`` is the size of this step and becomes ``h_prev`` of the next one.
    """
    if mode == NUMERICAL:
        _require_impulse_free([value], "Integrator")
    x = state.accumulator
    slope = None
    if state.prev_right is not None:
        x = x + state.prev_right * h
        if state.slope is not None:
            x = x + 0.5 * h * h * state.slope
        if state.order == 2:
            slope = (value.left - state.prev_right) / h
    jump, rest = extract_order_zero(value.impulses)
    out = StepSample(x, x + jump, rest)
    return out, IntegratorState(accumulator=x + jump, prev_right=value.right,
                                order=state.order, slope=slope)


def step_derivative(value: StepSample, state: DerivativeState, h: float,
                    mode: str = SYMBOLIC) -> tuple[StepSample, DerivativeState]:
    """Backward difference plus impulse bookkeeping.

    Input impulses move up one order; an in-sample jump of the input emits
    an order-0 impulse with the jump as its coefficient.  The impulse-free
    part is the difference against the previous right limit, excluding the
    jump, and is emitted with equal limits.
    """
    if mode == NUMERICAL:
        _require_impulse_free([value], "Derivative")
    if state.prev_right is None:
        out = StepSample(state.initial, state.initial, EMPTY_IMPULSES)
        return out, replace(state, prev_right=value.right)
    base = (value.left - state.prev_right) / h
    vector = shift_orders_up(value.impulses) if mode == SYMBOLIC else EMPTY_IMPULSES
    if mode == SYMBOLIC and value.left != value.right:
        vector = add_vectors(vector, ImpulseVector({0: value.right - value.left}))
    return StepSample(base, base, vector), replace(state, prev_right=value.right)


def step_switch(condition: StepSample, state: SwitchState | None = None,
                mode: str = SYMBOLIC) -> tuple[StepSample, SwitchState]:
    """Unit step of the condition, limit-wise.

    The output's left limit is the previously committed output when one
    exists: the output stream is piecewise constant, so its left limit at a
    crossing step is the pre-crossing value.  On the first step (or when
    driven statelessly) the left limit falls back to the condition's left
    limit.
    """
    if condition.has_impulses:
        raise ImpulseOnCondition("switch condition must be impulse-free")
    state = state or SwitchState()
    right = heaviside(condition.right)
    if state.prev_output is None:
        left = heaviside(condition.left)
    else:
        left = state.prev_output
    return StepSample(left, right, EMPTY_IMPULSES), SwitchState(prev_output=right)


def step_decision(u: StepSample, v: StepSample, condition: StepSample,
                  state: DecisionState | None = None, mode: str = SYMBOLIC,
                  ) -> tuple[StepSample, DecisionState]:
    """Forward one of two inputs, selected limit-wise by the condition sign."""
    if condition.has_impulses:
        raise ImpulseOnCondition("decision condition must be impulse-free")
    if mode == NUMERICAL:
        _require_impulse_free([u, v], "Decision")
    state = state or DecisionState()
    right_selects_u = condition.right >= 0.0
    if state.prev_selects_u is None:
        left_selects_u = condition.left >= 0.0
    else:
        left_selects_u = state.prev_selects_u
    if left_selects_u != right_selects_u:
        if u.has_impulses or v.has_impulses:
            raise ImpulseAtSwitchingInstant(
                "decision branches must be impulse-free while the selection flips"
            )
        vector = EMPTY_IMPULSES
    else:
        vector = (u if right_selects_u else v).impulses
    left = u.left if left_selects_u else v.left
    right = u.right if right_selects_u else v.right
    return (StepSample(left, right, vector),
            DecisionState(prev_selects_u=right_selects_u))


def step_delay(value: StepSample, state: DelayState,
               mode: str = SYMBOLIC) -> tuple[StepSample, DelayState]:
    """Emit the previous input sample verbatim; first output is the initial parameter."""
    if mode == NUMERICAL:
        _require_impulse_free([value], "Delay")
    if state.prev_input is None:
        out = StepSample(state.initial, state.initial, EMPTY_IMPULSES)
    else:
        out = state.prev_input
    return out, replace(state, prev_input=value)
