"""Per-step operational semantics of the primitive blocks.

Each block kind has one :class:`KindInfo` entry in :data:`KINDS`: its
ports and parameters, and the kernels that define it, shared by the
symbolic and numerical modes:

* ``left`` produces the output's left limit from the inputs' left limits
  (integrators and delays emit state and ignore current inputs),
* ``right`` produces the right limit and the impulse vector from the full
  input samples,
* ``commit``, for the stateful kinds, advances the block's state once the
  step is committed; ``new_state`` builds that state from the parameters.

The kernels work on cells: within a step, ``samples[i]`` is the mutable
list ``[left, right, ImpulseVector]`` of the block with node index ``i``.
A node exposes ``idx``, ``in_idx`` (its inputs' indices, in port order)
and ``params``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .signals import (
    EMPTY_IMPULSES,
    StepSample,
    add_vectors,
    extract_order_zero,
    impulses,
    leibniz_product,
    negate_vector,
    shift_orders_up,
)

DIV_TOLERANCE = 1e-300
HISTORY_DEPTH = 4


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


VARIADIC_MIN_INPUTS = 2
INTEGRATOR_ORDERS = (1, 2)


# --- per-kind state -------------------------------------------------------

@dataclass
class IntegratorState:
    """Committed integrator state.

    ``prev_right`` is the right limit of the last committed input, ``None``
    before the first commit.  ``slope`` is the order-2 input slope
    ``(prev.left - prevprev.right) / h_prev`` over the last committed step;
    it stays ``None`` for order 1 and until two inputs have been committed.
    ``time`` is the commit time of the last input, from which the slope
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
    times: list[float] = field(default_factory=list)
    lefts: list[tuple[float, ...]] = field(default_factory=list)

    def record(self, t: float, values: tuple[float, ...]) -> None:
        if self.times:
            require_later(t, self.times[-1])
        self.times.append(t)
        self.lefts.append(values)
        if len(self.times) > HISTORY_DEPTH:
            del self.times[0]
            del self.lefts[0]


@dataclass
class SelectionState:
    """Switch and Decision state: whether the condition's right limit was
    >= 0 at the last commit, ``None`` before the first."""
    held: bool | None = None


def _new_integrator(params: dict[str, float]) -> IntegratorState:
    order = params.get("order", 1)
    if order not in INTEGRATOR_ORDERS:
        raise BlockError(f"Integrator order must be 1 or 2, got {order!r}")
    return IntegratorState(accumulator=params.get("init", 0.0), order=int(order))


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


# --- kernels ----------------------------------------------------------------

def _constant_left(node, states, samples, dt):
    return node.params["value"]


def _constant_right(node, states, samples, t, dt):
    return node.params["value"], EMPTY_IMPULSES


def _adder_left(node, states, samples, dt):
    total = samples[node.in_idx[0]][0]
    for i in node.in_idx[1:]:
        total += samples[i][0]
    return total


def _adder_right(node, states, samples, t, dt):
    right = samples[node.in_idx[0]][1]
    vector = samples[node.in_idx[0]][2]
    for i in node.in_idx[1:]:
        right += samples[i][1]
        vector = add_vectors(vector, samples[i][2])
    return right, vector


def _negator_left(node, states, samples, dt):
    return -samples[node.in_idx[0]][0]


def _negator_right(node, states, samples, t, dt):
    src = samples[node.in_idx[0]]
    return -src[1], negate_vector(src[2])


def _multiplier_left(node, states, samples, dt):
    return math.prod(samples[i][0] for i in node.in_idx)


def _multiplier_right(node, states, samples, t, dt):
    ins = [samples[i] for i in node.in_idx]
    right = math.prod(cell[1] for cell in ins)
    impulsive = [j for j, cell in enumerate(ins) if not cell[2].is_empty]
    if not impulsive:
        return right, EMPTY_IMPULSES
    if len(impulsive) > 1:
        raise BothInputsImpulsive(
            "more than one multiplier input carries impulses"
        )
    j = impulsive[0]
    vector = ins[j][2]
    order = vector.max_order
    # Smooth factor u = product of the other inputs, sampled at left limits.
    current = math.prod(cell[0] for k, cell in enumerate(ins) if k != j)
    if order == 0:
        return right, leibniz_product([current], vector)
    st = states[node.idx]
    series = [
        math.prod(row[k] for k in range(len(ins)) if k != j) for row in st.lefts
    ] + [current]
    u_derivs = estimate_derivatives(st.times + [t], series, order)
    return right, leibniz_product(u_derivs, vector)


def _multiplier_commit(node, st, samples, t):
    st.record(t, tuple(samples[i][0] for i in node.in_idx))


def _inverter_left(node, states, samples, dt):
    value = samples[node.in_idx[0]][0]
    if abs(value) <= DIV_TOLERANCE:
        raise DivisionNearZero(f"inverter input magnitude {value!r} too small")
    return 1.0 / value


def _inverter_right(node, states, samples, t, dt):
    src = samples[node.in_idx[0]]
    if not src[2].is_empty:
        raise ImpulseOnInverter("cannot invert an impulse-carrying signal")
    if abs(src[1]) <= DIV_TOLERANCE:
        raise DivisionNearZero(f"inverter input magnitude {src[1]!r} too small")
    return 1.0 / src[1], EMPTY_IMPULSES


def _integrator_left(node, states, samples, dt):
    """Order 1 accumulates the previous input's right limit over the step;
    order 2 adds ``dt**2 / 2`` times the committed slope, the variable-step
    two-step Adams-Bashforth update.  The first step emits the initial
    condition and the second, having no slope yet, is explicit."""
    st = states[node.idx]
    if st.prev_right is None:
        return st.accumulator
    x = st.accumulator + st.prev_right * dt
    if st.slope is None:
        return x
    return x + 0.5 * dt * dt * st.slope


def _integrator_right(node, states, samples, t, dt):
    """An order-0 impulse on the input becomes a jump carried by the right
    limit; higher orders shift down one order and pass through."""
    src = samples[node.in_idx[0]]
    jump, rest = extract_order_zero(src[2])
    return samples[node.idx][0] + jump, rest


def _integrator_commit(node, st, samples, t):
    """The order-2 slope pairs the input's left limit with the previous
    input's right limit over the committed step, so a jump inside a sample
    never enters it."""
    src = samples[node.in_idx[0]]
    if st.order == 2:
        if st.prev_right is not None:
            require_later(t, st.time)
            st.slope = (src[0] - st.prev_right) / (t - st.time)
        st.time = t
    st.accumulator = samples[node.idx][1]
    st.prev_right = src[1]


def _derivative_left(node, states, samples, dt):
    """Backward difference against the previous right limit, which excludes
    an in-sample jump; the first step emits the initial output."""
    st = states[node.idx]
    if st.prev_right is None:
        return st.initial
    return (samples[node.in_idx[0]][0] - st.prev_right) / dt


def _derivative_right(node, states, samples, t, dt):
    """Input impulses move up one order; an in-sample jump of the input
    emits an order-0 impulse with the jump as its coefficient."""
    if states[node.idx].prev_right is None:
        return samples[node.idx][0], EMPTY_IMPULSES
    src = samples[node.in_idx[0]]
    vector = shift_orders_up(src[2])
    if src[0] != src[1]:
        vector = add_vectors(vector, impulses({0: src[1] - src[0]}))
    return samples[node.idx][0], vector


def _derivative_commit(node, st, samples, t):
    st.prev_right = samples[node.in_idx[0]][1]


def _switch_left(node, states, samples, dt):
    """The output stream is piecewise constant, so its left limit is the
    held selection; the first step falls back to the unit step of the
    condition's left limit."""
    held = states[node.idx].held
    if held is None:
        return heaviside(samples[node.in_idx[0]][0])
    return 1.0 if held else 0.0


def _switch_right(node, states, samples, t, dt):
    src = samples[node.in_idx[0]]
    if not src[2].is_empty:
        raise ImpulseOnCondition("switch condition must be impulse-free")
    return heaviside(src[1]), EMPTY_IMPULSES


def _decision_left(node, states, samples, dt):
    """Forward ``u`` or ``v``, selected limit-wise by the sign of ``c``."""
    held = states[node.idx].held
    u, v, c = (samples[i] for i in node.in_idx)
    selects_u = (c[0] >= 0.0) if held is None else held
    return u[0] if selects_u else v[0]


def _decision_right(node, states, samples, t, dt):
    u, v, c = (samples[i] for i in node.in_idx)
    if not c[2].is_empty:
        raise ImpulseOnCondition("decision condition must be impulse-free")
    held = states[node.idx].held
    right_selects_u = c[1] >= 0.0
    left_selects_u = (c[0] >= 0.0) if held is None else held
    if left_selects_u != right_selects_u:
        if not (u[2].is_empty and v[2].is_empty):
            raise ImpulseAtSwitchingInstant(
                "decision branches must be impulse-free while the selection flips"
            )
        vector = EMPTY_IMPULSES
    else:
        vector = (u if right_selects_u else v)[2]
    return (u if right_selects_u else v)[1], vector


def _selection_commit(node, st, samples, t):
    """Hold the selection of the condition, the last input of both kinds."""
    st.held = samples[node.in_idx[-1]][1] >= 0.0


def _delay_left(node, states, samples, dt):
    """Replay the previous input sample verbatim; the first output is the
    initial parameter."""
    st = states[node.idx]
    return st.initial if st.prev_input is None else st.prev_input.left


def _delay_right(node, states, samples, t, dt):
    st = states[node.idx]
    if st.prev_input is None:
        return st.initial, EMPTY_IMPULSES
    return st.prev_input.right, st.prev_input.impulses


def _delay_commit(node, st, samples, t):
    src = samples[node.in_idx[0]]
    st.prev_input = StepSample(src[0], src[1], src[2])


# --- the per-kind table -------------------------------------------------------

@dataclass(frozen=True)
class KindInfo:
    inputs: tuple[str, ...]   # fixed port names; empty tuple + variadic for n-ary kinds
    left: Callable
    right: Callable
    variadic: bool = False
    params: tuple[str, ...] = ()
    # True when the block consumes its data input one step late, which
    # removes it from the current-step dependency graph.
    previous_input: bool = False
    # Set exactly for the stateful kinds.
    commit: Callable | None = None
    new_state: Callable[[dict[str, float]], object] | None = None


KINDS: dict[str, KindInfo] = {
    "Constant": KindInfo((), _constant_left, _constant_right,
                         params=("value",)),
    "Adder": KindInfo((), _adder_left, _adder_right, variadic=True),
    "Negator": KindInfo(("in",), _negator_left, _negator_right),
    "Multiplier": KindInfo((), _multiplier_left, _multiplier_right,
                           variadic=True, commit=_multiplier_commit,
                           new_state=lambda params: MultiplierState()),
    "Inverter": KindInfo(("in",), _inverter_left, _inverter_right),
    "Integrator": KindInfo(("in",), _integrator_left, _integrator_right,
                           params=("init", "order"), previous_input=True,
                           commit=_integrator_commit,
                           new_state=_new_integrator),
    "Derivative": KindInfo(("in",), _derivative_left, _derivative_right,
                           params=("init",), commit=_derivative_commit,
                           new_state=lambda params: DerivativeState(
                               initial=params.get("init", 0.0))),
    "Switch": KindInfo(("c",), _switch_left, _switch_right,
                       commit=_selection_commit,
                       new_state=lambda params: SelectionState()),
    "Decision": KindInfo(("u", "v", "c"), _decision_left, _decision_right,
                         commit=_selection_commit,
                         new_state=lambda params: SelectionState()),
    "Delay": KindInfo(("in",), _delay_left, _delay_right,
                      params=("init",), previous_input=True,
                      commit=_delay_commit,
                      new_state=lambda params: DelayState(
                          initial=params.get("init", 0.0))),
}


def input_ports(kind: str, count: int) -> tuple[str, ...]:
    """Port names for an instance of ``kind`` with ``count`` inputs."""
    info = KINDS[kind]
    if info.variadic:
        return tuple(f"in{i + 1}" for i in range(count))
    return info.inputs
