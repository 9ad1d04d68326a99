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

The kernels work on the step's columns: within a step, ``lefts[i]``,
``rights[i]`` and ``vectors[i]`` are the left limit, right limit and
ImpulseVector of the block with node index ``i``.  A node exposes ``idx``,
``in_idx`` (its inputs' indices, in port order) and ``params``.

Every ``left`` and ``right`` kernel steps one node.  The kinds whose
phase 1 reads only their own state (``previous_input``: Integrator, Delay)
have a ``left_batch`` kernel instead of ``left``, and every ``commit``
kernel is a batch kernel: a batch kernel steps all the blocks of its kind,
given as ``(node, state)`` pairs.  A batch kernel that raises a
:class:`BlockError` sets the error's ``node`` to the block it was stepping.
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
    """Base class for per-block stepping errors.

    ``node`` is the block a batch kernel was stepping when it raised.
    """

    node = None


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

@dataclass(slots=True)
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


@dataclass(slots=True)
class DerivativeState:
    initial: float
    prev_right: float | None = None


@dataclass(slots=True)
class DelayState:
    initial: float
    prev_input: StepSample | None = None


@dataclass(slots=True)
class MultiplierState:
    """``time`` is the last commit time.  With ``history`` set, ``times``
    and ``lefts`` keep the newest ``HISTORY_DEPTH`` commit times and input
    left limits, from which an impulse of order >= 1 estimates the other
    inputs' derivatives; the engine clears ``history`` where no input can
    carry one."""
    history: bool = True
    time: float | None = None
    times: list[float] = field(default_factory=list)
    lefts: list[tuple[float, ...]] = field(default_factory=list)


@dataclass(slots=True)
class SelectionState:
    """Switch and Decision state: whether the condition's right limit was
    >= 0 at the last commit, ``None`` before the first."""
    held: bool | None = None


def _new_integrator(params: dict[str, float]) -> IntegratorState:
    return IntegratorState(accumulator=params.get("init", 0.0),
                           order=int(params.get("order", 1)))


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

def _constant_left(node, states, lefts, dt):
    return node.params["value"]


def _constant_right(node, states, lefts, rights, vectors, t, dt):
    return node.params["value"], EMPTY_IMPULSES


def _adder_left(node, states, lefts, dt):
    total = lefts[node.in_idx[0]]
    for i in node.in_idx[1:]:
        total += lefts[i]
    return total


def _adder_right(node, states, lefts, rights, vectors, t, dt):
    right = rights[node.in_idx[0]]
    vector = vectors[node.in_idx[0]]
    for i in node.in_idx[1:]:
        right += rights[i]
        vector = add_vectors(vector, vectors[i])
    return right, vector


def _negator_left(node, states, lefts, dt):
    return -lefts[node.in_idx[0]]


def _negator_right(node, states, lefts, rights, vectors, t, dt):
    src = node.in_idx[0]
    return -rights[src], negate_vector(vectors[src])


def _multiplier_left(node, states, lefts, dt):
    return math.prod(lefts[i] for i in node.in_idx)


def _multiplier_right(node, states, lefts, rights, vectors, t, dt):
    ins = node.in_idx
    right = math.prod(rights[i] for i in ins)
    impulsive = [j for j, i in enumerate(ins) if not vectors[i].is_empty]
    if not impulsive:
        return right, EMPTY_IMPULSES
    if len(impulsive) > 1:
        raise BothInputsImpulsive(
            "more than one multiplier input carries impulses"
        )
    j = impulsive[0]
    vector = vectors[ins[j]]
    order = vector.max_order
    # Smooth factor u = product of the other inputs, sampled at left limits.
    current = math.prod(lefts[i] for k, i in enumerate(ins) if k != j)
    if order == 0:
        return right, leibniz_product([current], vector)
    st = states[node.idx]
    series = [
        math.prod(row[k] for k in range(len(ins)) if k != j) for row in st.lefts
    ] + [current]
    u_derivs = estimate_derivatives(st.times + [t], series, order)
    return right, leibniz_product(u_derivs, vector)


def _multiplier_commit(batch, lefts, rights, vectors, t):
    try:
        for node, st in batch:
            if st.time is not None:
                require_later(t, st.time)
            st.time = t
            if st.history:
                st.times.append(t)
                st.lefts.append(tuple(lefts[i] for i in node.in_idx))
                if len(st.times) > HISTORY_DEPTH:
                    del st.times[0]
                    del st.lefts[0]
    except BlockError as err:
        err.node = node
        raise


def _inverter_left(node, states, lefts, dt):
    value = lefts[node.in_idx[0]]
    if abs(value) <= DIV_TOLERANCE:
        raise DivisionNearZero(f"inverter input magnitude {value!r} too small")
    return 1.0 / value


def _inverter_right(node, states, lefts, rights, vectors, t, dt):
    src = node.in_idx[0]
    if not vectors[src].is_empty:
        raise ImpulseOnInverter("cannot invert an impulse-carrying signal")
    value = rights[src]
    if abs(value) <= DIV_TOLERANCE:
        raise DivisionNearZero(f"inverter input magnitude {value!r} too small")
    return 1.0 / value, EMPTY_IMPULSES


def _integrator_left(batch, lefts, dt):
    """Order 1 accumulates the previous input's right limit over the step;
    order 2 adds ``dt**2 / 2`` times the committed slope, the variable-step
    two-step Adams-Bashforth update.  The first step emits the initial
    condition and the second, having no slope yet, is explicit."""
    half_dt2 = 0.5 * dt * dt
    for node, st in batch:
        prev = st.prev_right
        if prev is None:
            lefts[node.idx] = st.accumulator
        elif st.slope is None:
            lefts[node.idx] = st.accumulator + prev * dt
        else:
            lefts[node.idx] = st.accumulator + prev * dt + half_dt2 * st.slope


def _integrator_right(node, states, lefts, rights, vectors, t, dt):
    """An order-0 impulse on the input becomes a jump carried by the right
    limit; higher orders shift down one order and pass through."""
    jump, rest = extract_order_zero(vectors[node.in_idx[0]])
    return lefts[node.idx] + jump, rest


def _integrator_commit(batch, lefts, rights, vectors, t):
    """The order-2 slope pairs the input's left limit with the previous
    input's right limit over the committed step, so a jump inside a sample
    never enters it."""
    try:
        for node, st in batch:
            src = node.in_idx[0]
            if st.order == 2:
                if st.prev_right is not None:
                    require_later(t, st.time)
                    st.slope = (lefts[src] - st.prev_right) / (t - st.time)
                st.time = t
            st.accumulator = rights[node.idx]
            st.prev_right = rights[src]
    except BlockError as err:
        err.node = node
        raise


def _derivative_left(node, states, lefts, dt):
    """Backward difference against the previous right limit, which excludes
    an in-sample jump; the first step emits the initial output."""
    st = states[node.idx]
    if st.prev_right is None:
        return st.initial
    return (lefts[node.in_idx[0]] - st.prev_right) / dt


def _derivative_right(node, states, lefts, rights, vectors, t, dt):
    """Input impulses move up one order; an in-sample jump of the input
    emits an order-0 impulse with the jump as its coefficient."""
    if states[node.idx].prev_right is None:
        return lefts[node.idx], EMPTY_IMPULSES
    src = node.in_idx[0]
    vector = shift_orders_up(vectors[src])
    if lefts[src] != rights[src]:
        vector = add_vectors(vector, impulses({0: rights[src] - lefts[src]}))
    return lefts[node.idx], vector


def _derivative_commit(batch, lefts, rights, vectors, t):
    for node, st in batch:
        st.prev_right = rights[node.in_idx[0]]


def _switch_left(node, states, lefts, dt):
    """The output stream is piecewise constant, so its left limit is the
    held selection; the first step falls back to the unit step of the
    condition's left limit."""
    held = states[node.idx].held
    if held is None:
        return heaviside(lefts[node.in_idx[0]])
    return 1.0 if held else 0.0


def _switch_right(node, states, lefts, rights, vectors, t, dt):
    src = node.in_idx[0]
    if not vectors[src].is_empty:
        raise ImpulseOnCondition("switch condition must be impulse-free")
    return heaviside(rights[src]), EMPTY_IMPULSES


def _decision_left(node, states, lefts, dt):
    """Forward ``u`` or ``v``, selected limit-wise by the sign of ``c``."""
    held = states[node.idx].held
    u, v, c = node.in_idx
    selects_u = (lefts[c] >= 0.0) if held is None else held
    return lefts[u] if selects_u else lefts[v]


def _decision_right(node, states, lefts, rights, vectors, t, dt):
    u, v, c = node.in_idx
    if not vectors[c].is_empty:
        raise ImpulseOnCondition("decision condition must be impulse-free")
    held = states[node.idx].held
    right_selects_u = rights[c] >= 0.0
    left_selects_u = (lefts[c] >= 0.0) if held is None else held
    selected = u if right_selects_u else v
    if left_selects_u != right_selects_u:
        if not (vectors[u].is_empty and vectors[v].is_empty):
            raise ImpulseAtSwitchingInstant(
                "decision branches must be impulse-free while the selection flips"
            )
        return rights[selected], EMPTY_IMPULSES
    return rights[selected], vectors[selected]


def _selection_commit(batch, lefts, rights, vectors, t):
    """Hold the selection of the condition, the last input of both kinds."""
    for node, st in batch:
        st.held = rights[node.in_idx[-1]] >= 0.0


def _delay_left(batch, lefts, dt):
    """Replay the previous input sample verbatim; the first output is the
    initial parameter."""
    for node, st in batch:
        prev = st.prev_input
        lefts[node.idx] = st.initial if prev is None else prev.left


def _delay_right(node, states, lefts, rights, vectors, t, dt):
    st = states[node.idx]
    if st.prev_input is None:
        return st.initial, EMPTY_IMPULSES
    return st.prev_input.right, st.prev_input.impulses


def _delay_commit(batch, lefts, rights, vectors, t):
    for node, st in batch:
        src = node.in_idx[0]
        st.prev_input = StepSample(lefts[src], rights[src], vectors[src])


# --- the per-kind table -------------------------------------------------------

@dataclass(frozen=True)
class KindInfo:
    inputs: tuple[str, ...]   # fixed port names; empty tuple + variadic for n-ary kinds
    left: Callable | None     # None exactly where ``left_batch`` is set
    right: Callable
    variadic: bool = False
    params: tuple[str, ...] = ()
    # True when the block consumes its data input one step late, which
    # removes it from the current-step dependency graph; its phase 1 reads
    # only its state and runs as ``left_batch``, set exactly for these kinds.
    previous_input: bool = False
    left_batch: Callable | None = None
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
    "Integrator": KindInfo(("in",), None, _integrator_right,
                           params=("init", "order"), previous_input=True,
                           left_batch=_integrator_left,
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
    "Delay": KindInfo(("in",), None, _delay_right,
                      params=("init",), previous_input=True,
                      left_batch=_delay_left,
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
